// Timing statistics, input files and the seeded building generator.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <numbers>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "auditherm/sim/dataset.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/timeseries/csv_io.hpp"
#include "bench.hpp"

namespace perfbench {

namespace ts = auditherm::timeseries;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

InputRecord write_input(const std::string& name, const std::string& path,
                        const ts::MultiTrace& trace) {
  ts::write_csv_file(path, trace);
  const std::string bytes = read_file(path);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a-64
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return {name, bytes.size(), h};
}

namespace {

/// splitmix64 stream: the repository's seed-derivation contract, so one
/// workload seed reproduces every generated value.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : base_(seed) {}

  std::uint64_t next() {
    return auditherm::sim::derive_entity_seed(base_, ++count_);
  }
  double uniform() {  // (0, 1]
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }
  double normal() {
    const double r = std::sqrt(-2.0 * std::log(uniform()));
    return r * std::cos(2.0 * std::numbers::pi * uniform());
  }

 private:
  std::uint64_t base_;
  std::uint64_t count_ = 0;
};

}  // namespace

ts::MultiTrace make_zoned_building(std::size_t sensors, std::size_t days,
                                   std::uint64_t seed,
                                   std::vector<int>* zone_of) {
  using Ch = auditherm::sim::DatasetChannels;
  constexpr std::size_t kZones = 4;
  constexpr std::size_t kPerDay = 48;
  constexpr std::size_t kFlows = 4;
  Rng rng(seed);

  // Balanced zone labels in a seeded order.
  std::vector<int> zone(sensors);
  for (std::size_t i = 0; i < sensors; ++i) {
    zone[i] = static_cast<int>(i % kZones);
  }
  for (std::size_t i = sensors; i > 1; --i) {
    std::swap(zone[i - 1], zone[rng.next() % i]);
  }
  if (zone_of != nullptr) *zone_of = zone;

  std::vector<ts::ChannelId> channels;
  channels.reserve(sensors + 9);
  for (std::size_t i = 0; i < sensors; ++i) {
    channels.push_back(static_cast<ts::ChannelId>(200 + i));
  }
  for (const ts::ChannelId id :
       {40, 41, Ch::kVavBase, Ch::kVavBase + 1, Ch::kVavBase + 2,
        Ch::kVavBase + 3, Ch::kOccupancy, Ch::kLighting, Ch::kAmbient}) {
    channels.push_back(id);
  }
  ts::MultiTrace trace(ts::TimeGrid(0, 30, days * kPerDay),
                       std::move(channels));

  // Each sensor sits at an angle on a loop around its zone and sees a weak
  // local field shared with its neighbours on the loop, so a zone's k-NN
  // graph is close to a ring: its small Laplacian eigenvalues cluster, as
  // in a long hall, and the Lanczos work varies little from seed to seed.
  std::array<std::size_t, kZones> zone_size{}, rank{};
  for (const int z : zone) ++zone_size[static_cast<std::size_t>(z)];
  std::vector<double> offset(sensors), gain(sensors), angle(sensors);
  for (std::size_t i = 0; i < sensors; ++i) {
    const auto z = static_cast<std::size_t>(zone[i]);
    angle[i] = 2.0 * std::numbers::pi * static_cast<double>(rank[z]++) /
               static_cast<double>(zone_size[z]);
    offset[i] = 0.5 * rng.normal();
    gain[i] = 1.0 + 0.05 * rng.normal();
  }
  std::array<double, kZones> disturbance{}, temperature{}, field_x{}, field_y{};
  temperature.fill(21.0);
  double weather = 0.0;

  for (std::size_t k = 0; k < trace.size(); ++k) {
    const double hour = static_cast<double>(k % kPerDay) / 2.0;
    const bool occupied = hour >= 8.0 && hour < 18.0;
    const double daily = std::sin((hour - 6.0) * std::numbers::pi / 12.0);
    weather = 0.98 * weather + 0.2 * rng.normal();
    const double ambient = 10.0 + 8.0 * daily + weather;
    const double occupancy =
        occupied ? std::max(0.0, 0.5 + 0.4 * daily + 0.1 * rng.normal()) : 0.0;
    const double lighting = occupied ? 0.8 : 0.1;
    std::array<double, kFlows> flow{};
    double cooling = 0.0;
    for (std::size_t f = 0; f < kFlows; ++f) {
      flow[f] = occupied ? std::max(0.0, 0.4 + 0.1 * static_cast<double>(f) +
                                             0.05 * rng.normal())
                         : 0.05;
      cooling += flow[f];
    }
    for (std::size_t z = 0; z < kZones; ++z) {
      disturbance[z] = 0.95 * disturbance[z] + 0.15 * rng.normal();
      const double target = 21.0 +
                            2.0 * (1.0 + 0.5 * static_cast<double>(z)) *
                                occupancy +
                            0.05 * ambient - 0.3 * cooling + disturbance[z];
      temperature[z] += 0.3 * (target - temperature[z]);
      field_x[z] = 0.9 * field_x[z] + 0.015 * rng.normal();
      field_y[z] = 0.9 * field_y[z] + 0.015 * rng.normal();
    }

    std::size_t c = 0;
    for (std::size_t i = 0; i < sensors; ++i, ++c) {
      const auto z = static_cast<std::size_t>(zone[i]);
      const double local = field_x[z] * std::cos(angle[i]) +
                           field_y[z] * std::sin(angle[i]);
      trace.set(k, c, 21.0 + gain[i] * (temperature[z] - 21.0) + offset[i] +
                          local + 0.02 * rng.normal());
    }
    trace.set(k, c++, temperature[0] + 0.05 * rng.normal());  // thermostat 40
    trace.set(k, c++, temperature[1] + 0.05 * rng.normal());  // thermostat 41
    for (std::size_t f = 0; f < kFlows; ++f) trace.set(k, c++, flow[f]);
    trace.set(k, c++, occupancy);
    trace.set(k, c++, lighting);
    trace.set(k, c++, ambient);
  }
  return trace;
}

}  // namespace perfbench
