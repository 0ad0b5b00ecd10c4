// serve-mixed: open-loop traffic against an in-process serve::Server.
//
// Arrivals are evenly spaced at a fixed offered rate; at most four
// connections are in flight. Each request is timed from when it was due,
// so a stall also charges the requests queued behind it, and the
// generator's own lateness is reported. The mix is an 8-slot round over
// seeded 64/256/1024-sensor buildings with order/per_cluster/metric
// variants; repeats and evictions exercise the budgeted stage cache and
// the service's request batching. Every 200 body must equal the one-shot
// AnalysisService report for the same request.
//
// In the traced run the open-loop phase runs with a recorder installed
// (for the service's batch counters), and the same request sequence is
// then replayed one at a time straight into AnalysisService::analyze (no
// socket), plain and traced in lockstep, for the span ledger.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <thread>

#include "auditherm/serve/json.hpp"
#include "auditherm/serve/server.hpp"
#include "auditherm/serve/service.hpp"
#include "auditherm/sim/scenario.hpp"
#include "bench.hpp"

namespace perfbench {

namespace {

using namespace auditherm;

constexpr std::size_t kDays = 10;
constexpr std::size_t kWorkers = 2;            // the `serve` default
constexpr std::size_t kBudgetBytes = 16u << 20;  // 16 MB stage cache
constexpr std::size_t kConnections = 4;        // senders in flight
constexpr double kOfferedRps = 4.0;
/// A request answered later than this after its due time misses goodput.
constexpr double kLimitMs = 2000.0;

/// One distinct request of the mix and its one-shot reference report.
struct Kind {
  std::string body;
  serve::AnalyzeRequest request;
  std::string reference;
};

/// bench_serve's 8-slot round over the fleet (4x smallest, 2x middle, 2x
/// largest), as indices into the kinds built by make_kinds().
std::vector<std::size_t> make_schedule(std::size_t count) {
  std::vector<std::size_t> schedule;
  for (std::size_t round = 0; schedule.size() < count; ++round) {
    for (const std::size_t kind :
         {0u, 1u, 0u, 2u, 3u, 4u, 5u, round % 2 == 0 ? 6u : 5u}) {
      schedule.push_back(kind);
    }
  }
  schedule.resize(count);
  return schedule;
}

std::vector<Kind> make_kinds(const std::vector<std::string>& paths) {
  const std::vector<std::pair<std::size_t, std::string>> variants = {
      {0, ""},
      {0, R"(, "order": 1)"},
      {0, R"(, "per_cluster": 2)"},
      {1, ""},
      {1, R"(, "order": 1)"},
      {2, ""},
      {2, R"(, "metric": "euclidean")"}};
  std::vector<Kind> kinds;
  for (const auto& [building, extra] : variants) {
    Kind kind;
    kind.body = R"({"data": ")" + serve::json::escape(paths[building]) +
                R"(", "clusters": 4)" + extra + "}";
    kind.request = serve::request_from_json(serve::json::parse(kind.body));
    kinds.push_back(std::move(kind));
  }
  return kinds;
}

/// One request per connection, read to close. Returns "" when the
/// connection is refused or breaks.
std::string http_post(std::uint16_t port, const std::string& path,
                      const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return {};
  }
  const std::string request = "POST " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// True when `response` is a 200 whose body equals `expected`.
bool response_ok(const std::string& response, const std::string& expected) {
  if (!response.starts_with("HTTP/1.1 200")) return false;
  const auto body = response.find("\r\n\r\n");
  return body != std::string::npos &&
         response.compare(body + 4, std::string::npos, expected) == 0;
}

/// A started in-process daemon; stops and joins on destruction.
class Daemon {
 public:
  Daemon()
      : service_(serve::ServiceConfig{core::CacheBudget{kBudgetBytes}, true}),
        server_(serve::ServerConfig{0, kWorkers}, service_, nullptr) {
    server_.start();
    runner_ = std::thread([this] { server_.run(); });
  }
  ~Daemon() {
    server_.request_stop();
    runner_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] serve::AnalysisService& service() { return service_; }

 private:
  serve::AnalysisService service_;
  serve::Server server_;
  std::thread runner_;
};

struct Sample {
  double late_ms = 0.0;     ///< send time - due time
  double latency_ms = 0.0;  ///< completion - due time
  double service_ms = 0.0;  ///< completion - send time
  bool ok = false;
};

/// Fire `schedule` open loop at kOfferedRps from kConnections senders.
std::vector<Sample> open_loop(std::uint16_t port,
                              const std::vector<std::size_t>& schedule,
                              const std::vector<Kind>& kinds,
                              double& wall_s) {
  std::vector<Sample> samples(schedule.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  kOfferedRps));
  };
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < kConnections; ++c) {
    senders.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < schedule.size();) {
        std::this_thread::sleep_until(due(i));
        const auto sent = Clock::now();
        const Kind& kind = kinds[schedule[i]];
        const std::string response = http_post(port, "/analyze", kind.body);
        const auto done = Clock::now();
        samples[i] = {ms_between(due(i), sent), ms_between(due(i), done),
                      ms_between(sent, done),
                      response_ok(response, kind.reference)};
      }
    });
  }
  for (auto& sender : senders) sender.join();
  wall_s = ms_between(t0, Clock::now()) / 1000.0;  // first due to last reply
  return samples;
}

/// Replay `schedule` one request at a time into two fresh, warmed
/// services in lockstep, with no socket: both see the same hits and misses,
/// and alternating them gives each pair of ops the same machine state. The
/// second service's ops run with `recorder` installed, each in one
/// "bench.op" span. Fills the plain and traced op times of `ledger`;
/// counts reports that differ from their reference in `failed`.
void replay(const std::vector<std::size_t>& schedule,
            const std::vector<Kind>& kinds, obs::Recorder& recorder,
            LayerReport& ledger, std::size_t& failed) {
  const serve::ServiceConfig config{core::CacheBudget{kBudgetBytes}, true};
  serve::AnalysisService plain(config);
  serve::AnalysisService traced(config);
  for (const std::size_t kind : make_schedule(8)) {
    (void)plain.analyze(kinds[kind].request);
    (void)traced.analyze(kinds[kind].request);
  }
  for (const std::size_t k : schedule) {
    for (const bool tracing : {false, true}) {
      const obs::RecorderScope scope(tracing ? &recorder : nullptr);
      const auto t0 = Clock::now();
      std::string report;
      {
        const obs::TraceSpan op("bench.op");
        report = (tracing ? traced : plain).analyze(kinds[k].request);
      }
      (tracing ? ledger.traced_ms : ledger.plain_ms)
          .push_back(ms_between(t0, Clock::now()));
      if (report != kinds[k].reference) ++failed;
    }
  }
}

}  // namespace

Outcome run_serve_workload(const Options& options) {
  Outcome out;
  const std::vector<std::size_t> sizes = {64, 256, 1024};
  std::vector<std::string> paths;
  for (const std::size_t sensors : sizes) {
    paths.push_back(options.data_dir + "/building_" + std::to_string(sensors) +
                    ".csv");
  }

  // --- setup: generate + write the fleet, start a daemon, warm it up -----
  std::vector<double> setup_s;
  std::vector<Kind> kinds;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t rep = 0; rep < options.setup_reps; ++rep) {
    daemon.reset();
    const auto t0 = Clock::now();
    std::vector<InputRecord> written;
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      written.push_back(write_input(
          "building_" + std::to_string(sizes[b]) + ".csv", paths[b],
          make_zoned_building(sizes[b], kDays,
                              sim::derive_entity_seed(options.seed, b))));
    }
    const auto generated = Clock::now();
    if (kinds.empty()) {
      // One-shot references (the CLI's path) are the checker, not set-up.
      kinds = make_kinds(paths);
      for (Kind& kind : kinds) {
        serve::AnalysisService one_shot;
        kind.reference = one_shot.analyze(kind.request);
      }
    }
    const auto warm_start = Clock::now();
    daemon = std::make_unique<Daemon>();
    for (const std::size_t kind : make_schedule(8)) {
      if (!response_ok(http_post(daemon->port(), "/analyze", kinds[kind].body),
                       kinds[kind].reference)) {
        out.fail("warm-up request did not match its one-shot reference");
      }
    }
    setup_s.push_back((ms_between(t0, generated) +
                       ms_between(warm_start, Clock::now())) /
                      1000.0);
    for (std::size_t b = 0; b < written.size(); ++b) {
      if (out.inputs.size() < written.size()) {
        out.inputs.push_back(written[b]);
      } else if (out.inputs[b].fingerprint != written[b].fingerprint) {
        out.fail("setup wrote different bytes on repetition " +
                 std::to_string(rep));
      }
    }
  }

  // --- open-loop phase over the socket ------------------------------------
  const double phase_seconds = options.trace ? options.seconds / 2.0
                                             : options.seconds;
  const std::size_t count =
      options.max_ops > 0
          ? options.max_ops
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(phase_seconds * kOfferedRps));
  const auto schedule = make_schedule(count);
  const auto before = daemon->service().cache().totals();
  const auto evictions_before = daemon->service().cache().eviction_count();
  PhaseStats phase;
  // The traced run's open-loop phase feeds only per-layer numbers, so it
  // records the service's batch counters.
  obs::Recorder traffic;
  std::vector<Sample> samples;
  {
    const obs::RecorderScope scope(options.trace ? &traffic : nullptr);
    samples = open_loop(daemon->port(), schedule, kinds, phase.wall_s);
  }
  LayerReport ledger;
  for (const Sample& s : samples) {
    ++out.attempted;
    // A refused or failed request counts as missing the limit.
    phase.latency_ms.push_back(s.ok ? s.latency_ms : kLimitMs * 10.0);
    if (!s.ok) {
      ++out.failed;
      out.fail("request answered with a non-200 or a body differing from "
               "its one-shot reference");
    } else if (s.latency_ms <= kLimitMs) {
      ++phase.good;
    }
    ledger.service_ms.push_back(s.service_ms);
    ledger.send_late_ms.push_back(s.late_ms);
  }
  const auto after = daemon->service().cache().totals();
  ledger.cache_hits = static_cast<double>(after.hits - before.hits);
  ledger.cache_misses = static_cast<double>(after.misses - before.misses);
  ledger.cache_evictions = static_cast<double>(
      daemon->service().cache().eviction_count() - evictions_before);
  ledger.cache_resident_bytes =
      static_cast<double>(daemon->service().cache().resident_bytes());
  ledger.cache_ops = samples.size();
  daemon.reset();

  if (!options.trace) {
    emit_end_to_end(out, median(setup_s), phase);
    return out;
  }

  // --- socket-free replays, plain and traced in lockstep ------------------
  std::size_t replay_failed = 0;
  obs::Recorder recorder;
  replay(schedule, kinds, recorder, ledger, replay_failed);
  ledger.untraced_ms = ledger.plain_ms;
  out.attempted += 2 * schedule.size();
  out.failed += replay_failed;
  if (replay_failed > 0) {
    out.fail("a replayed report differed from its reference");
  }
  ledger.layer_ms = layer_times(recorder.spans(), "bench.op");
  add_counters(recorder, ledger.counters);
  for (const char* name : {"serve.batch.lead", "serve.batch.join"}) {
    ledger.counters[name] =
        static_cast<double>(traffic.metrics().counter(name));
  }
  if (ledger.counters["obs.dropped_spans"] > 0) {
    out.fail("recorder dropped spans; the ledger is incomplete");
  }
  emit_layers(out, ledger);
  return out;
}

}  // namespace perfbench
