#include "auditherm/sysid/input_plan.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "auditherm/core/stage_key.hpp"
#include "auditherm/obs/trace_span.hpp"

namespace auditherm::sysid {

namespace {

/// An unset clamp (NaN) folds into the fingerprint as the canonical
/// quiet-NaN bits, not as the hasher's NaN sentinel: the encoding plan
/// fingerprints are defined with.
std::uint64_t clamp_bits(double clamp_max) noexcept {
  return std::isnan(clamp_max) ? 0x7ff8000000000000ull
                               : std::bit_cast<std::uint64_t>(clamp_max);
}

void count_source(InputSource source) {
  static const obs::MetricId kGroundTruth =
      obs::counter_id("sysid.input_plan.ground_truth");
  static const obs::MetricId kCo2Estimated =
      obs::counter_id("sysid.input_plan.co2_estimated");
  static const obs::MetricId kSchedulePrior =
      obs::counter_id("sysid.input_plan.schedule_prior");
  switch (source) {
    case InputSource::kGroundTruth: obs::add_counter(kGroundTruth); break;
    case InputSource::kCo2Estimated: obs::add_counter(kCo2Estimated); break;
    case InputSource::kSchedulePrior: obs::add_counter(kSchedulePrior); break;
  }
}

std::shared_ptr<const linalg::Vector> materialize_co2(
    const InputSlot& slot, const timeseries::TraceView& trace,
    const std::vector<bool>& train_mask, core::StageKeyHasher& hasher) {
  Co2OccupancyEstimator estimator(slot.co2);
  estimator.calibrate(trace.filter_rows(train_mask));
  linalg::Vector column = estimator.estimate(trace);
  for (double& v : column) {
    if (std::isnan(v)) continue;
    if (!std::isnan(slot.clamp_max) && v > slot.clamp_max) v = slot.clamp_max;
    if (slot.round_to_integer) v = std::round(v);
  }
  // The calibration fingerprint: re-calibrating (different training rows,
  // different sensor noise) re-keys every downstream stage.
  hasher.add(estimator.volume_over_generation());
  hasher.add(estimator.flow_gain());
  hasher.add(estimator.outdoor_ppm());
  return std::make_shared<const linalg::Vector>(std::move(column));
}

std::shared_ptr<const linalg::Vector> materialize_schedule(
    const InputSlot& slot, const timeseries::TraceView& trace) {
  linalg::Vector column(trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    column[k] = slot.schedule.occupied_at(trace.grid()[k])
                    ? slot.occupied_level
                    : slot.unoccupied_level;
  }
  return std::make_shared<const linalg::Vector>(std::move(column));
}

}  // namespace

InputSlot InputSlot::ground_truth(timeseries::ChannelId channel) {
  InputSlot slot;
  slot.source = InputSource::kGroundTruth;
  slot.channel = channel;
  return slot;
}

InputSlot InputSlot::co2_estimated(Co2Channels co2,
                                   timeseries::ChannelId channel) {
  InputSlot slot;
  slot.source = InputSource::kCo2Estimated;
  slot.channel = channel;
  slot.co2 = std::move(co2);
  return slot;
}

InputSlot InputSlot::schedule_prior(hvac::Schedule schedule,
                                    double occupied_level,
                                    double unoccupied_level,
                                    timeseries::ChannelId channel) {
  InputSlot slot;
  slot.source = InputSource::kSchedulePrior;
  slot.channel = channel;
  slot.schedule = schedule;
  slot.occupied_level = occupied_level;
  slot.unoccupied_level = unoccupied_level;
  return slot;
}

bool InputPlan::pure_ground_truth() const noexcept {
  for (const auto& slot : slots) {
    if (slot.source != InputSource::kGroundTruth) return false;
  }
  return true;
}

timeseries::TraceView ResolvedInputPlan::augment(
    const timeseries::TraceView& base) const {
  timeseries::TraceView out = base;
  for (const auto& d : derived) out = out.with_channel(d.id, d.column);
  return out;
}

ResolvedInputPlan resolve_input_plan(const InputPlan& plan,
                                     const timeseries::TraceView& trace,
                                     const std::vector<bool>& train_mask) {
  if (plan.slots.empty()) {
    throw std::invalid_argument("resolve_input_plan: empty plan");
  }
  if (train_mask.size() != trace.size()) {
    throw std::invalid_argument(
        "resolve_input_plan: train_mask size mismatch");
  }
  obs::TraceSpan span("sysid.input_plan.resolve");

  std::unordered_set<timeseries::ChannelId> seen;
  for (const auto& slot : plan.slots) {
    if (!seen.insert(slot.channel).second) {
      throw std::invalid_argument(
          "resolve_input_plan: duplicate input channel id " +
          std::to_string(slot.channel));
    }
  }

  ResolvedInputPlan resolved;
  resolved.channel_ids.reserve(plan.slots.size());

  // Fingerprint: stays 0 for pure ground-truth plans (the bitwise no-op
  // contract); otherwise folds the whole plan structure plus — inside the
  // materializers — the calibrated parameters.
  core::StageKeyHasher hasher;
  const bool pure = plan.pure_ground_truth();
  if (!pure) hasher.add(std::uint64_t{plan.slots.size()});

  for (const auto& slot : plan.slots) {
    count_source(slot.source);
    if (!pure) {
      hasher.add(static_cast<std::uint64_t>(slot.source));
      hasher.add(slot.channel);
    }
    switch (slot.source) {
      case InputSource::kGroundTruth:
        (void)trace.require_channel(slot.channel);
        break;
      case InputSource::kCo2Estimated: {
        if (trace.channel_index(slot.channel)) {
          throw std::invalid_argument(
              "resolve_input_plan: derived channel id " +
              std::to_string(slot.channel) + " collides with a trace channel");
        }
        hasher.add(slot.co2.co2);
        for (auto id : slot.co2.vav_flows) hasher.add(id);
        hasher.add(slot.co2.occupancy);
        hasher.add(slot.round_to_integer);
        hasher.add(clamp_bits(slot.clamp_max));
        resolved.derived.push_back(
            {slot.channel, materialize_co2(slot, trace, train_mask, hasher)});
        break;
      }
      case InputSource::kSchedulePrior: {
        if (trace.channel_index(slot.channel)) {
          throw std::invalid_argument(
              "resolve_input_plan: derived channel id " +
              std::to_string(slot.channel) + " collides with a trace channel");
        }
        hasher.add(slot.schedule.on_minute());
        hasher.add(slot.schedule.off_minute());
        hasher.add(slot.occupied_level);
        hasher.add(slot.unoccupied_level);
        resolved.derived.push_back(
            {slot.channel, materialize_schedule(slot, trace)});
        break;
      }
    }
    resolved.channel_ids.push_back(slot.channel);
  }

  resolved.fingerprint = pure ? 0 : hasher.value();
  return resolved;
}

}  // namespace auditherm::sysid
