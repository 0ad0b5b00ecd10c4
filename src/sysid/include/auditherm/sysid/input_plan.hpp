#pragma once

/// \file input_plan.hpp
/// Pluggable input sources for the identification input block u(k).
///
/// The paper identifies reduced models from u(k) = [h; o; l; w] with
/// ground-truth occupancy o(k) — a luxury no deployed building has. An
/// InputPlan replaces the raw `input_ids` convention: each slot declares
/// where its column comes from —
///
///   * ground_truth(channel)    — read the trace channel literally,
///   * co2_estimated(...)       — invert the CO2 mass balance with a
///                                Co2OccupancyEstimator calibrated on the
///                                training split only,
///   * schedule_prior(schedule) — a two-level occupancy prior from the
///                                HVAC operating schedule,
///
/// and resolution materializes each non-ground-truth slot once per run as
/// a derived TraceView column (indexed by source row, so every downstream
/// row subset reads it through the unchanged view machinery). A plan
/// containing only ground-truth slots resolves to the original channel
/// ids with no derived columns and a zero fingerprint — byte-identical
/// behavior to the pre-plan code everywhere.
///
/// The fingerprint is the cache-key contribution: it folds the plan
/// structure, every option, and — for CO2 estimation — the calibrated
/// parameter bit patterns, so stage-cache entries (spectra, fits) can
/// never alias across input sources or calibrations.

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "auditherm/hvac/schedule.hpp"
#include "auditherm/sysid/occupancy_estimation.hpp"
#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::sysid {

/// Where one input slot's column comes from.
enum class InputSource {
  kGroundTruth,    ///< read the trace channel literally
  kCo2Estimated,   ///< CO2 mass-balance occupancy estimate
  kSchedulePrior,  ///< two-level prior from the HVAC schedule
};

/// Channel id a derived estimated-occupancy column is published under.
/// Ids 100-199 are the reserved modality band (see DatasetChannels);
/// 150+ is carved out for derived input-plan columns.
inline constexpr timeseries::ChannelId kEstimatedOccupancyChannel = 150;
/// Channel id a derived schedule-prior column is published under.
inline constexpr timeseries::ChannelId kSchedulePriorChannel = 151;

/// One slot of the input block: a source plus its options.
struct InputSlot {
  InputSource source = InputSource::kGroundTruth;
  /// Ground truth: the trace channel to read. Derived sources: the id the
  /// materialized column is published under (must not collide with an
  /// existing trace channel).
  timeseries::ChannelId channel = 0;

  // --- co2_estimated options ---------------------------------------------
  Co2Channels co2;
  /// Round the estimate to the nearest whole occupant.
  bool round_to_integer = false;
  /// Clamp the estimate from above (NaN = no upper clamp).
  double clamp_max = std::numeric_limits<double>::quiet_NaN();

  // --- schedule_prior options --------------------------------------------
  hvac::Schedule schedule;
  double occupied_level = 1.0;
  double unoccupied_level = 0.0;

  [[nodiscard]] static InputSlot ground_truth(timeseries::ChannelId channel);
  [[nodiscard]] static InputSlot co2_estimated(
      Co2Channels co2 = {},
      timeseries::ChannelId channel = kEstimatedOccupancyChannel);
  [[nodiscard]] static InputSlot schedule_prior(
      hvac::Schedule schedule = {}, double occupied_level = 1.0,
      double unoccupied_level = 0.0,
      timeseries::ChannelId channel = kSchedulePriorChannel);
};

/// An ordered list of input slots; resolves to the identification input
/// ids in the same order.
struct InputPlan {
  std::vector<InputSlot> slots;

  /// True when every slot is ground truth (resolution is a no-op).
  [[nodiscard]] bool pure_ground_truth() const noexcept;
};

/// A resolved plan: final channel ids, materialized derived columns, and
/// the cache-key fingerprint. Derived columns are shared_ptr-owned so
/// artifacts holding an augmented view keep them alive.
struct ResolvedInputPlan {
  /// One materialized derived column.
  struct DerivedColumn {
    timeseries::ChannelId id = 0;
    std::shared_ptr<const linalg::Vector> column;
  };

  /// Input channel ids in slot order (ground-truth ids verbatim, derived
  /// ids as declared by their slots).
  std::vector<timeseries::ChannelId> channel_ids;
  std::vector<DerivedColumn> derived;
  /// 0 for a pure ground-truth plan; otherwise folds the plan structure,
  /// options, and calibrated estimator parameters (the calibration
  /// fingerprint). Fold into stage keys unconditionally: ground-truth
  /// runs hash an unchanged 0, so their keys — and golden pins — stay
  /// bitwise identical.
  std::uint64_t fingerprint = 0;

  /// True when resolution changed nothing (no derived columns).
  [[nodiscard]] bool pure_ground_truth() const noexcept {
    return derived.empty();
  }

  /// Attach every derived column to `base` (a view whose row count equals
  /// the source trace the plan was resolved against). Returns `base`
  /// unchanged for pure ground-truth plans.
  [[nodiscard]] timeseries::TraceView augment(
      const timeseries::TraceView& base) const;
};

/// Resolve `plan` against the full `trace`: calibrate CO2 estimation on
/// the rows `train_mask` selects (training split only — validation rows
/// never leak into calibration), materialize each derived column over all
/// rows, and compute the fingerprint. `trace` must be the full un-sliced
/// view (derived columns are indexed by its rows); train_mask.size() must
/// equal trace.size(). Throws std::invalid_argument for bad plans (empty,
/// duplicate/colliding channel ids, unknown ground-truth channels) and
/// propagates calibration errors (e.g. too few usable transitions).
[[nodiscard]] ResolvedInputPlan resolve_input_plan(
    const InputPlan& plan, const timeseries::TraceView& trace,
    const std::vector<bool>& train_mask);

}  // namespace auditherm::sysid
