#pragma once

/// \file streaming.hpp
/// Online identification of thermal models from live sample streams.
///
/// The batch estimator (estimator.hpp) refactorizes the full regression on
/// every call — O(N p^2) per refit. StreamingEstimator instead keeps the
/// window as two stacks of Givens-updated QR factorizations
/// (linalg::UpdatableQr), the Two-Stacks sliding-window aggregation: a
/// back factor appends every arriving transition; a front stack holds
/// suffix factors of the older rows, rebuilt newest first from the
/// buffered rows whenever a row must leave and the front is empty; an
/// eviction pops one suffix. That is amortized O(p^2) per sample with only
/// orthogonal rotations, and each window model — the front top merged
/// with the back — matches a fresh batch fit to <= 1e-8. On top of the
/// residual stream sits a two-sided CUSUM change-point detector that flags
/// plant drift (season change, HVAC fault) — the piece that turns the
/// paper's replay pipeline into something deployable against a live
/// auditorium.
///
/// Determinism contract: every result depends only on the pushed sample
/// sequence and the options — never on the thread count or on which
/// accessors the caller happens to invoke between pushes.

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "auditherm/linalg/decompositions.hpp"
#include "auditherm/sysid/estimator.hpp"
#include "auditherm/sysid/model.hpp"
#include "auditherm/timeseries/trace_view.hpp"

namespace auditherm::sysid {

/// Residual-CUSUM change-point detection: a two-sided CUSUM over the
/// normalized one-step residuals (RMS over the state channels) of a
/// periodically re-solved reference model. After an event the detector
/// re-calibrates from scratch, so a persistent regime change fires
/// exactly once. Its tuning is fixed (streaming.cpp); only the switch is
/// an option.
struct DriftDetectorOptions {
  bool enabled = true;
};

/// One detected change point.
struct DriftEvent {
  /// Source-row index (push count at the time) of the transition that
  /// tripped the threshold.
  std::size_t row = 0;
  /// The CUSUM statistic at firing, in sigma units.
  double statistic = 0.0;
  /// +1 when residuals grew (plant drifted away from the model), -1 when
  /// they shrank (e.g. a noisy regime ended).
  double direction = 0.0;
};

/// StreamingEstimator configuration.
struct StreamingOptions {
  /// Ridge settings, shared with the batch estimator so window fits are
  /// comparable.
  EstimationOptions estimation;
  /// Sliding-window length in source rows; 0 selects growing-window mode
  /// (never forget). Must be at least history+2 rows when non-zero, else
  /// no transition could ever fit inside the window.
  std::size_t window_rows = 0;
  DriftDetectorOptions drift;
};

/// Counters describing what the estimator has done so far; cheap to copy.
struct StreamingStats {
  std::size_t rows_pushed = 0;  ///< samples seen (valid or not)
  std::size_t transitions = 0;  ///< transitions that entered the window
};

/// Online sliding-/growing-window identification with drift detection.
///
/// Usage: construct with the same channel lists and order as a
/// ModelEstimator, then push one sample row at a time (NaN marks a missing
/// value — transitions spanning a gap are skipped exactly like the batch
/// estimator's segment mask). model() returns the current window fit;
/// drift_events() accumulates detected change points.
class StreamingEstimator {
 public:
  /// Throws std::invalid_argument on empty channel lists, negative ridge,
  /// or a non-zero window shorter than history + 2 rows.
  StreamingEstimator(std::vector<timeseries::ChannelId> state_ids,
                     std::vector<timeseries::ChannelId> input_ids,
                     ModelOrder order, StreamingOptions options = {});

  /// Push one sample row: `states` has one entry per state channel,
  /// `inputs` one per input channel, NaN = missing. O(p^2).
  /// Throws std::invalid_argument on size mismatch.
  void push(const linalg::Vector& states, const linalg::Vector& inputs);

  /// Push every row of `trace` in order. The trace must contain all state
  /// and input channels; `row_filter`, when non-empty, must match
  /// trace.size() and excluded rows count as gaps (the batch estimator's
  /// mode-mask semantics).
  void push_trace(const timeseries::TraceView& trace,
                  const std::vector<bool>& row_filter = {});

  [[nodiscard]] const StreamingStats& stats() const noexcept { return stats_; }

  /// Transitions currently inside the window.
  [[nodiscard]] std::size_t window_transitions() const noexcept {
    return window_.size();
  }

  /// True once the window holds at least the batch estimator's minimum
  /// transition count, min_transitions().
  [[nodiscard]] bool has_model() const noexcept;

  /// The model identified from the current window; matches a batch
  /// ModelEstimator::fit over the same rows to <= 1e-8 per parameter.
  /// Throws std::runtime_error when has_model() is false.
  [[nodiscard]] const ThermalModel& model() const;

  /// Akaike information criterion of the current window fit, pooled over
  /// the state channels: m p ln(RSS / (m p)) + 2 (#parameters), where RSS
  /// sums the squared one-step residuals of model() over the window's m
  /// transitions (diagnose_fit's residual definition), so it depends on
  /// the window alone. Compare across orders for online structure
  /// selection (the ARMAX/NMI information-criterion idea, arXiv
  /// 2006.06088). Throws like model().
  [[nodiscard]] double aic() const;

  /// Change points detected so far, in firing order.
  [[nodiscard]] const std::vector<DriftEvent>& drift_events() const noexcept {
    return drift_events_;
  }

  /// The larger of the two one-sided CUSUM statistics right now.
  [[nodiscard]] double cusum_statistic() const noexcept;

  [[nodiscard]] ModelOrder order() const noexcept { return order_; }

 private:
  struct TransitionRow {
    std::size_t target = 0;        ///< source-row index of T(k+1)
    std::vector<double> z, y;      ///< regressor and target rows
  };

  void evict_aged(std::size_t newest_row);
  void fold_transition(TransitionRow row);
  /// Two-Stacks flip: refold every buffered row, newest first, into the
  /// front stack's suffix factors and empty the back factor.
  void rebuild_front();
  void observe_residual(const TransitionRow& row);
  /// Squared one-step residual of `row` under `theta`, summed over states.
  [[nodiscard]] double squared_residual(const linalg::Matrix& theta,
                                        const TransitionRow& row) const;
  [[nodiscard]] linalg::Matrix solve_theta() const;

  std::vector<timeseries::ChannelId> state_ids_;
  std::vector<timeseries::ChannelId> input_ids_;
  ModelOrder order_;
  StreamingOptions options_;
  std::size_t history_ = 1;   ///< rows of history a transition needs
  std::size_t n_params_ = 0;  ///< regressor columns per output

  /// The window's rows, oldest first. The oldest `front_rows_` of them are
  /// factored by the front stack, the rest by `back_`.
  std::deque<TransitionRow> window_;
  linalg::UpdatableQr back_;
  /// front_[i] factors the front rows from the (i+1)-th newest to the
  /// newest; the top is front_[front_rows_ - 1]. Entries past front_rows_
  /// keep their storage for the next rebuild.
  std::vector<linalg::UpdatableQr> front_;
  std::size_t front_rows_ = 0;
  StreamingStats stats_;

  // Row history ring: values of the most recent `history_` rows.
  std::deque<std::vector<double>> recent_states_;
  std::deque<std::vector<double>> recent_inputs_;
  std::size_t consec_valid_ = 0;  ///< valid-row run ending at the last push

  // Lazily solved window model (invalidated by every fold/evict).
  mutable std::optional<ThermalModel> cached_model_;

  // Drift detector state. The reference model refreshes on an
  // append-count cadence only — never from caller accessor calls — so
  // detection is deterministic for a given push sequence.
  std::optional<linalg::Matrix> drift_theta_;
  std::size_t since_drift_refit_ = 0;
  std::size_t drift_refits_ = 0;  ///< reference models solved so far
  std::size_t calib_count_ = 0;
  double calib_mean_ = 0.0;
  double calib_m2_ = 0.0;
  double base_mean_ = 0.0;
  double base_std_ = 0.0;
  bool armed_ = false;
  double cusum_pos_ = 0.0;
  double cusum_neg_ = 0.0;
  std::vector<DriftEvent> drift_events_;
};

}  // namespace auditherm::sysid
