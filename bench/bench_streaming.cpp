// Streaming identification benchmark: incremental QR refits vs per-step
// batch refits over the standard 98-day trace, a growing window over the
// whole trace against one batch fit, plus drift detection on a
// scenario-generated regime switch. Writes BENCH_streaming.json with the
// CI perf-smoke gates: speedup_98d, max_param_diff, growing_agreement_ok,
// and the two drift booleans.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace auditherm;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Largest parameter difference between two models; NaN when any
/// difference is NaN.
double max_model_diff(const sysid::ThermalModel& x,
                      const sysid::ThermalModel& y) {
  double diff = 0.0;
  const auto acc = [&](const linalg::Matrix& a, const linalg::Matrix& b) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        diff = bench::max_nan(diff, std::abs(a(i, j) - b(i, j)));
      }
    }
  };
  acc(x.a(), y.a());
  acc(x.a2(), y.a2());
  acc(x.b(), y.b());
  return diff;
}

/// Concatenate two scenario traces (same building, same channels) into one
/// stream — the fleet-scale "season flipped mid-deployment" case the drift
/// detector exists for.
timeseries::MultiTrace concatenate(
    const timeseries::MultiTrace& first, const timeseries::MultiTrace& second,
    const std::vector<timeseries::ChannelId>& channels) {
  const timeseries::TraceView a(first);
  const timeseries::TraceView b(second);
  timeseries::MultiTrace out(
      timeseries::TimeGrid(first.grid().start(), first.grid().step(),
                           a.size() + b.size()),
      channels);
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const std::size_t ca = a.require_channel(channels[c]);
    const std::size_t cb = b.require_channel(channels[c]);
    for (std::size_t k = 0; k < a.size(); ++k) {
      out.set(k, c, a.value(k, ca));
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      out.set(a.size() + k, c, b.value(k, cb));
    }
  }
  return out;
}

}  // namespace

int main() {
  const bench::ObsSession obs_session;
  bench::print_header(
      "Streaming identification: incremental QR vs batch refits");

  // ---- Part 1: per-step refit cost over the paper's 98-day trace. ----
  const auto dataset = bench::make_standard_dataset();
  const timeseries::TraceView view(dataset.trace);
  const auto states = dataset.thermostat_ids();
  const auto inputs = dataset.input_ids();
  const std::size_t window = 336;  // 7 days at 30-minute sampling
  std::printf("trace: %zu rows, %zu states, %zu inputs, window %zu rows\n",
              view.size(), states.size(), inputs.size(), window);

  sysid::StreamingOptions stream_opts;
  stream_opts.window_rows = window;
  stream_opts.drift.enabled = false;  // timed separately below

  // Incremental pass: push every row, re-solve whenever a model exists —
  // the "fresh parameters after every sample" deployment loop. Min of 3
  // repetitions on both sides to tame single-core scheduling noise.
  constexpr int kReps = 3;
  std::vector<std::size_t> solved_rows;
  std::vector<sysid::ThermalModel> streamed_models;
  linalg::Vector srow(states.size()), irow(inputs.size());
  std::vector<std::size_t> state_cols, input_cols;
  for (const auto id : states) state_cols.push_back(view.require_channel(id));
  for (const auto id : inputs) input_cols.push_back(view.require_channel(id));

  sysid::StreamingStats final_stats;
  double incremental_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    sysid::StreamingEstimator streaming(states, inputs,
                                        sysid::ModelOrder::kSecond,
                                        stream_opts);
    solved_rows.clear();
    streamed_models.clear();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < view.size(); ++k) {
      for (std::size_t i = 0; i < state_cols.size(); ++i) {
        srow[i] = view.value(k, state_cols[i]);
      }
      for (std::size_t i = 0; i < input_cols.size(); ++i) {
        irow[i] = view.value(k, input_cols[i]);
      }
      streaming.push(srow, irow);
      if (k >= window && streaming.has_model()) {
        const sysid::ThermalModel& m = streaming.model();
        if (k % 48 == 0) {  // one snapshot per day for the agreement check
          solved_rows.push_back(k);
          streamed_models.push_back(m);
        }
      }
    }
    const double ms = ms_since(t0);
    if (rep == 0 || ms < incremental_ms) incremental_ms = ms;
    final_stats = streaming.stats();
  }

  // Batch pass: the pre-existing path — refactorize the window regression
  // from scratch at the same rows.
  const sysid::ModelEstimator batch(states, inputs,
                                    sysid::ModelOrder::kSecond);
  std::size_t batch_fits = 0;
  double batch_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    batch_fits = 0;
    const auto t0 = Clock::now();
    for (std::size_t k = window; k < view.size(); ++k) {
      const auto slice = view.slice_rows(k + 1 - window, k + 1);
      if (batch.summarize(slice).transitions <
          std::max<std::size_t>(
              4 * (2 * states.size() + inputs.size()), 8)) {
        continue;
      }
      const auto model = batch.fit(slice);
      ++batch_fits;
      (void)model;
    }
    const double ms = ms_since(t0);
    if (rep == 0 || ms < batch_ms) batch_ms = ms;
  }
  const double speedup =
      incremental_ms > 0.0 ? batch_ms / incremental_ms : 0.0;

  // Agreement: re-fit only the daily snapshots and diff parameters.
  double max_param_diff = 0.0;
  for (std::size_t i = 0; i < solved_rows.size(); ++i) {
    const std::size_t k = solved_rows[i];
    const auto model = batch.fit(view.slice_rows(k + 1 - window, k + 1));
    max_param_diff = bench::max_nan(max_param_diff,
                                    max_model_diff(streamed_models[i], model));
  }
  const bool agree = max_param_diff <= 1e-8 && !solved_rows.empty();
  std::printf(
      "incremental %8.1f ms   batch %8.1f ms (%zu refits)   "
      "speedup %6.1fx\n",
      incremental_ms, batch_ms, batch_fits, speedup);
  std::printf("per-window agreement over %zu snapshots: max diff %.3g (%s)\n",
              solved_rows.size(), max_param_diff, agree ? "ok" : "FAIL");

  // Growing window: every transition of the trace folded into one factor
  // by Givens appends alone, which never re-anchors, must still match one
  // batch fit of the whole trace.
  sysid::StreamingOptions growing_opts;
  growing_opts.drift.enabled = false;
  double growing_diff = 0.0;
  for (const auto order :
       {sysid::ModelOrder::kFirst, sysid::ModelOrder::kSecond}) {
    sysid::StreamingEstimator growing(states, inputs, order, growing_opts);
    growing.push_trace(view);
    const auto whole = sysid::ModelEstimator(states, inputs, order).fit(view);
    growing_diff =
        bench::max_nan(growing_diff, max_model_diff(growing.model(), whole));
  }
  const bool growing_agree = growing_diff <= 1e-8;
  std::printf("growing window vs whole-trace batch fit: max diff %.3g (%s)\n",
              growing_diff, growing_agree ? "ok" : "FAIL");

  // ---- Part 2: drift detection on a scenario regime switch. ----
  // 8 paper-preset days followed by 8 summer fixed-supply days of the same
  // hall: the AHU discharge behavior changes (a genuine B-matrix shift —
  // supply temperature is not an input channel), so the detector must fire
  // at the splice and stay silent on a 16-day stationary paper run.
  sim::ScenarioSpec before;
  before.name = "drift-before";
  before.days = 8;
  before.failure_days = 0;
  before.dropout = 0.0;
  sim::ScenarioSpec after = before;
  after.name = "drift-after";
  after.season = sim::Season::kSummer;
  after.hvac = sim::HvacRegime::kFixedSupply;

  const auto run_before = sim::run_scenario(before);
  const auto run_after = sim::run_scenario(after);
  std::vector<timeseries::ChannelId> drift_channels = states;
  drift_channels.insert(drift_channels.end(), inputs.begin(), inputs.end());
  const auto switched =
      concatenate(run_before.trace, run_after.trace, drift_channels);
  const std::size_t switch_row = run_before.trace.grid().size();

  sysid::StreamingOptions drift_opts;
  drift_opts.window_rows = 240;  // 5 days
  sysid::StreamingEstimator detector(states, inputs,
                                     sysid::ModelOrder::kSecond, drift_opts);
  detector.push_trace(timeseries::TraceView(switched));
  const auto& events = detector.drift_events();
  const bool fired = !events.empty() && events.front().row >= switch_row &&
                     events.front().row < switch_row + 96;
  std::printf("regime switch at row %zu: %zu drift event(s)%s\n", switch_row,
              events.size(), fired ? "" : " (FAIL)");
  for (const auto& e : events) {
    std::printf("  row %zu, %.1f sigma, direction %+.0f\n", e.row,
                e.statistic, e.direction);
  }

  sim::ScenarioSpec stationary = before;
  stationary.name = "drift-stationary";
  stationary.days = 16;
  const auto run_stationary = sim::run_scenario(stationary);
  sysid::StreamingEstimator quiet(states, inputs, sysid::ModelOrder::kSecond,
                                  drift_opts);
  quiet.push_trace(timeseries::TraceView(run_stationary.trace));
  const bool silent = quiet.drift_events().empty();
  std::printf("stationary paper run: %zu drift event(s)%s\n",
              quiet.drift_events().size(), silent ? "" : " (FAIL)");

  auto json = bench::artifact("streaming", core::thread_count());
  json.add("rows", view.size());
  json.add("window_rows", window);
  json.add("incremental_ms", incremental_ms);
  json.add("batch_ms", batch_ms);
  json.add("batch_refits", batch_fits);
  json.add("speedup_98d", speedup);
  json.add("agreement_snapshots", solved_rows.size());
  json.add("max_param_diff", max_param_diff);
  json.add("batch_agreement_ok", agree);
  json.add("qr_updates", final_stats.transitions);
  json.add("growing_max_param_diff", growing_diff);
  json.add("growing_agreement_ok", growing_agree);
  json.add("drift_switch_row", switch_row);
  json.add("drift_events_on_switch", events.size());
  json.add("drift_first_event_row",
           events.empty() ? std::size_t{0} : events.front().row);
  json.add("drift_fired_on_switch", fired);
  json.add("drift_events_stationary", quiet.drift_events().size());
  json.add("drift_silent_on_paper", silent);
  if (!bench::write_artifact(json, "BENCH_streaming.json")) return 1;
  return agree && growing_agree && speedup > 5.0 && fired && silent ? 0 : 1;
}
