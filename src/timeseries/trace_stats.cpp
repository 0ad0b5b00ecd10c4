#include "auditherm/timeseries/trace_stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "auditherm/core/parallel.hpp"

namespace auditherm::timeseries {

namespace {

/// Partners per kernel pass: one channel runs against a block of this many.
constexpr std::size_t kLanes = 4;

/// Channels of a view packed once, on the calling thread, for the pairwise
/// kernel. Channels are grouped in blocks of kLanes, and a block stores its
/// channels row by row: lane l of row k of block b sits at
/// [(b * rows + k) * kLanes + l], so one row's partner values are adjacent.
/// A sample is stored as its value with mask 1.0, a gap as 0.0 with mask
/// 0.0; lanes past the last channel are gaps.
struct Panel {
  std::size_t rows;
  std::size_t channels;
  std::size_t blocks;
  std::vector<double> values;
  std::vector<double> mask;

  Panel(const TraceView& trace, const std::vector<std::size_t>& columns)
      : rows(trace.size()),
        channels(columns.size()),
        blocks((columns.size() + kLanes - 1) / kLanes),
        values(blocks * rows * kLanes, 0.0),
        mask(blocks * rows * kLanes, 0.0) {
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t k = 0; k < rows; ++k) {
        const double v = trace.value(k, columns[c]);
        if (std::isnan(v)) continue;
        const std::size_t at = at_row(c, k);
        values[at] = v;
        mask[at] = 1.0;
      }
    }
  }

  /// Index of channel c's sample at row k.
  [[nodiscard]] std::size_t at_row(std::size_t c, std::size_t k) const {
    return ((c / kLanes) * rows + k) * kLanes + c % kLanes;
  }
};

/// The pair statistics the kernel computes, each from its own sums only.
enum class PairStat { kCorrelation, kCovariance, kRmsDistance, kMaxAbsDiff };

/// Statistic S of channel i against each channel of block b, over the rows
/// both channels of the pair hold.
///
/// A pair sums its rows in ascending order, as a per-pair walk over the
/// shared rows would. The rows it must skip still pass through the sums,
/// but as exact zeros: each factor is masked by the partner before anything
/// is squared or subtracted (a·m_b, then (a·m_b)·a; d = a·m_b − b·m_a), so a
/// missing partner turns a finite sample into ±0, and a running sum that
/// starts at +0 is unchanged by adding ±0. Squaring first and masking after
/// would not be: 1e200² is inf, and inf·0 is NaN.
template <PairStat S>
std::array<double, kLanes> block_stat(const Panel& panel, std::size_t i,
                                      std::size_t b) {
  const std::size_t a_at = panel.at_row(i, 0);
  const double* xa = panel.values.data() + a_at;
  const double* ma = panel.mask.data() + a_at;
  const double* xb = panel.values.data() + b * panel.rows * kLanes;
  const double* mb = panel.mask.data() + b * panel.rows * kLanes;
  std::array<double, kLanes> n{}, sa{}, sb{}, saa{}, sbb{}, sab{}, sd2{}, mx{};
  for (std::size_t k = 0; k < panel.rows; ++k) {
    const double a = xa[k * kLanes];
    const double am = ma[k * kLanes];
    const double* bk = xb + k * kLanes;
    const double* bmk = mb + k * kLanes;
    for (std::size_t l = 0; l < kLanes; ++l) {
      n[l] += am * bmk[l];
      if constexpr (S == PairStat::kCorrelation ||
                    S == PairStat::kCovariance) {
        const double a_b = a * bmk[l];
        const double b_a = bk[l] * am;
        sa[l] += a_b;
        sb[l] += b_a;
        sab[l] += a * bk[l];
        if constexpr (S == PairStat::kCorrelation) {
          saa[l] += a_b * a;
          sbb[l] += b_a * bk[l];
        }
      } else {
        const double d = a * bmk[l] - bk[l] * am;
        if constexpr (S == PairStat::kRmsDistance) {
          sd2[l] += d * d;
        } else {
          mx[l] = std::max(mx[l], std::abs(d));
        }
      }
    }
  }

  std::array<double, kLanes> out{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    if constexpr (S == PairStat::kCorrelation) {
      if (n[l] < 2.0) continue;
      const double cov = sab[l] - sa[l] * sb[l] / n[l];
      const double va = saa[l] - sa[l] * sa[l] / n[l];
      const double vb = sbb[l] - sb[l] * sb[l] / n[l];
      if (va <= 0.0 || vb <= 0.0) continue;
      out[l] = cov / std::sqrt(va * vb);
    } else if constexpr (S == PairStat::kCovariance) {
      if (n[l] < 2.0) continue;
      out[l] = (sab[l] - sa[l] * sb[l] / n[l]) / (n[l] - 1.0);
    } else if constexpr (S == PairStat::kRmsDistance) {
      out[l] = n[l] == 0.0 ? std::numeric_limits<double>::infinity()
                           : std::sqrt(sd2[l] / n[l]);
    } else {
      out[l] = n[l] == 0.0 ? std::numeric_limits<double>::quiet_NaN() : mx[l];
    }
  }
  return out;
}

/// Statistic S for every pair (i, j) of the given view columns with j > i
/// (j >= i with `diagonal`), written to the upper triangle of a
/// columns × columns matrix; the rest stays 0. A pool task takes one block
/// of four row channels and runs each against every later partner block in
/// turn, so a partner block is loaded once and read by four passes. Tasks
/// own whole output rows and allocate nothing, so the result is bitwise
/// identical at any thread count.
template <PairStat S>
linalg::Matrix upper_pair_matrix(const TraceView& trace,
                                 const std::vector<std::size_t>& columns,
                                 bool diagonal) {
  // The result is allocated before the panel, so the panel's freed space
  // is not left as a hole below it that the caller's next large buffer
  // cannot fit (that order measured +1.7 MB peak RSS on a 1024-sensor
  // analyze).
  linalg::Matrix out(columns.size(), columns.size());
  const Panel panel(trace, columns);
  const std::size_t p = panel.channels;
  const std::size_t grain = core::grain_for_cost(panel.rows * p * kLanes);
  core::parallel_for(0, panel.blocks, grain, [&](std::size_t row_block) {
    const std::size_t last = std::min(p, (row_block + 1) * kLanes);
    for (std::size_t b = row_block; b < panel.blocks; ++b) {
      for (std::size_t i = row_block * kLanes; i < last; ++i) {
        const std::size_t first = diagonal ? i : i + 1;
        if (first >= (b + 1) * kLanes) continue;  // no pair in this block
        const auto stat = block_stat<S>(panel, i, b);
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::size_t j = b * kLanes + l;
          if (j >= first && j < p) out(i, j) = stat[l];
        }
      }
    }
  });
  return out;
}

/// Copy the strict upper triangle of square `m` onto its lower triangle,
/// in 32×32 tiles so both sides of a tile stay in cache.
void mirror_upper(linalg::Matrix& m) {
  constexpr std::size_t kTile = 32;
  const std::size_t p = m.rows();
  for (std::size_t i0 = 0; i0 < p; i0 += kTile) {
    for (std::size_t j0 = 0; j0 <= i0; j0 += kTile) {
      for (std::size_t i = i0; i < std::min(i0 + kTile, p); ++i) {
        for (std::size_t j = j0; j < std::min(j0 + kTile, i); ++j) {
          m(i, j) = m(j, i);
        }
      }
    }
  }
}

std::vector<std::size_t> all_columns(const TraceView& trace) {
  std::vector<std::size_t> columns(trace.channel_count());
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return columns;
}

}  // namespace

linalg::Matrix correlation_matrix(const TraceView& trace) {
  auto r = upper_pair_matrix<PairStat::kCorrelation>(trace, all_columns(trace),
                                                     /*diagonal=*/false);
  mirror_upper(r);
  for (std::size_t i = 0; i < r.rows(); ++i) r(i, i) = 1.0;
  return r;
}

linalg::Matrix covariance_matrix(const TraceView& trace) {
  auto c = upper_pair_matrix<PairStat::kCovariance>(trace, all_columns(trace),
                                                    /*diagonal=*/true);
  mirror_upper(c);
  return c;
}

linalg::Matrix rms_distance_matrix(const TraceView& trace) {
  auto d = upper_pair_matrix<PairStat::kRmsDistance>(
      trace, all_columns(trace), /*diagonal=*/false);
  mirror_upper(d);
  return d;
}

linalg::Vector channel_means(const TraceView& trace) {
  const std::size_t p = trace.channel_count();
  linalg::Vector means(p, std::numeric_limits<double>::quiet_NaN());
  // Each channel scans the whole trace and has one writer.
  const std::size_t grain = core::grain_for_cost(trace.size() * 4);
  core::parallel_for(0, p, grain, [&](std::size_t c) {
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < trace.size(); ++k) {
      if (trace.valid(k, c)) {
        s += trace.value(k, c);
        ++n;
      }
    }
    if (n > 0) means[c] = s / static_cast<double>(n);
  });
  return means;
}

linalg::Vector pairwise_max_differences(const TraceView& trace,
                                        const std::vector<ChannelId>& ids) {
  std::vector<std::size_t> columns;
  columns.reserve(ids.size());
  for (const ChannelId id : ids) columns.push_back(trace.require_channel(id));
  const auto d = upper_pair_matrix<PairStat::kMaxAbsDiff>(trace, columns,
                                                          /*diagonal=*/false);
  linalg::Vector out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      if (!std::isnan(d(i, j))) out.push_back(d(i, j));
    }
  }
  return out;
}

}  // namespace auditherm::timeseries
