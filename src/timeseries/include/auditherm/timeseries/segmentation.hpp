#pragma once

/// \file segmentation.hpp
/// Splitting a gapped trace into continuous sampling intervals.
///
/// The paper's identification objective (eq. 4) is a *piecewise* least
/// squares over "continuous sampling time intervals" [s_i, e_i]; these
/// helpers find those intervals from validity masks.

#include <cstddef>
#include <vector>

namespace auditherm::timeseries {

/// Half-open run of consecutive valid rows [first, last).
struct Segment {
  std::size_t first = 0;
  std::size_t last = 0;

  [[nodiscard]] std::size_t length() const noexcept { return last - first; }

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// Maximal runs of `true` in the mask, keeping only runs of at least
/// `min_length` rows. A model transition T(k) -> T(k+1) needs 2 rows, so
/// sysid passes min_length >= 2 (second-order models need >= 3).
[[nodiscard]] std::vector<Segment> find_segments(const std::vector<bool>& mask,
                                                 std::size_t min_length = 1);

}  // namespace auditherm::timeseries
