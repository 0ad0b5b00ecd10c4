#pragma once

/// \file gp_placement.hpp
/// Near-optimal sensor placement by greedy mutual-information maximization
/// under a Gaussian-process model (Krause, Singh & Guestrin, JMLR 2008) —
/// the statistical baseline the paper compares against in Table II.
///
/// At each step the algorithm adds the sensor y maximizing
///   sigma^2(y | A) / sigma^2(y | V \ A \ {y}),
/// i.e., most uncertain given the picks so far and most informative about
/// the rest. The GP covariance is the empirical covariance of the
/// training traces.

#include <cstddef>
#include <vector>

#include "auditherm/timeseries/multi_trace.hpp"

namespace auditherm::selection {

/// Choose `count` sensors from `candidates` by greedy MI maximization.
/// The covariance diagonal carries a relative jitter (1e-3 of its largest
/// entry, at least 1e-3) that keeps conditional variances well defined for
/// near-duplicate sensors. Throws std::invalid_argument when count == 0 or
/// count > #candidates, std::domain_error when the (jittered) covariance
/// is not positive definite.
[[nodiscard]] std::vector<timeseries::ChannelId> gp_mutual_information_selection(
    const timeseries::TraceView& training,
    const std::vector<timeseries::ChannelId>& candidates, std::size_t count);

}  // namespace auditherm::selection
