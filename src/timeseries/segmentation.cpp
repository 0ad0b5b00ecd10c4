#include "auditherm/timeseries/segmentation.hpp"

#include <stdexcept>

namespace auditherm::timeseries {

std::vector<Segment> find_segments(const std::vector<bool>& mask,
                                   std::size_t min_length) {
  if (min_length == 0) {
    throw std::invalid_argument("find_segments: min_length must be >= 1");
  }
  std::vector<Segment> out;
  std::size_t k = 0;
  while (k < mask.size()) {
    if (!mask[k]) {
      ++k;
      continue;
    }
    std::size_t first = k;
    while (k < mask.size() && mask[k]) ++k;
    if (k - first >= min_length) out.push_back({first, k});
  }
  return out;
}

}  // namespace auditherm::timeseries
