#pragma once

/// \file stage_key.hpp
/// The structural hasher behind every cache key: the stage cache's keys
/// (stage_cache.hpp) and the input-plan fingerprints that fold into them
/// (sysid/input_plan.hpp). Header-only, so layers below core reach it
/// through the core include directory that auditherm::parallel exports.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace auditherm::core {

/// Incremental FNV-1a (64-bit) over the structural content of cache-key
/// inputs. Not cryptographic — keys are a memoization address, not a
/// security boundary.
class StageKeyHasher {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= kFnvPrime;
    }
    state_ = h;
  }
  void add(std::uint64_t v) noexcept { add_bytes(&v, sizeof(v)); }
  void add(std::int64_t v) noexcept { add(static_cast<std::uint64_t>(v)); }
  void add(int v) noexcept { add(static_cast<std::int64_t>(v)); }
  void add(bool v) noexcept { add(static_cast<std::uint64_t>(v ? 1 : 2)); }
  /// Doubles hash by bit pattern; NaNs collapse to one sentinel so every
  /// gap encoding keys identically.
  void add(double v) noexcept {
    add(std::isnan(v) ? kNanSentinel : std::bit_cast<std::uint64_t>(v));
  }
  void add(std::string_view s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    add_bytes(s.data(), s.size());
  }
  void add(const std::vector<bool>& mask) noexcept {
    add(static_cast<std::uint64_t>(mask.size()));
    std::uint64_t word = 0;
    std::size_t filled = 0;
    for (bool b : mask) {
      word = (word << 1) | (b ? 1u : 0u);
      if (++filled == 64) {
        add(word);
        word = 0;
        filled = 0;
      }
    }
    if (filled > 0) add(word);
  }
  void add(const std::vector<int>& v) noexcept {
    add(static_cast<std::uint64_t>(v.size()));
    for (int x : v) add(x);
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
  /// All NaN payloads key identically: a gap is a gap.
  static constexpr std::uint64_t kNanSentinel = 0x7ff8dead00000000ull;

  std::uint64_t state_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

}  // namespace auditherm::core
