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
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

namespace auditherm::core {

/// Incremental hasher over the structural content of cache-key inputs.
/// Every add() reduces its argument to one 64-bit digest and folds it into
/// the state with one multiply-fold, in call order; value() avalanches the
/// state. A span of 32 bytes or more is read a word at a time through four
/// independent 64-bit multiply-rotate lanes, so long inputs (a trace file,
/// a trace's samples) hash at several bytes per cycle. Not cryptographic —
/// keys are a memoization address, not a security boundary.
class StageKeyHasher {
 public:
  void add_bytes(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    const std::size_t words = size / 8;
    std::uint64_t tail = 0;
    if (size % 8 != 0) std::memcpy(&tail, bytes + words * 8, size % 8);
    add(digest(
        words, [bytes](std::size_t i) { return load(bytes + 8 * i); }, tail,
        size));
  }
  void add(std::uint64_t v) noexcept { state_ = fold(state_ ^ v, kFold); }
  void add(std::int64_t v) noexcept { add(static_cast<std::uint64_t>(v)); }
  void add(int v) noexcept { add(static_cast<std::int64_t>(v)); }
  void add(bool v) noexcept { add(static_cast<std::uint64_t>(v ? 1 : 2)); }
  /// Doubles hash by bit pattern; NaNs collapse to one sentinel so every
  /// gap encoding keys identically.
  void add(double v) noexcept { add(bits(v)); }
  /// A run of doubles, each read as add(double) reads it, through the
  /// lanes.
  void add(std::span<const double> values) noexcept {
    add(digest(
        values.size(), [values](std::size_t i) { return bits(values[i]); },
        0, values.size() * sizeof(double)));
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

  /// The state through a final avalanche (murmur3's fmix64).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t h = state_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

 private:
  /// All NaN payloads key identically: a gap is a gap.
  static constexpr std::uint64_t kNanSentinel = 0x7ff8dead00000000ull;
  // Odd 64-bit multipliers (xxHash64's primes).
  static constexpr std::uint64_t kFold = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kLane = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kTail = 0x165667b19e3779f9ull;

  static std::uint64_t bits(double v) noexcept {
    return std::isnan(v) ? kNanSentinel : std::bit_cast<std::uint64_t>(v);
  }
  static std::uint64_t load(const unsigned char* p) noexcept {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
  }
  /// The 128-bit product's two halves, xored.
  static std::uint64_t fold(std::uint64_t a, std::uint64_t b) noexcept {
    __extension__ typedef unsigned __int128 Wide;
    const Wide p = static_cast<Wide>(a) * b;
    return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
  }
  /// One lane step: each is a bijection of the lane for a fixed word and
  /// of the word for a fixed lane, so one changed word changes its lane.
  static std::uint64_t lane_step(std::uint64_t lane,
                                 std::uint64_t word) noexcept {
    return std::rotl(lane + word * kLane, 31) * kFold;
  }
  /// Digest of `words` 64-bit words (`word(i)` reads one), then the 0-7
  /// tail bytes and the byte length.
  template <typename Word>
  static std::uint64_t digest(std::size_t words, Word word, std::uint64_t tail,
                              std::size_t size) noexcept {
    std::uint64_t h = fold(size, kTail);
    std::size_t i = 0;
    if (words >= 4) {
      std::uint64_t l0 = kFold + kLane, l1 = kLane, l2 = 0, l3 = 0 - kFold;
      for (; i + 4 <= words; i += 4) {
        l0 = lane_step(l0, word(i));
        l1 = lane_step(l1, word(i + 1));
        l2 = lane_step(l2, word(i + 2));
        l3 = lane_step(l3, word(i + 3));
      }
      h = fold(h ^ l0, kFold);
      h = fold(h ^ l1, kFold);
      h = fold(h ^ l2, kFold);
      h = fold(h ^ l3, kFold);
    }
    for (std::size_t j = 0; j < words % 4; ++j, ++i) {
      h = fold(h ^ word(i), kLane);
    }
    return fold(h ^ tail, kTail);
  }

  std::uint64_t state_ = 0x27d4eb2f165667c5ull;
};

}  // namespace auditherm::core
