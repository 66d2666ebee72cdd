#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>

namespace wow {

/// A 160-bit unsigned integer living on the Brunet ring (mod 2^160).
///
/// Brunet orders P2P nodes on a structured ring by 160-bit addresses
/// (paper §IV-A, Figure 2).  RingId provides the modular arithmetic the
/// overlay needs: addition/subtraction mod 2^160, directed and undirected
/// ring distance, and "is x in the arc (a, b]" tests used by greedy
/// routing and ring stabilization.
///
/// Representation: five 32-bit limbs, little-endian (limb 0 is least
/// significant).  All operations are constant-time in the limb count.
class RingId {
 public:
  static constexpr int kBits = 160;
  static constexpr int kLimbs = 5;

  /// Zero id.
  constexpr RingId() = default;

  /// Construct from a small integer value.
  constexpr explicit RingId(std::uint64_t low) {
    limbs_[0] = static_cast<std::uint32_t>(low);
    limbs_[1] = static_cast<std::uint32_t>(low >> 32);
  }

  /// Construct from explicit limbs (little-endian).
  constexpr explicit RingId(const std::array<std::uint32_t, kLimbs>& limbs)
      : limbs_(limbs) {}

  /// Parse a 40-hex-digit string (most significant digit first).
  /// Shorter strings are allowed and are zero-extended on the left.
  [[nodiscard]] static std::optional<RingId> from_hex(std::string_view hex);

  /// The maximum id, 2^160 - 1.
  [[nodiscard]] static constexpr RingId max() {
    RingId r;
    r.limbs_.fill(0xffffffffu);
    return r;
  }

  /// 40-hex-digit representation, most significant first.
  [[nodiscard]] std::string to_hex() const;

  /// Short human-readable form (first 8 hex digits) for logs.  Written
  /// digit by digit into a short string: no printf, no heap, so it is
  /// cheap enough for per-packet records.
  [[nodiscard]] std::string brief() const;

  [[nodiscard]] constexpr const std::array<std::uint32_t, kLimbs>& limbs()
      const {
    return limbs_;
  }

  /// Addition mod 2^160.
  [[nodiscard]] constexpr RingId operator+(const RingId& o) const {
    RingId r;
    std::uint64_t carry = 0;
    for (int i = 0; i < kLimbs; ++i) {
      std::uint64_t s = static_cast<std::uint64_t>(limbs_[i]) + o.limbs_[i] +
                        carry;
      r.limbs_[i] = static_cast<std::uint32_t>(s);
      carry = s >> 32;
    }
    return r;
  }

  /// Subtraction mod 2^160.
  [[nodiscard]] constexpr RingId operator-(const RingId& o) const {
    RingId r;
    std::int64_t borrow = 0;
    for (int i = 0; i < kLimbs; ++i) {
      std::int64_t d = static_cast<std::int64_t>(limbs_[i]) -
                       static_cast<std::int64_t>(o.limbs_[i]) - borrow;
      borrow = d < 0 ? 1 : 0;
      if (d < 0) d += (std::int64_t{1} << 32);
      r.limbs_[i] = static_cast<std::uint32_t>(d);
    }
    return r;
  }

  /// Logical right shift by one bit (used to halve distances).
  [[nodiscard]] constexpr RingId shr1() const {
    RingId r;
    std::uint32_t carry = 0;
    for (int i = kLimbs - 1; i >= 0; --i) {
      r.limbs_[i] = (limbs_[i] >> 1) | (carry << 31);
      carry = limbs_[i] & 1u;
    }
    return r;
  }

  constexpr auto operator<=>(const RingId& o) const {
    for (int i = kLimbs - 1; i >= 0; --i) {
      if (limbs_[i] != o.limbs_[i]) {
        return limbs_[i] < o.limbs_[i] ? std::strong_ordering::less
                                       : std::strong_ordering::greater;
      }
    }
    return std::strong_ordering::equal;
  }
  constexpr bool operator==(const RingId& o) const = default;

  /// Distance traveling clockwise (increasing id) from this to `to`,
  /// i.e. (to - this) mod 2^160.
  [[nodiscard]] constexpr RingId clockwise_distance(const RingId& to) const {
    return to - *this;
  }

  /// Undirected ring distance: min of clockwise and counter-clockwise.
  [[nodiscard]] constexpr RingId ring_distance(const RingId& o) const {
    RingId cw = clockwise_distance(o);
    RingId ccw = o.clockwise_distance(*this);
    return cw < ccw ? cw : ccw;
  }

  /// True if this id lies in the half-open clockwise arc (from, to].
  /// When from == to the arc is the whole ring minus {from}... plus {to},
  /// i.e. everything (matching Chord-style conventions).
  [[nodiscard]] constexpr bool in_arc(const RingId& from,
                                      const RingId& to) const {
    if (from == to) return true;
    RingId arc = from.clockwise_distance(to);
    RingId off = from.clockwise_distance(*this);
    return off > RingId{} && off <= arc;
  }

  /// Approximate most-significant 64 bits (for hashing / bucketing).
  [[nodiscard]] constexpr std::uint64_t high64() const {
    return (static_cast<std::uint64_t>(limbs_[4]) << 32) | limbs_[3];
  }

  /// Approximate value as a double in [0, 2^160). Only for diagnostics.
  [[nodiscard]] double to_double() const;

 private:
  std::array<std::uint32_t, kLimbs> limbs_{};
};

struct RingIdHash {
  [[nodiscard]] std::size_t operator()(const RingId& id) const noexcept {
    // Mix all limbs; the ids we hash are uniformly random, but be robust
    // to structured ids (e.g. sequential test ids in the low limb).
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t limb : id.limbs()) {
      h ^= limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace wow
