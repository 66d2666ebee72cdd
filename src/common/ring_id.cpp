#include "common/ring_id.h"

#include <cmath>

namespace wow {

namespace {

[[nodiscard]] int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Eight lowercase hex digits of `limb`, most significant first.
void put_hex(char* out, std::uint32_t limb) {
  constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 7; i >= 0; --i, limb >>= 4) out[i] = kDigits[limb & 0xf];
}

}  // namespace

std::optional<RingId> RingId::from_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 40) return std::nullopt;
  std::array<std::uint32_t, kLimbs> limbs{};
  // Walk from the least significant digit.
  int nibble = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it, ++nibble) {
    int v = hex_value(*it);
    if (v < 0) return std::nullopt;
    limbs[nibble / 8] |= static_cast<std::uint32_t>(v) << (4 * (nibble % 8));
  }
  return RingId{limbs};
}

std::string RingId::to_hex() const {
  std::string out(8 * kLimbs, '0');
  char* digits = out.data();
  // The most significant limb prints first.
  for (int i = kLimbs - 1; i >= 0; --i, digits += 8) put_hex(digits, limbs_[i]);
  return out;
}

std::string RingId::brief() const {
  // Eight characters fit the string's inline buffer: no heap.
  std::string out(8, '0');
  put_hex(out.data(), limbs_[kLimbs - 1]);
  return out;
}

double RingId::to_double() const {
  double v = 0.0;
  for (int i = kLimbs - 1; i >= 0; --i) {
    v = v * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return v;
}

}  // namespace wow
