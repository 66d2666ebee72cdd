#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ring_id.h"

namespace wow {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Ref-counted immutable-by-default byte buffer.  A datagram travelling
/// the simulated network — and a routed frame travelling the overlay's
/// forwarding path — is one SharedBytes handed from stage to stage, so a
/// multi-hop route costs one allocation at the origin instead of one
/// copy per hop.
///
/// Mutation goes through mutable_data(), which clones the buffer first
/// when other references exist (copy-on-write).  That keeps the in-place
/// header rewrites of packet forwarding safe even when a frame has been
/// fanned out (ring-gap bounce) or is still queued for a deferred
/// delivery event.
class SharedBytes {
 public:
  SharedBytes() = default;
  explicit SharedBytes(Bytes bytes)
      : buf_(std::make_shared<Bytes>(std::move(bytes))) {}

  [[nodiscard]] const std::uint8_t* data() const {
    return buf_ ? buf_->data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const { return buf_ ? buf_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] BytesView view() const { return {data(), size()}; }
  operator BytesView() const { return view(); }  // NOLINT

  /// True when this is the only reference (in-place mutation is safe).
  [[nodiscard]] bool unique() const { return buf_ && buf_.use_count() == 1; }

  /// Writable pointer to the buffer; clones it first if shared.
  [[nodiscard]] std::uint8_t* mutable_data() {
    if (!buf_) return nullptr;
    if (buf_.use_count() != 1) buf_ = std::make_shared<Bytes>(*buf_);
    return buf_->data();
  }

  /// Materialize an owned copy (handlers that must outlive the frame).
  [[nodiscard]] Bytes to_bytes() const {
    return buf_ ? *buf_ : Bytes{};
  }

 private:
  std::shared_ptr<Bytes> buf_;
};

/// The encoder-side length guard: true when `size` is at most `max`.
/// A longer input is refused loudly, with one stderr line naming
/// `what`, never framed under a truncated length field (which would
/// desynchronize every reader downstream).
[[nodiscard]] inline bool length_fits(const char* what, std::size_t size,
                                      std::size_t max) {
  if (size <= max) return true;
  std::fprintf(stderr, "wow: %s rejected %zu bytes (max %zu)\n", what, size,
               max);
  return false;
}

/// Serializer writing big-endian (network order) fields into a growable
/// buffer.  Every on-the-wire message in the overlay is produced through
/// this writer so framing stays consistent across modules.
class ByteWriter {
 public:
  /// Largest byte string a u16 length prefix can carry.  str() and the
  /// IPOP and vtcp header writers refuse anything longer (length_fits).
  static constexpr std::size_t kMaxLenPrefixed = 0xffff;

  /// Pre-size the buffer: serialize() implementations know their frame
  /// size up front, so a single reservation replaces the push_back
  /// doubling dance.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8) {
      buf_.push_back(static_cast<std::uint8_t>(v >> s));
    }
  }

  void u64(std::uint64_t v) {
    for (int s = 56; s >= 0; s -= 8) {
      buf_.push_back(static_cast<std::uint8_t>(v >> s));
    }
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void ring_id(const RingId& id) {
    // Most significant limb first.
    for (int i = RingId::kLimbs - 1; i >= 0; --i) u32(id.limbs()[i]);
  }

  void raw(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Length-prefixed (u16) UTF-8 string.  Oversize input is refused:
  /// an empty string is written, so a caller refuses such input first.
  void str(std::string_view s) {
    if (!length_fits("ByteWriter::str", s.size(), kMaxLenPrefixed)) {
      u16(0);
      return;
    }
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Big-endian writer over a region the caller has already sized: a
/// header claimed from a FrameBuf, or the fields a forwarding hop
/// rewrites in a received frame.  The in-place counterpart of
/// ByteWriter; it never allocates and never checks bounds.
class HeaderWriter {
 public:
  explicit HeaderWriter(std::uint8_t* out) : out_(out) {}

  void u8(std::uint8_t v) { *out_++ = v; }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// Most significant limb first, as ByteWriter::ring_id.
  void ring_id(const RingId& id) {
    for (int i = RingId::kLimbs - 1; i >= 0; --i) {
      u32(id.limbs()[static_cast<std::size_t>(i)]);
    }
  }

 private:
  std::uint8_t* out_;
};

/// An outgoing frame built back to front, the sk_buff/mbuf headroom
/// idea.  The payload is copied in once, behind spare headroom; each
/// layer below then claims its header in front of the current head with
/// push() and writes it in place.  Once the outermost header is written
/// the buffer is the wire frame, so no layer copies the payload again.
class FrameBuf {
 public:
  FrameBuf(std::size_t headroom, BytesView payload) : head_(headroom) {
    buf_.reserve(headroom + payload.size());
    buf_.resize(headroom);
    buf_.insert(buf_.end(), payload.begin(), payload.end());
  }

  /// Claim `n` header bytes in front of the current head.  A frame
  /// built with too little headroom grows at the front, which moves
  /// its content once.
  [[nodiscard]] std::uint8_t* push(std::size_t n) {
    if (n > head_) {
      buf_.insert(buf_.begin(), n - head_, 0);
      head_ = n;
    }
    head_ -= n;
    return buf_.data() + head_;
  }

  /// The frame from the current head: the outermost header so far and
  /// everything behind it.
  [[nodiscard]] BytesView view() const {
    return BytesView(buf_).subspan(head_);
  }
  [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
  [[nodiscard]] std::size_t headroom() const { return head_; }

  /// The finished frame, headroom dropped (none is left once every
  /// layer has pushed its header, so this moves without copying).
  [[nodiscard]] Bytes take() && {
    if (head_ > 0) {
      buf_.erase(buf_.begin(),
                 buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return std::move(buf_);
  }

 private:
  Bytes buf_;
  std::size_t head_;
};

/// Checked big-endian reader over a byte span.  Malformed input is
/// expected for a network node, not programmer error, so no read
/// throws: a read past the end returns 0 (or "", or the zero RingId),
/// consumes nothing, and clears ok() for good; every later read then
/// does the same.  A decoder reads its fields straight into its struct
/// and checks ok(), with its own value rules, once at the end.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    return static_cast<std::uint8_t>(be(1));
  }
  [[nodiscard]] std::uint16_t u16() {
    return static_cast<std::uint16_t>(be(2));
  }
  [[nodiscard]] std::uint32_t u32() {
    return static_cast<std::uint32_t>(be(4));
  }
  [[nodiscard]] std::uint64_t u64() { return be(8); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(be(8)); }

  /// Most significant limb first, as ByteWriter::ring_id.
  [[nodiscard]] RingId ring_id() {
    ByteReader id(bytes(4 * RingId::kLimbs));
    std::array<std::uint32_t, RingId::kLimbs> limbs{};
    for (int i = RingId::kLimbs - 1; i >= 0; --i) {
      limbs[static_cast<std::size_t>(i)] = id.u32();
    }
    return RingId{limbs};
  }

  /// A u16-length-prefixed string.  A short one consumes nothing, not
  /// even its prefix.
  [[nodiscard]] std::string str() {
    const std::size_t start = pos_;
    const BytesView s = bytes(u16());
    if (!ok_) pos_ = start;
    return std::string(s.begin(), s.end());
  }

  /// The next `n` bytes as a view into the input.
  [[nodiscard]] BytesView bytes(std::size_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return {};
    }
    pos_ += n;
    return data_.subspan(pos_ - n, n);
  }

  /// Reject the input from a nested decoder that read a value out of
  /// its range (an unknown enum byte, say).
  void fail() { ok_ = false; }

  /// False once any read ran past the end or fail() was called.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  /// The next `n` bytes as one big-endian number.
  [[nodiscard]] std::uint64_t be(std::size_t n) {
    std::uint64_t v = 0;
    for (std::uint8_t b : bytes(n)) v = (v << 8) | b;
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace wow
