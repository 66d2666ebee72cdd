#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "common/bytes.h"
#include "common/flight_recorder.h"
#include "common/ring_id.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"

namespace wow {
namespace {

TEST(RingId, HexRoundTrip) {
  auto id = RingId::from_hex("0123456789abcdef0123456789abcdef01234567");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(id->to_hex(), "0123456789abcdef0123456789abcdef01234567");
}

TEST(RingId, ShortHexZeroExtends) {
  auto id = RingId::from_hex("ff");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, RingId{0xff});
}

TEST(RingId, RejectsBadHex) {
  EXPECT_FALSE(RingId::from_hex("").has_value());
  EXPECT_FALSE(RingId::from_hex("xyz").has_value());
  EXPECT_FALSE(
      RingId::from_hex("0123456789abcdef0123456789abcdef012345678").has_value());
}

TEST(RingId, AdditionWrapsModulo2To160) {
  EXPECT_EQ(RingId::max() + RingId{1}, RingId{});
  EXPECT_EQ(RingId{5} + RingId{7}, RingId{12});
}

TEST(RingId, SubtractionWraps) {
  EXPECT_EQ(RingId{} - RingId{1}, RingId::max());
  EXPECT_EQ(RingId{12} - RingId{5}, RingId{7});
}

TEST(RingId, CarriesPropagateAcrossLimbs) {
  RingId low_max{0xffffffffffffffffull};
  RingId one{1};
  RingId sum = low_max + one;
  // 2^64: limb 2 should be 1, lower limbs 0.
  EXPECT_EQ(sum.limbs()[0], 0u);
  EXPECT_EQ(sum.limbs()[1], 0u);
  EXPECT_EQ(sum.limbs()[2], 1u);
}

TEST(RingId, ClockwiseDistance) {
  RingId a{10};
  RingId b{4};
  EXPECT_EQ(a.clockwise_distance(b), RingId::max() - RingId{5});
  EXPECT_EQ(b.clockwise_distance(a), RingId{6});
}

TEST(RingId, RingDistanceIsSymmetricMin) {
  RingId a{10};
  RingId b{4};
  EXPECT_EQ(a.ring_distance(b), RingId{6});
  EXPECT_EQ(b.ring_distance(a), RingId{6});
}

TEST(RingId, InArc) {
  RingId a{10}, b{20};
  EXPECT_TRUE(RingId{15}.in_arc(a, b));
  EXPECT_TRUE(RingId{20}.in_arc(a, b));   // half-open: includes b
  EXPECT_FALSE(RingId{10}.in_arc(a, b));  // excludes a
  EXPECT_FALSE(RingId{25}.in_arc(a, b));
  // Wrapping arc.
  EXPECT_TRUE(RingId{5}.in_arc(b, a));
  EXPECT_TRUE((RingId::max()).in_arc(b, a));
  EXPECT_FALSE(RingId{15}.in_arc(b, a));
}

TEST(RingId, InArcDegenerateWholeRing) {
  RingId a{10};
  EXPECT_TRUE(RingId{999}.in_arc(a, a));
}

TEST(RingId, Shr1HalvesValue) {
  EXPECT_EQ(RingId{8}.shr1(), RingId{4});
  // Cross-limb shift: 2^32 >> 1 = 2^31.
  RingId x{std::uint64_t{1} << 32};
  EXPECT_EQ(x.shr1(), RingId{std::uint64_t{1} << 31});
}

TEST(RingId, OrderingMostSignificantFirst) {
  auto big = RingId::from_hex("8000000000000000000000000000000000000000");
  ASSERT_TRUE(big.has_value());
  EXPECT_LT(RingId{0xffffffffffffffffull}, *big);
}

class RingIdPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingIdPropertyTest, AddSubInverse) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    RingId a = rng.ring_id();
    RingId b = rng.ring_id();
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a - b) + b, a);
  }
}

TEST_P(RingIdPropertyTest, DistanceTriangleOnRing) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    RingId a = rng.ring_id();
    RingId b = rng.ring_id();
    // cw(a->b) + cw(b->a) == 0 (full ring) unless a == b.
    if (a == b) continue;
    EXPECT_EQ(a.clockwise_distance(b) + b.clockwise_distance(a), RingId{});
  }
}

TEST_P(RingIdPropertyTest, HexRoundTripRandom) {
  Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    RingId a = rng.ring_id();
    auto parsed = RingId::from_hex(a.to_hex());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, a);
  }
}

/// The printf spelling to_hex and brief replaced: five "%08x" limbs,
/// most significant first.
std::string printf_hex(const RingId& id) {
  char buf[8 * RingId::kLimbs + 1];
  for (int i = 0; i < RingId::kLimbs; ++i) {
    std::snprintf(buf + 8 * i, 9, "%08x",
                  id.limbs()[static_cast<std::size_t>(RingId::kLimbs - 1 - i)]);
  }
  return std::string(buf, 8 * RingId::kLimbs);
}

TEST_P(RingIdPropertyTest, HexMatchesPrintfReference) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    RingId a = rng.ring_id();
    EXPECT_EQ(a.to_hex(), printf_hex(a));
    EXPECT_EQ(a.brief(), printf_hex(a).substr(0, 8));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingIdPropertyTest,
                         ::testing::Values(1, 42, 1234, 99999));

TEST(RingId, HexOfExtremeLimbsMatchesPrintfReference) {
  // Every id whose limbs are each 0 or 0xffffffff.
  for (unsigned mask = 0; mask < (1u << RingId::kLimbs); ++mask) {
    std::array<std::uint32_t, RingId::kLimbs> limbs{};
    for (int i = 0; i < RingId::kLimbs; ++i) {
      if ((mask >> i) & 1u) limbs[static_cast<std::size_t>(i)] = 0xffffffffu;
    }
    RingId id{limbs};
    EXPECT_EQ(id.to_hex(), printf_hex(id)) << "mask " << mask;
    EXPECT_EQ(id.brief(), printf_hex(id).substr(0, 8)) << "mask " << mask;
  }
}

TEST(Bytes, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xcdef);
  w.u32(0x12345678);
  w.u64(0xdeadbeefcafebabeull);
  w.i64(-42);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xcdef);
  EXPECT_EQ(r.u32(), 0x12345678u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafebabeull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, BigEndianOnWire) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(Bytes, RingIdRoundTrip) {
  Rng rng(3);
  RingId id = rng.ring_id();
  ByteWriter w;
  w.ring_id(id);
  EXPECT_EQ(w.size(), 20u);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.ring_id(), id);
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ShortReadReturnsZeroConsumesNothingAndFails) {
  Bytes data{0x01};
  ByteReader r(data);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_FALSE(r.ok());
  // Failed for good: a read that would fit now returns 0 too.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_FALSE(r.ok());

  // A partially-consumed reader fails at the first short read.
  ByteReader r2(data);
  EXPECT_EQ(r2.u8(), 0x01);
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r2.u8(), 0u);
  EXPECT_FALSE(r2.ok());

  Bytes id_bytes(19, 0xff);
  ByteReader r3(id_bytes);
  EXPECT_EQ(r3.ring_id(), RingId{});
  EXPECT_EQ(r3.remaining(), 19u);
  EXPECT_FALSE(r3.ok());
}

TEST(Bytes, ShortStringConsumesNothingAndFails) {
  ByteWriter w;
  w.u16(100);  // claims 100 bytes follow; one does
  w.u8('x');
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.remaining(), 3u);  // not even the prefix
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, FailRejectsAnInRangeRead) {
  Bytes data{7, 8};
  ByteReader r(data);
  EXPECT_EQ(r.u8(), 7);
  r.fail();  // a nested decoder found the 7 out of its range
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Bytes, OversizeStrIsRejectedNotTruncated) {
  std::string big(ByteWriter::kMaxLenPrefixed + 1, 'x');
  ByteWriter w;
  w.str(big);
  w.u16(0xbeef);  // a later field must not shift
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, SharedBytesCopyOnWrite) {
  SharedBytes a{Bytes{1, 2, 3}};
  EXPECT_TRUE(a.unique());
  SharedBytes b = a;  // second reference: in-place mutation now unsafe
  EXPECT_FALSE(a.unique());
  const std::uint8_t* before = b.data();
  b.mutable_data()[0] = 9;  // clones, leaving `a` untouched
  EXPECT_NE(b.data(), before);
  EXPECT_EQ(a.view()[0], 1);
  EXPECT_EQ(b.view()[0], 9);
  // Sole owner mutates in place — no clone.
  EXPECT_TRUE(b.unique());
  const std::uint8_t* stable = b.data();
  b.mutable_data()[1] = 8;
  EXPECT_EQ(b.data(), stable);
}

TEST(Bytes, FrameBufPrependsHeadersInPlace) {
  const Bytes payload{7, 8, 9};
  FrameBuf frame(3, payload);
  const std::uint8_t* payload_at = frame.view().data();
  EXPECT_EQ(frame.size(), 3u);
  HeaderWriter(frame.push(2)).u16(0x0102);
  HeaderWriter(frame.push(1)).u8(0xaa);
  EXPECT_EQ(frame.headroom(), 0u);
  EXPECT_EQ(Bytes(frame.view().begin(), frame.view().end()),
            (Bytes{0xaa, 1, 2, 7, 8, 9}));
  Bytes out = std::move(frame).take();
  EXPECT_EQ(out, (Bytes{0xaa, 1, 2, 7, 8, 9}));
  // One buffer: the payload stayed where it was first copied.
  EXPECT_EQ(out.data() + 3, payload_at);
}

TEST(Bytes, FrameBufWithWrongHeadroomStillFrames) {
  const Bytes payload{5, 6};
  FrameBuf short_frame(1, payload);
  HeaderWriter(short_frame.push(3)).u8(0xbb);  // two bytes short: grows
  EXPECT_EQ(std::move(short_frame).take(), (Bytes{0xbb, 0, 0, 5, 6}));
  FrameBuf spare(4, payload);
  HeaderWriter(spare.push(1)).u8(0xcc);  // three bytes spare: dropped
  EXPECT_EQ(std::move(spare).take(), (Bytes{0xcc, 5, 6}));
}

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), 2.138, 1e-3);  // sample stdev
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, HistogramBinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(3.0);   // bin 1
  h.add(-5.0);  // clamps to bin 0
  h.add(99.0);  // clamps to bin 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Empty input: every percentile degrades to 0 rather than reading
  // out of bounds.
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
  // Single element: every percentile is that element.
  EXPECT_DOUBLE_EQ(percentile({42.0}, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 100), 42.0);
}

TEST(Stats, HistogramRenderPreservesTotals) {
  Histogram h(0.0, 4.0, 4);
  for (double v : {-1.0, 0.5, 1.5, 2.5, 3.5, 9.0}) h.add(v);
  EXPECT_EQ(h.total(), 6u);  // clamped samples still count
  std::string rows = h.render();
  // One row per bin, each carrying its count; the counts sum to total().
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(rows.begin(), rows.end(), '\n')),
            h.bins());
  std::size_t sum = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) sum += h.count(b);
  EXPECT_EQ(sum, h.total());
  EXPECT_NE(rows.find("33.3%"), std::string::npos);  // bin 0: 2 of 6
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.uniform(0, 1000000), b.uniform(0, 1000000));
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

// Every byte below 0x20 must leave the escaper escaped, or a flight dump
// or metric label carrying one is not valid JSON.
TEST(Json, AppendEscapedEscapesEveryControlByte) {
  std::string in;
  for (int b = 0; b < 0x20; ++b) in += static_cast<char>(b);
  in += "\"\\a";
  std::string out = "x=";
  append_escaped(out, in);
  EXPECT_EQ(out,
            "x=\""
            "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"
            "\\\"\\\\a\"");
}

TEST(FlightRecorder, RecordsEmptyPeer) {
  FlightRecorder flight(1);
  flight.record(1, FlightKind::kConnLost, "abcdef01", 2, 3);
  // A default view has a null data(); it must overwrite the old name.
  flight.record(2, FlightKind::kStart, std::string_view{}, 4, 5);
  ASSERT_EQ(flight.size(), 1u);
  flight.for_each([](const FlightRecorder::Entry& e) {
    EXPECT_EQ(e.t, 2);
    EXPECT_EQ(e.kind, FlightKind::kStart);
    EXPECT_STREQ(e.peer, "");
    EXPECT_EQ(e.a, 4);
    EXPECT_EQ(e.b, 5);
  });
}

}  // namespace
}  // namespace wow
