// Writer/Reader round-trips and the precise failure modes a corrupt or
// truncated payload must produce (docs/CHECKPOINTING.md).
#include "ckpt/serial.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace ckpt = greencap::ckpt;

TEST(Serial, ScalarRoundTrip) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.boolean(true);
  w.boolean(false);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.141592653589793);
  w.str("hello checkpoint");
  w.str("");

  ckpt::Reader r{w.data()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello checkpoint");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(Serial, DoublesRoundTripByBitPattern) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           1.0 / 3.0};
  ckpt::Writer w;
  for (const double v : values) w.f64(v);
  ckpt::Reader r{w.data()};
  for (const double v : values) {
    const double got = r.f64();
    if (std::isnan(v)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(got, v);
      EXPECT_EQ(std::signbit(got), std::signbit(v));
    }
  }
}

TEST(Serial, EncodingIsLittleEndianAndStable) {
  ckpt::Writer w;
  w.u32(0x01020304u);
  const std::string& b = w.data();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 0x03);
  EXPECT_EQ(static_cast<unsigned char>(b[2]), 0x02);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(Serial, SectionTagMismatchNamesBothTags) {
  ckpt::Writer w;
  w.section("AAAA");
  ckpt::Reader r{w.data()};
  try {
    r.expect_section("BBBB");
    FAIL() << "expected CorruptError";
  } catch (const ckpt::CorruptError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("AAAA"), std::string::npos) << msg;
    EXPECT_NE(msg.find("BBBB"), std::string::npos) << msg;
  }
}

TEST(Serial, TruncatedScalarReportsOffset) {
  ckpt::Writer w;
  w.u64(7);
  const std::string bytes = w.data().substr(0, 5);
  ckpt::Reader r{bytes};
  EXPECT_THROW((void)r.u64(), ckpt::CorruptError);
}

TEST(Serial, TruncatedStringBodyThrows) {
  ckpt::Writer w;
  w.str("0123456789");
  const std::string bytes = w.data().substr(0, w.data().size() - 3);
  ckpt::Reader r{bytes};
  EXPECT_THROW((void)r.str(), ckpt::CorruptError);
}

TEST(Serial, AbsurdLengthPrefixFailsInsteadOfAllocating) {
  ckpt::Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // claims 2^64-1 elements
  ckpt::Reader r{w.data()};
  EXPECT_THROW((void)r.length(8), ckpt::CorruptError);
}

TEST(Serial, VectorHelpersRoundTrip) {
  ckpt::Writer w;
  ckpt::put_f64_vec(w, {1.5, -2.5, 0.0});
  ckpt::put_u64_vec(w, {1, 2, 3, 4});
  ckpt::put_bool_vec(w, {true, false, true});
  ckpt::put_u64_array4(w, {10, 20, 30, 40});

  ckpt::Reader r{w.data()};
  EXPECT_EQ(ckpt::get_f64_vec(r), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(ckpt::get_u64_vec(r), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(ckpt::get_bool_vec(r), (std::vector<bool>{true, false, true}));
  const auto arr = ckpt::get_u64_array4(r);
  EXPECT_EQ(arr, (std::array<std::uint64_t, 4>{10, 20, 30, 40}));
  EXPECT_TRUE(r.at_end());
}

TEST(Serial, FramedEqualsStrOfSeparateEncoding) {
  auto encode = [](ckpt::Writer& w) {
    w.section("TEST");
    w.u64(42);
    w.str("nested");
    w.f64(0.5);
  };
  ckpt::Writer inner;
  encode(inner);
  ckpt::Writer copied;
  copied.u8(7);
  copied.str(inner.data());

  ckpt::Writer framed;
  framed.u8(7);
  framed.framed(encode);
  EXPECT_EQ(framed.data(), copied.data());
}

TEST(Serial, Crc32MatchesKnownVector) {
  // zlib's crc32("123456789") == 0xCBF43926 — the IEEE check value.
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  // Chunked computation matches one-shot.
  const std::uint32_t part = ckpt::crc32("12345", 5);
  EXPECT_EQ(ckpt::crc32("6789", 4, part), 0xCBF43926u);
}
