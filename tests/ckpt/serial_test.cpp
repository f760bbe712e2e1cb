// Writer/Reader round-trips and the precise failure modes a corrupt or
// truncated payload must produce (docs/CHECKPOINTING.md).
#include "ckpt/serial.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ckpt = greencap::ckpt;

namespace {

/// The textbook bitwise CRC-32 (reflected IEEE polynomial) the fast one
/// must agree with.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1U) != 0 ? 0xedb88320U ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::string bytes_of(std::initializer_list<unsigned> values) {
  std::string s;
  for (const unsigned v : values) s.push_back(static_cast<char>(v));
  return s;
}

}  // namespace

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

TEST(Serial, WriterBytesAreTheExplicitLittleEndianLayout) {
  const std::uint64_t values[] = {0, 1, 0x0102030405060708ULL,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::string expected64;
    for (int i = 0; i < 8; ++i) expected64.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
    ckpt::Writer w;
    w.u64(v);
    EXPECT_EQ(w.data(), expected64) << v;
    ckpt::Writer wi;
    wi.i64(static_cast<std::int64_t>(v));
    EXPECT_EQ(wi.data(), expected64) << v;

    const auto v32 = static_cast<std::uint32_t>(v);
    ckpt::Writer w32;
    w32.u32(v32);
    EXPECT_EQ(w32.data(), expected64.substr(0, 4)) << v32;
  }

  ckpt::Writer neg_zero;
  neg_zero.f64(-0.0);
  EXPECT_EQ(neg_zero.data(), bytes_of({0, 0, 0, 0, 0, 0, 0, 0x80}));

  // A NaN's payload bits are carried verbatim, not canonicalised.
  const double nan = std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefULL});
  ckpt::Writer w_nan;
  w_nan.f64(nan);
  EXPECT_EQ(w_nan.data(), bytes_of({0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0x7f}));
  ckpt::Reader r{w_nan.data()};
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x7ff80000deadbeefULL);
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

TEST(Serial, Crc32MatchesKnownVector) {
  // zlib's crc32("123456789") == 0xCBF43926 — the IEEE check value.
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  // Chunked computation matches one-shot.
  const std::uint32_t part = ckpt::crc32("12345", 5);
  EXPECT_EQ(ckpt::crc32("6789", 4, part), 0xCBF43926u);
}

TEST(Serial, Crc32EqualsBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..72 cover no 8-byte block, several blocks and every tail
  // length; start offsets 0..7 put the blocks at every alignment.
  std::vector<unsigned char> buf(72 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>((i * 131 + 7) ^ (i >> 3));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 72; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t want = reference_crc32(p, len);
      EXPECT_EQ(ckpt::crc32(p, len), want) << "offset " << offset << " len " << len;
      // Chunked: every split point, the second call seeded with the first.
      for (std::size_t split = 0; split <= len; split += 5) {
        const std::uint32_t head = ckpt::crc32(p, split);
        EXPECT_EQ(ckpt::crc32(p + split, len - split, head), want)
            << "offset " << offset << " len " << len << " split " << split;
      }
      EXPECT_EQ(ckpt::crc32(p, len, 0x12345678U), reference_crc32(p, len, 0x12345678U));
    }
  }
}

TEST(Serial, Crc32CombineEqualsCrcOfConcatenation) {
  std::string big(3u << 20, '\0');  // 3 MiB
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 2654435761U) >> 13);
  }
  const std::string a = "checkpoint header";
  const std::string b = "payload bytes, any length";
  auto crc = [](const std::string& s) { return ckpt::crc32(s.data(), s.size()); };
  const std::pair<std::string, std::string> cases[] = {
      {"", b}, {a, ""}, {"", ""}, {a, b}, {a, big}, {"", big}, {big, a}};
  for (const auto& [x, y] : cases) {
    EXPECT_EQ(ckpt::crc32_combine(crc(x), crc(y), y.size()), crc(x + y))
        << "|a| = " << x.size() << ", |b| = " << y.size();
  }
}
