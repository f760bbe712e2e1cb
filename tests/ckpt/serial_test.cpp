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

#include "core/checkpoint_io.hpp"
#include "power/config.hpp"
#include "sim/time.hpp"

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
  const std::vector<double> doubles{1.5, -2.5, 0.0};
  const std::vector<std::uint64_t> words{1, 2, 3, 4};
  const std::vector<bool> flags{true, false, true};
  ckpt::Writer w;
  w.seq(doubles, 8);
  w.seq(words, 8);
  w.seq(flags, 1);

  // Decoding replaces whatever the containers held.
  std::vector<double> doubles_in{9.0};
  std::vector<std::uint64_t> words_in;
  std::vector<bool> flags_in{false, false, false, false};
  ckpt::Reader r{w.data()};
  r.seq(doubles_in, 8);
  r.seq(words_in, 8);
  r.seq(flags_in, 1);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(doubles_in, doubles);
  EXPECT_EQ(words_in, words);
  EXPECT_EQ(flags_in, flags);
}

namespace {

enum class Color : std::uint8_t { kRed, kGreen, kBlue };

struct Item {
  std::int32_t id = 0;
  std::string name;
};

struct Record {
  bool flag = false;
  std::uint8_t byte = 0;
  std::int32_t i32 = 0;
  std::uint32_t u32 = 0;
  std::int64_t i64 = 0;
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  std::string text;
  greencap::sim::SimTime when;
  Color color = Color::kRed;
  std::vector<double> values;
  std::vector<Item> items;
};

template <typename C, typename T>
void io_record(C& c, T& r) {
  c.tag("RECD");
  c.io(r.flag);
  c.io(r.byte);
  c.io(r.i32);
  c.io(r.u32);
  c.io(r.i64);
  c.io(r.u64);
  c.io(r.f64);
  c.io(r.text);
  c.io(r.when);
  c.io(r.color, Color::kBlue, "record has an unknown color");
  c.seq(r.values, 8);
  c.seq(r.items, 4 + 8, [&c](auto& item) {
    c.io(item.id);
    c.io(item.name);
  });
}

Record sample_record() {
  Record r;
  r.flag = true;
  r.byte = 0xAB;
  r.i32 = -42;
  r.u32 = 0xDEADBEEFu;
  r.i64 = -1234567890123LL;
  r.u64 = 0x0123456789ABCDEFULL;
  r.f64 = 3.141592653589793;
  r.text = "hello checkpoint";
  r.when = greencap::sim::SimTime::seconds(2.5);
  r.color = Color::kGreen;
  r.values = {1.0, -0.0, 1e300};
  r.items = {{7, "seven"}, {-1, ""}};
  return r;
}

std::string encode(const Record& record) {
  ckpt::Writer w;
  io_record(w, record);
  return w.take();
}

}  // namespace

TEST(Serial, OneIoTemplateRoundTripsARecord) {
  const Record in = sample_record();
  const std::string bytes = encode(in);

  // The template writes exactly the primitive layout, field by field.
  ckpt::Writer manual;
  manual.section("RECD");
  manual.boolean(in.flag);
  manual.u8(in.byte);
  manual.i32(in.i32);
  manual.u32(in.u32);
  manual.i64(in.i64);
  manual.u64(in.u64);
  manual.f64(in.f64);
  manual.str(in.text);
  manual.f64(in.when.sec());
  manual.u8(1);
  manual.u64(3);
  for (const double v : in.values) manual.f64(v);
  manual.u64(2);
  for (const Item& item : in.items) {
    manual.i32(item.id);
    manual.str(item.name);
  }
  EXPECT_EQ(bytes, manual.data());

  Record out;
  out.items = {{99, "stale"}};
  ckpt::Reader r{bytes};
  io_record(r, out);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(out.flag, in.flag);
  EXPECT_EQ(out.byte, in.byte);
  EXPECT_EQ(out.i32, in.i32);
  EXPECT_EQ(out.u32, in.u32);
  EXPECT_EQ(out.i64, in.i64);
  EXPECT_EQ(out.u64, in.u64);
  EXPECT_EQ(out.f64, in.f64);
  EXPECT_EQ(out.text, in.text);
  EXPECT_EQ(out.when, in.when);
  EXPECT_EQ(out.color, in.color);
  EXPECT_EQ(out.values, in.values);
  ASSERT_EQ(out.items.size(), 2u);
  EXPECT_EQ(out.items[0].id, 7);
  EXPECT_EQ(out.items[0].name, "seven");
  EXPECT_EQ(out.items[1].id, -1);
  EXPECT_EQ(encode(out), bytes);
}

TEST(Serial, EnumByteOutOfRangeThrowsCheckpointError) {
  std::string bytes = encode(sample_record());
  const std::size_t color_at = 4 + 1 + 1 + 4 + 4 + 8 + 8 + 8 + (8 + 16) + 8;
  ASSERT_EQ(bytes[color_at], 1);
  bytes[color_at] = 3;
  ckpt::Reader r{bytes};
  Record out;
  try {
    io_record(r, out);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_STREQ(e.what(), "record has an unknown color 3");
  }
}

namespace {

namespace core = greencap::core;

/// Decodes `bytes` after setting the byte at `at` to `value`.
template <typename Decode>
void expect_rejected(std::string bytes, std::size_t at, Decode decode, const char* message) {
  bytes.at(at) = static_cast<char>(200);
  ckpt::Reader r{bytes};
  try {
    (void)decode(r);
    FAIL() << "expected CheckpointError for " << message;
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_EQ(std::string{e.what()}, std::string{message} + " 200");
  }
}

core::ExperimentConfig sample_config() {
  core::ExperimentConfig config;
  config.platform = "P";
  config.op = core::Operation::kPotrf;
  config.n = 11520;
  config.nb = 2880;
  config.gpu_config = greencap::power::GpuConfig::parse("HB");
  return config;
}

}  // namespace

TEST(Serial, ConfigEnumBytesOutOfRangeThrowCheckpointError) {
  const std::string bytes = core::ckpt_io::config_bytes(sample_config());
  const std::size_t op_at = 4 + 8 + 1;  // "CFG1", then the platform string
  const std::size_t levels_at = op_at + 1 + 1 + 8 + 4 + 8;
  ASSERT_EQ(bytes[op_at], static_cast<char>(core::Operation::kPotrf));
  ASSERT_EQ(bytes[levels_at + 1], static_cast<char>(greencap::power::Level::kBest));
  auto decode = [](ckpt::Reader& r) { return core::ckpt_io::decode_config(r); };
  expect_rejected(bytes, op_at, decode, "checkpoint has a config of unknown operation");
  expect_rejected(bytes, op_at + 1, decode, "checkpoint has a config of unknown precision");
  expect_rejected(bytes, levels_at, decode, "checkpoint has a config of unknown GPU level");
  expect_rejected(bytes, levels_at + 1, decode, "checkpoint has a config of unknown GPU level");
}

TEST(Serial, ResultWorkerArchOutOfRangeThrowsCheckpointError) {
  core::ExperimentResult result;
  result.config = sample_config();
  result.stats.per_worker.push_back({0x5A5A5A5A, greencap::rt::WorkerArch::kCuda, 3, 0.5});
  ckpt::Writer w;
  core::ckpt_io::encode_result(w, result);
  const std::string bytes = w.take();
  const std::size_t id_at = bytes.find("\x5A\x5A\x5A\x5A");
  ASSERT_NE(id_at, std::string::npos);
  auto decode = [](ckpt::Reader& r) { return core::ckpt_io::decode_result(r); };
  expect_rejected(bytes, id_at + 4, decode, "checkpoint has a result of unknown worker arch");
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
