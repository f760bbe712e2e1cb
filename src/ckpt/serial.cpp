#include "ckpt/serial.hpp"

#include <cstring>

namespace greencap::ckpt {

namespace {

constexpr std::uint32_t kCrcPoly = 0xedb88320U;  // IEEE 802.3, reflected

/// Kounavis & Berry's slicing-by-8 tables: entries[0] is the classic
/// bytewise table; entries[k][b] advances entries[k-1][b] by one more zero
/// byte, so one lookup per byte of an 8-byte word replaces eight chained
/// bytewise steps.
struct Crc32Tables {
  std::array<std::array<std::uint32_t, 256>, 8> entries{};
  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? kCrcPoly ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xffU];
      }
    }
  }
};

constexpr Crc32Tables kCrc{};

/// The unsigned integer whose little-endian encoding starts at `data`.
template <typename U>
U load_little_endian(const void* data) {
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, data, sizeof v);
  } else {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < sizeof v; ++i) v |= static_cast<U>(p[i]) << (8 * i);
  }
  return v;
}

/// a(x) * b(x) modulo the CRC polynomial, both in the reflected bit order
/// (bit 31 is x^0). `a` must be nonzero.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1U << 31;
  std::uint32_t p = 0;
  for (;;) {
    if ((a & m) != 0) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1U) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

/// x2n[k] = x^(2^k) modulo the CRC polynomial.
struct X2nTable {
  std::array<std::uint32_t, 32> entries{};
  constexpr X2nTable() {
    std::uint32_t p = 1U << 30;  // x^1
    entries[0] = p;
    for (std::size_t k = 1; k < 32; ++k) entries[k] = p = multmodp(p, p);
  }
};

constexpr X2nTable kX2n{};

/// x^(n * 2^k) modulo the CRC polynomial.
std::uint32_t x2nmodp(std::uint64_t n, unsigned k) {
  std::uint32_t p = 1U << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if ((n & 1U) != 0) p = multmodp(kX2n.entries[k & 31U], p);
  }
  return p;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrc.entries;
  std::uint32_t c = seed ^ 0xffffffffU;
  for (; size >= 8; size -= 8, p += 8) {
    const auto lo = load_little_endian<std::uint32_t>(p) ^ c;
    const auto hi = load_little_endian<std::uint32_t>(p + 4);
    c = t[7][lo & 0xffU] ^ t[6][(lo >> 8) & 0xffU] ^ t[5][(lo >> 16) & 0xffU] ^ t[4][lo >> 24] ^
        t[3][hi & 0xffU] ^ t[2][(hi >> 8) & 0xffU] ^ t[1][(hi >> 16) & 0xffU] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xffU] ^ (c >> 8);
  }
  return c ^ 0xffffffffU;
}

std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2, std::uint64_t len2) {
  // Appending len2 bytes multiplies crc1's polynomial by x^(8 * len2).
  return multmodp(x2nmodp(len2, 3), crc1) ^ crc2;
}

void Writer::str(const std::string& v) {
  u64(v.size());
  buf_.append(v);
}

void Writer::bytes(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void Writer::section(const char (&tag)[5]) { buf_.append(tag, 4); }

const char* Reader::need(std::size_t n, const char* what) {
  if (size_ - pos_ < n) {
    throw CorruptError{"checkpoint payload truncated at byte " + std::to_string(pos_) +
                       ": need " + std::to_string(n) + " byte(s) for " + what + ", have " +
                       std::to_string(size_ - pos_)};
  }
  const char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t Reader::u8() {
  return static_cast<std::uint8_t>(*need(1, "u8"));
}

std::uint32_t Reader::u32() { return load_little_endian<std::uint32_t>(need(4, "u32")); }

std::uint64_t Reader::u64() { return load_little_endian<std::uint64_t>(need(8, "u64")); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::size_t n = length(1);
  const char* p = need(n, "string body");
  return std::string{p, n};
}

void Reader::expect_section(const char (&tag)[5]) {
  const std::size_t at = pos_;
  const char* p = need(4, "section tag");
  if (std::memcmp(p, tag, 4) != 0) {
    throw CorruptError{"checkpoint payload: expected section '" + std::string{tag, 4} +
                       "' at byte " + std::to_string(at) + ", found '" + std::string{p, 4} +
                       "'"};
  }
}

std::size_t Reader::length(std::size_t min_elem_bytes) {
  const std::size_t at = pos_;
  const std::uint64_t n = u64();
  if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes) {
    throw CorruptError{"checkpoint payload: length " + std::to_string(n) + " at byte " +
                       std::to_string(at) + " exceeds the " + std::to_string(remaining()) +
                       " byte(s) remaining"};
  }
  return static_cast<std::size_t>(n);
}

void Reader::count(std::size_t live, std::size_t min_elem_bytes, const char* what) {
  const std::size_t n = length(min_elem_bytes);
  if (n != live) {
    throw CheckpointError{"checkpoint shape mismatch: " + std::to_string(n) + " " + what +
                          " checkpointed, " + std::to_string(live) + " in the re-submitted run"};
  }
}

}  // namespace greencap::ckpt
