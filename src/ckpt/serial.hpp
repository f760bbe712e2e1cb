// Binary serialization primitives for checkpoint payloads.
//
// Checkpoints must be byte-stable across runs of the same binary (the
// resume guarantee is *byte-identical* artifacts), so every encoder here
// is fully deterministic: fixed-width little-endian integers, doubles by
// IEEE-754 bit pattern (never via text round-trips), strings and vectors
// length-prefixed. Section tags give corrupt or version-skewed payloads
// precise failure messages instead of garbage decodes.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace greencap::ckpt {

/// Thrown by Reader on any malformed payload: truncation, a section tag
/// mismatch, or an out-of-range length. The message pinpoints the byte
/// offset so a corrupt checkpoint is diagnosable from the error alone.
class CorruptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `size` bytes starting
/// at `data`, seeded with `seed` so checksums can be computed in chunks.
/// Matches zlib's crc32(), which is what tools/check_checkpoint.py uses.
/// Slicing-by-8: eight bytes per table step, bytewise for the tail.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed = 0);

/// The CRC-32 of the concatenation A‖B from crc1 = crc32(A), crc2 =
/// crc32(B) and len2 = |B|, without touching the bytes (zlib's
/// crc32_combine: GF(2) polynomial arithmetic modulo the CRC polynomial).
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc1, std::uint32_t crc2,
                                          std::uint64_t len2);

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) { little_endian(v); }
  void u64(std::uint64_t v) { little_endian(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& v);
  void bytes(const void* data, std::size_t size);

  /// Sizes the buffer for `size` bytes up front, so an encoding of about
  /// that length never regrows it (each regrowth copies everything so far).
  void reserve(std::size_t size) { buf_.reserve(size); }

  /// Writes a 4-character section tag. Sections carry no length — they
  /// only let the Reader fail fast with the name of the first section
  /// that does not line up.
  void section(const char (&tag)[5]);

  [[nodiscard]] const std::string& data() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  // On a little-endian host the in-memory bytes are the encoding: one
  // append. Elsewhere, the byte loop.
  template <typename U>
  void little_endian(U v) {
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) {
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
      }
    }
  }

  std::string buf_;
};

/// Bounds-checked decoder over a byte buffer (not owned).
class Reader {
 public:
  Reader(const void* data, std::size_t size)
      : data_{static_cast<const char*>(data)}, size_{size} {}
  explicit Reader(const std::string& buf) : Reader{buf.data(), buf.size()} {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  /// Consumes a section tag; throws CorruptError naming both the expected
  /// and the found tag on mismatch.
  void expect_section(const char (&tag)[5]);

  /// Length prefix for a container, validated against the bytes actually
  /// remaining (given a minimum encoded size per element) so a corrupt
  /// count fails here instead of as an allocation of absurd size.
  [[nodiscard]] std::size_t length(std::size_t min_elem_bytes = 1);

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }

 private:
  const char* need(std::size_t n, const char* what);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// -- common aggregate helpers ----------------------------------------------

inline void put_u64_array4(Writer& w, const std::array<std::uint64_t, 4>& a) {
  for (const std::uint64_t v : a) w.u64(v);
}

inline std::array<std::uint64_t, 4> get_u64_array4(Reader& r) {
  std::array<std::uint64_t, 4> a{};
  for (auto& v : a) v = r.u64();
  return a;
}

inline void put_f64_vec(Writer& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (const double x : v) w.f64(x);
}

inline std::vector<double> get_f64_vec(Reader& r) {
  const std::size_t n = r.length(8);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

inline void put_u64_vec(Writer& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const std::uint64_t x : v) w.u64(x);
}

inline std::vector<std::uint64_t> get_u64_vec(Reader& r) {
  const std::size_t n = r.length(8);
  std::vector<std::uint64_t> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.u64());
  return v;
}

inline void put_bool_vec(Writer& w, const std::vector<bool>& v) {
  w.u64(v.size());
  for (const bool x : v) w.boolean(x);
}

inline std::vector<bool> get_bool_vec(Reader& r) {
  const std::size_t n = r.length(1);
  std::vector<bool> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.boolean());
  return v;
}

}  // namespace greencap::ckpt
