// Binary serialization primitives for checkpoint payloads.
//
// Checkpoints must be byte-stable across runs of the same binary (the
// resume guarantee is *byte-identical* artifacts), so every encoder here
// is fully deterministic: fixed-width little-endian integers, doubles by
// IEEE-754 bit pattern (never via text round-trips), strings and vectors
// length-prefixed. Section tags give corrupt or version-skewed payloads
// precise failure messages instead of garbage decodes.
//
// Writer and Reader share one coder interface (kReading, tag, io, seq),
// so each checkpointed record states its layout once, as a
// template both of them run:
//
//   template <typename C, typename T>   // T is const when C is Writer
//   void io_point(C& c, T& p) {
//     c.tag("PONT");
//     c.io(p.x);
//     c.seq(p.samples, 8);
//   }
//
// Work only a decode does (resolving ids, restoring into a live object)
// stays in the same template behind `if constexpr (C::kReading)`.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/time.hpp"

namespace greencap::ckpt {

/// Thrown by Reader on any malformed payload: truncation, a section tag
/// mismatch, or an out-of-range length. The message pinpoints the byte
/// offset so a corrupt checkpoint is diagnosable from the error alone.
class CorruptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown for any unreadable, malformed, or corrupt checkpoint file, and
/// by Reader for well-framed content that cannot be restored (an enum
/// byte out of range).
class CheckpointError : public std::runtime_error {
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

  /// Writes a 4-character section tag. Sections carry no length — they
  /// only let the Reader fail fast with the name of the first section
  /// that does not line up.
  void section(const char (&tag)[5]);

  [[nodiscard]] const std::string& data() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

  // -- coder interface (see the file comment) ------------------------------

  static constexpr bool kReading = false;

  void tag(const char (&t)[5]) { section(t); }
  void io(bool v) { boolean(v); }
  void io(std::uint8_t v) { u8(v); }
  void io(std::int32_t v) { i32(v); }
  void io(std::uint32_t v) { u32(v); }
  void io(std::int64_t v) { i64(v); }
  void io(std::uint64_t v) { u64(v); }
  void io(double v) { f64(v); }
  void io(const std::string& v) { str(v); }
  void io(sim::SimTime v) { f64(v.sec()); }
  /// An enum as one byte; Reader rejects bytes outside [min, max].
  template <typename E>
    requires std::is_enum_v<E>
  void io(E v, E /*max*/, const char* /*what*/, E /*min*/ = E{}) {
    u8(static_cast<std::uint8_t>(v));
  }
  /// A length-prefixed container, `each` coding one element.
  template <typename Seq, typename Each>
  void seq(const Seq& s, std::size_t /*min_elem_bytes*/, Each&& each) {
    u64(s.size());
    for (const auto& x : s) each(x);
  }
  template <typename Seq>
  void seq(const Seq& s, std::size_t min_elem_bytes) {
    seq(s, min_elem_bytes, [this](const auto& x) { io(x); });
  }

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

  // -- coder interface (see the file comment) ------------------------------

  static constexpr bool kReading = true;

  void tag(const char (&t)[5]) { expect_section(t); }
  void io(bool& v) { v = boolean(); }
  void io(std::uint8_t& v) { v = u8(); }
  void io(std::int32_t& v) { v = i32(); }
  void io(std::uint32_t& v) { v = u32(); }
  void io(std::int64_t& v) { v = i64(); }
  void io(std::uint64_t& v) { v = u64(); }
  void io(double& v) { v = f64(); }
  void io(std::string& v) { v = str(); }
  void io(sim::SimTime& v) { v = sim::SimTime::seconds(f64()); }
  /// Throws CheckpointError "<what> <byte>" for a byte outside [min, max].
  template <typename E>
    requires std::is_enum_v<E>
  void io(E& v, E max, const char* what, E min = E{}) {
    const std::uint8_t b = u8();
    if (b < static_cast<std::uint8_t>(min) || b > static_cast<std::uint8_t>(max)) {
      throw CheckpointError{std::string{what} + " " + std::to_string(b)};
    }
    v = static_cast<E>(b);
  }
  /// Replaces `s` with the decoded elements, `each` decoding one.
  template <typename Seq, typename Each>
  void seq(Seq& s, std::size_t min_elem_bytes, Each&& each) {
    const std::size_t n = length(min_elem_bytes);
    s.clear();
    if constexpr (requires { s.reserve(n); }) s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      typename Seq::value_type x{};
      each(x);
      s.push_back(std::move(x));
    }
  }
  template <typename Seq>
  void seq(Seq& s, std::size_t min_elem_bytes) {
    seq(s, min_elem_bytes, [this](auto& x) { io(x); });
  }

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }

 private:
  const char* need(std::size_t n, const char* what);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace greencap::ckpt
