// The one JSON writer every exporter uses.
//
// The exporters (Chrome trace, metrics, telemetry, decisions, profile,
// degradation report, bench summary) emit JSON by hand: the format is flat
// and an observed run writes ~300k numbers, so a DOM library would be
// overkill. JsonWriter appends into a bounded buffer that it flushes to the
// stream whenever it fills (and on destruction), so no exporter holds a
// whole artifact in memory, and it formats every value in place:
//   number(v)        == printf "%.9g"   (std::to_chars general, precision 9)
//   number_exact(v)  == printf "%.17g"  (std::to_chars general, precision 17)
//   integer(v)       the decimal digits std::to_string gives
//   str(s)           a string literal, escaped per RFC 8259
// The standard defines to_chars with a precision as printf in the "C"
// locale, so the bytes match the snprintf formatting this replaced. JSON has
// no inf/nan tokens: non-finite numbers are written as null (the convention
// Perfetto accepts).
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <memory>
#include <ostream>
#include <string_view>

namespace greencap::obs {

class JsonWriter {
 public:
  static constexpr std::size_t kCapacity = 64 * 1024;

  /// `script_safe` writes "</" inside strings as the JSON-legal "<\/", so
  /// the output can sit in an HTML <script> data island. Only string
  /// contents can hold a '<'; raw() text is written as given.
  explicit JsonWriter(std::ostream& os, bool script_safe = false)
      : os_{os},
        buf_{std::make_unique_for_overwrite<char[]>(kCapacity)},
        script_safe_{script_safe} {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;
  ~JsonWriter() { flush(); }

  JsonWriter& raw(std::string_view s) {
    if (s.size() > kCapacity - len_) {
      flush();
      if (s.size() >= kCapacity) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return *this;
      }
    }
    std::memcpy(buf_.get() + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
  }
  JsonWriter& raw(char c) {
    room(1)[0] = c;
    ++len_;
    return *this;
  }

  JsonWriter& str(std::string_view s) {
    raw('"');
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      const bool close_tag = script_safe_ && c == '<' && i + 1 < s.size() && s[i + 1] == '/';
      if (c >= 0x20 && c != '"' && c != '\\' && !close_tag) {
        continue;
      }
      raw(s.substr(run, i - run));
      run = i + 1;
      switch (c) {
        case '"': raw("\\\""); break;
        case '\\': raw("\\\\"); break;
        case '\b': raw("\\b"); break;
        case '\f': raw("\\f"); break;
        case '\n': raw("\\n"); break;
        case '\r': raw("\\r"); break;
        case '\t': raw("\\t"); break;
        case '<':  // only a "</" pair gets here; both bytes are consumed
          raw("<\\/");
          run = ++i + 1;
          break;
        default: {
          constexpr char kHex[] = "0123456789abcdef";
          const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
          raw(std::string_view{esc, sizeof esc});
        }
      }
    }
    return raw(s.substr(run)).raw('"');
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& integer(T v) {
    char* p = room(kMaxNumber);
    len_ = static_cast<std::size_t>(std::to_chars(p, p + kMaxNumber, v).ptr - buf_.get());
    return *this;
  }

  JsonWriter& number(double v) { return real(v, 9); }
  JsonWriter& number_exact(double v) { return real(v, 17); }

  /// Hands the buffered bytes to the stream. Stream failures are left on
  /// the stream's state for the caller (write_artifact) to check.
  void flush() {
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }

 private:
  /// Longest value integer()/real() write: "-1.2345678901234567e-308" is 24.
  static constexpr std::size_t kMaxNumber = 32;

  char* room(std::size_t n) {
    if (kCapacity - len_ < n) {
      flush();
    }
    return buf_.get() + len_;
  }

  JsonWriter& real(double v, int precision) {
    if (!std::isfinite(v)) {
      return raw("null");
    }
    char* p = room(kMaxNumber);
    len_ = static_cast<std::size_t>(
        std::to_chars(p, p + kMaxNumber, v, std::chars_format::general, precision).ptr -
        buf_.get());
    return *this;
  }

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  std::size_t len_ = 0;
  bool script_safe_;
};

}  // namespace greencap::obs
