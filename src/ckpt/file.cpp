#include "ckpt/file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "ckpt/serial.hpp"

namespace greencap::ckpt {

namespace {

/// Shortest decimal form that round-trips a double (manifest only; the
/// payload carries every double by bit pattern).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw CheckpointError{"checkpoint " + path + ": " + why};
}

/// Minimal field extraction from the canonical manifest JSON this library
/// writes (flat object, no escapes). The whole-file CRC has already
/// certified the bytes, so a missing field means version skew, not damage.
class ManifestScanner {
 public:
  ManifestScanner(const std::string& json, const std::string& path)
      : json_{json}, path_{path} {}

  std::string str(const char* key) {
    const std::size_t at = value_pos(key);
    if (json_[at] != '"') fail(path_, std::string{"manifest field '"} + key + "' is not a string");
    const std::size_t end = json_.find('"', at + 1);
    if (end == std::string::npos) fail(path_, "manifest ends inside a string");
    return json_.substr(at + 1, end - at - 1);
  }

  std::uint64_t u64(const char* key) {
    return std::strtoull(json_.c_str() + value_pos(key), nullptr, 10);
  }

  double f64(const char* key) {
    return std::strtod(json_.c_str() + value_pos(key), nullptr);
  }

 private:
  std::size_t value_pos(const char* key) {
    const std::string needle = std::string{"\""} + key + "\":";
    const std::size_t at = json_.find(needle);
    if (at == std::string::npos) {
      fail(path_, std::string{"manifest is missing field '"} + key + "'");
    }
    return at + needle.size();
  }

  const std::string& json_;
  const std::string& path_;
};

}  // namespace

std::string manifest_to_json(const Manifest& manifest) {
  std::ostringstream os;
  os << "{\"format\":\"greencap-checkpoint\",\"version\":" << kFormatVersion
     << ",\"kind\":\"" << manifest.kind << "\",\"reason\":\"" << manifest.reason
     << "\",\"signature\":" << manifest.signature
     << ",\"completed\":" << manifest.completed
     << ",\"t_virtual_s\":" << format_double(manifest.t_virtual_s)
     << ",\"payload_bytes\":" << manifest.payload_bytes
     << ",\"payload_crc32\":" << manifest.payload_crc32 << "}";
  return os.str();
}

void write_checkpoint_file(const std::string& path, Manifest manifest,
                           std::initializer_list<std::string_view> payload) {
  manifest.payload_bytes = 0;
  manifest.payload_crc32 = 0;
  for (const std::string_view piece : payload) {
    manifest.payload_bytes += piece.size();
    manifest.payload_crc32 = crc32(piece.data(), piece.size(), manifest.payload_crc32);
  }
  const std::string manifest_json = manifest_to_json(manifest);

  // Everything before the payload; the payload itself goes to the file
  // straight from the callers' buffers. The file CRC extends the header's
  // over the payload by crc32_combine, so the payload is scanned once.
  Writer w;
  w.bytes(kMagic, 4);
  w.u32(kFormatVersion);
  w.u64(manifest_json.size());
  w.bytes(manifest_json.data(), manifest_json.size());
  w.u64(manifest.payload_bytes);
  const std::string& header = w.data();
  const std::uint32_t file_crc = crc32_combine(crc32(header.data(), header.size()),
                                               manifest.payload_crc32, manifest.payload_bytes);

  // Scratch name unique per (process, thread): campaigns running in
  // parallel processes may checkpoint adjacent paths in one directory, and
  // a shared "<path>.tmp" would let one writer truncate another's
  // half-written file out from under its rename.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(path, "cannot create " + tmp + ": " + std::strerror(errno));

  auto write_all = [&](const char* data, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::write(fd, data, size);
      if (n < 0) {
        const int err = errno;
        ::close(fd);
        fail(path, "write failed: " + std::string{std::strerror(err)});
      }
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  };
  write_all(header.data(), header.size());
  for (const std::string_view piece : payload) {
    write_all(piece.data(), piece.size());
  }
  char crc_bytes[4];
  for (int i = 0; i < 4; ++i) crc_bytes[i] = static_cast<char>((file_crc >> (8 * i)) & 0xffU);
  write_all(crc_bytes, 4);

  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    fail(path, "fsync failed: " + std::string{std::strerror(err)});
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(path, "rename from " + tmp + " failed: " + std::strerror(errno));
  }
}

CheckpointFile read_checkpoint_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  const std::streamoff end = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (end < 0) fail(path, "cannot open file");
  const auto size = static_cast<std::size_t>(end);
  in.seekg(0);
  // Every byte is read once, straight into where it stays: the header up
  // to the payload into `prefix`, the payload into file.payload.
  auto read_into = [&](char* dst, std::size_t n) {
    if (!in.read(dst, static_cast<std::streamsize>(n))) fail(path, "read failed");
  };

  const std::size_t fixed = 4 + 4 + 8 + 8 + 4;  // magic+version+two lengths+CRC
  std::string prefix(std::min(size, std::size_t{4 + 4 + 8}), '\0');
  read_into(prefix.data(), prefix.size());
  if (size < 4 || std::memcmp(prefix.data(), kMagic, 4) != 0) {
    fail(path, "bad magic (not a GreenCap checkpoint)");
  }
  // Fixed header after the magic: version + manifest length; then the
  // trailing 4 bytes are the whole-file CRC.
  if (size < fixed) {
    fail(path, "truncated: " + std::to_string(size) + " bytes is shorter than the header");
  }
  Reader header{prefix.data() + 4, prefix.size() - 4};
  CheckpointFile file;
  file.version = header.u32();
  if (file.version != kFormatVersion) {
    fail(path, "unsupported format version " + std::to_string(file.version) + " (expected " +
                   std::to_string(kFormatVersion) + ")");
  }

  const std::uint64_t manifest_len = header.u64();
  if (manifest_len > size - fixed) {
    fail(path, "truncated: manifest claims " + std::to_string(manifest_len) +
                   " bytes but only " + std::to_string(size - fixed) + " remain");
  }
  const std::size_t manifest_at = prefix.size();
  prefix.resize(manifest_at + manifest_len + 8);
  read_into(prefix.data() + manifest_at, manifest_len + 8);
  file.manifest_json = prefix.substr(manifest_at, manifest_len);

  Reader tail{prefix.data() + manifest_at + manifest_len, 8};
  const std::uint64_t payload_len = tail.u64();
  const std::size_t payload_at = prefix.size();
  if (payload_len > size - payload_at || size - payload_at - payload_len != 4) {
    fail(path, "truncated: payload claims " + std::to_string(payload_len) + " bytes but " +
                   std::to_string(size - payload_at) + " remain before the CRC");
  }
  file.payload.resize(payload_len);
  read_into(file.payload.data(), payload_len);
  char crc_bytes[4];
  read_into(crc_bytes, 4);

  // One pass over the payload: its CRC certifies it against the manifest
  // and, combined with the prefix's, equals the CRC over all bytes before
  // the stored one.
  const std::uint32_t payload_crc = crc32(file.payload.data(), file.payload.size());
  const std::uint32_t stored_crc = Reader{crc_bytes, 4}.u32();
  const std::uint32_t actual_crc =
      crc32_combine(crc32(prefix.data(), prefix.size()), payload_crc, payload_len);
  if (stored_crc != actual_crc) {
    fail(path, "CRC mismatch: stored " + std::to_string(stored_crc) + ", computed " +
                   std::to_string(actual_crc) + " (file is corrupt)");
  }

  ManifestScanner scan{file.manifest_json, path};
  file.manifest.kind = scan.str("kind");
  file.manifest.reason = scan.str("reason");
  file.manifest.signature = scan.u64("signature");
  file.manifest.completed = scan.u64("completed");
  file.manifest.t_virtual_s = scan.f64("t_virtual_s");
  file.manifest.payload_bytes = scan.u64("payload_bytes");
  file.manifest.payload_crc32 = static_cast<std::uint32_t>(scan.u64("payload_crc32"));
  if (file.manifest.payload_bytes != file.payload.size()) {
    fail(path, "manifest payload_bytes " + std::to_string(file.manifest.payload_bytes) +
                   " != actual payload size " + std::to_string(file.payload.size()));
  }
  if (file.manifest.payload_crc32 != payload_crc) {
    fail(path, "manifest payload CRC does not match the payload");
  }
  return file;
}

}  // namespace greencap::ckpt
