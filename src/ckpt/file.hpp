// Crash-consistent checkpoint container (docs/CHECKPOINTING.md).
//
// Layout, all integers little-endian:
//
//   offset  size  field
//   0       4     magic "GCKP"
//   4       4     format version (currently 2)
//   8       8     manifest length M
//   16      M     manifest — one-line JSON (kind, reason, progress, CRCs)
//   16+M    8     payload length P
//   24+M    P     payload — opaque binary (ckpt::Writer framing)
//   24+M+P  4     CRC-32 (IEEE) over ALL preceding bytes
//
// The manifest is deliberately JSON so operators and tools/check_checkpoint.py
// can inspect a checkpoint without the binary decoder; the payload CRC is
// repeated inside it so the manifest alone certifies the payload.
//
// Writes are atomic: the file is assembled in a per-(process, thread)
// scratch file (`path + ".tmp.<pid>.<tid>"`, collision-free under
// concurrent campaigns), flushed and fsync()ed, then rename()d over the
// destination — a crash mid-write leaves either the previous complete
// checkpoint or none, never a torn file.
// Reads reject truncated, bit-flipped, or version-skewed files with a
// CheckpointError naming the precise failure.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "ckpt/serial.hpp"

namespace greencap::ckpt {

inline constexpr char kMagic[5] = "GCKP";
/// Version 2: a run checkpoint holds a run marker, not the run's state.
inline constexpr std::uint32_t kFormatVersion = 2;

/// The manifest fields GreenCap writes. `extra` (if any) is appended
/// verbatim inside the JSON object — the experiment layer uses it for
/// campaign progress counters.
struct Manifest {
  std::string kind;      ///< "campaign" (between runs) or "run" (mid-run).
  std::string reason;    ///< "periodic" | "boundary" | "signal" | "watchdog" | "final".
  std::uint64_t signature = 0;   ///< FNV-1a over the campaign's config encodings.
  std::uint64_t completed = 0;   ///< Experiments fully finished before this point.
  double t_virtual_s = 0.0;      ///< Virtual clock of the checkpointed run (0 at boundaries).
  std::uint64_t payload_bytes = 0;   ///< Filled in by write_checkpoint_file.
  std::uint32_t payload_crc32 = 0;   ///< Filled in by write_checkpoint_file.
};

struct CheckpointFile {
  std::uint32_t version = 0;
  Manifest manifest;
  std::string manifest_json;
  std::string payload;
};

/// Serializes the manifest to its canonical one-line JSON form.
[[nodiscard]] std::string manifest_to_json(const Manifest& manifest);

/// Atomically writes a payload under `manifest` to `path` (tmp + fsync +
/// rename). The payload is the concatenation of `payload`'s pieces, written
/// in order straight from the callers' buffers. The manifest's
/// payload_bytes/payload_crc32 are computed here. Throws CheckpointError on
/// any I/O failure.
void write_checkpoint_file(const std::string& path, Manifest manifest,
                           std::initializer_list<std::string_view> payload);

/// Reads and fully validates a checkpoint: magic, version, section lengths
/// against the file size, whole-file CRC, and the manifest's embedded
/// payload CRC. Throws CheckpointError with the exact failure mode.
[[nodiscard]] CheckpointFile read_checkpoint_file(const std::string& path);

}  // namespace greencap::ckpt
