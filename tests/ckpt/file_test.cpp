// Checkpoint container round-trips and rejection of corrupt, truncated,
// and version-skewed files — the CRC/atomic-write half of the crash
// consistency story (docs/CHECKPOINTING.md).
#include "ckpt/file.hpp"
#include "ckpt/serial.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

namespace ckpt = greencap::ckpt;

namespace {

class FileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Named after the test: ctest runs tests as concurrent processes, and
    // under ASan every process places the fixture at the same address.
    path_ = ::testing::TempDir() + "ckpt_file_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".gckp";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string write_default() {
    ckpt::Manifest m;
    m.kind = "run";
    m.reason = "periodic";
    m.signature = 0x1122334455667788ULL;
    m.completed = 3;
    m.t_virtual_s = 1.25;
    // Two pieces, so every test also covers the chained payload CRC.
    const std::string_view payload{payload_};
    ckpt::write_checkpoint_file(path_, m, {payload.substr(0, 10), payload.substr(10)});
    return path_;
  }

  std::string read_raw() {
    std::ifstream in{path_, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  }

  void write_raw(const std::string& bytes) {
    std::ofstream out{path_, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string payload_ = "the quick brown payload jumps over the lazy CRC";
};

TEST_F(FileTest, RoundTripPreservesManifestAndPayload) {
  write_default();
  const ckpt::CheckpointFile file = ckpt::read_checkpoint_file(path_);
  EXPECT_EQ(file.version, ckpt::kFormatVersion);
  EXPECT_EQ(file.manifest.kind, "run");
  EXPECT_EQ(file.manifest.reason, "periodic");
  EXPECT_EQ(file.manifest.signature, 0x1122334455667788ULL);
  EXPECT_EQ(file.manifest.completed, 3u);
  EXPECT_EQ(file.manifest.t_virtual_s, 1.25);
  EXPECT_EQ(file.manifest.payload_bytes, payload_.size());
  EXPECT_EQ(file.payload, payload_);
}

TEST_F(FileTest, BytesEqualHeaderPayloadAndWholeFileCrc) {
  // The writer streams the payload pieces without copying them into the
  // header buffer; the file must still be the documented one-buffer layout.
  write_default();
  ckpt::Manifest m;
  m.kind = "run";
  m.reason = "periodic";
  m.signature = 0x1122334455667788ULL;
  m.completed = 3;
  m.t_virtual_s = 1.25;
  m.payload_bytes = payload_.size();
  m.payload_crc32 = ckpt::crc32(payload_.data(), payload_.size());
  const std::string manifest_json = ckpt::manifest_to_json(m);
  ckpt::Writer w;
  w.bytes(ckpt::kMagic, 4);
  w.u32(ckpt::kFormatVersion);
  w.u64(manifest_json.size());
  w.bytes(manifest_json.data(), manifest_json.size());
  w.u64(payload_.size());
  w.bytes(payload_.data(), payload_.size());
  w.u32(ckpt::crc32(w.data().data(), w.data().size()));
  EXPECT_EQ(read_raw(), w.data());
}

TEST_F(FileTest, RewriteIsAtomicReplacement) {
  write_default();
  ckpt::Manifest m;
  m.kind = "campaign";
  m.reason = "boundary";
  m.completed = 4;
  ckpt::write_checkpoint_file(path_, m, {"second payload"});
  const ckpt::CheckpointFile file = ckpt::read_checkpoint_file(path_);
  EXPECT_EQ(file.manifest.kind, "campaign");
  EXPECT_EQ(file.payload, "second payload");
}

TEST_F(FileTest, MissingFileNamesThePath) {
  try {
    (void)ckpt::read_checkpoint_file(path_);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find(path_), std::string::npos) << e.what();
  }
}

TEST_F(FileTest, EveryBitFlipIsDetected) {
  write_default();
  const std::string good = read_raw();
  // Flipping any single bit anywhere in the file must be caught by the
  // whole-file CRC (or, for the trailer itself, by the CRC comparison).
  // Walk a stride of positions to keep the test fast.
  for (std::size_t pos = 0; pos < good.size(); pos += 7) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x10);
    write_raw(bad);
    EXPECT_THROW((void)ckpt::read_checkpoint_file(path_), ckpt::CheckpointError)
        << "bit flip at byte " << pos << " not detected";
  }
}

TEST_F(FileTest, EveryTruncationIsDetected) {
  write_default();
  const std::string good = read_raw();
  for (std::size_t keep = 0; keep < good.size(); keep += 5) {
    write_raw(good.substr(0, keep));
    EXPECT_THROW((void)ckpt::read_checkpoint_file(path_), ckpt::CheckpointError)
        << "truncation to " << keep << " bytes not detected";
  }
}

TEST_F(FileTest, TrailingGarbageIsDetected) {
  write_default();
  write_raw(read_raw() + "extra");
  EXPECT_THROW((void)ckpt::read_checkpoint_file(path_), ckpt::CheckpointError);
}

TEST_F(FileTest, BadMagicIsRejected) {
  write_default();
  std::string bad = read_raw();
  bad[0] = 'X';
  write_raw(bad);
  try {
    (void)ckpt::read_checkpoint_file(path_);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string{e.what()}.find("magic"), std::string::npos) << e.what();
  }
}

TEST_F(FileTest, NoTempFileLeftBehind) {
  write_default();
  // Scratch files are "<path>.tmp.<pid>.<tid-hash>" so concurrent writers
  // never collide; none may survive a successful write.
  const std::filesystem::path target{path_};
  for (const auto& entry : std::filesystem::directory_iterator{target.parent_path()}) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(target.filename().string() + ".tmp"), std::string::npos)
        << "leftover scratch file: " << name;
  }
}
}  // namespace
