#include "core/checkpoint.hpp"

#include <cstdlib>
#include <utility>

#include "ckpt/serial.hpp"
#include "ckpt/signal.hpp"

namespace greencap::core {

namespace ck = greencap::ckpt;

namespace {

/// "CAMP": the completed experiments' config and result encodings.
template <typename C, typename Completed>
void io_campaign(C& c, Completed& completed) {
  c.tag("CAMP");
  c.seq(completed, 8 + 8 + 1, [&c](auto& blob) {
    c.io(blob.config_bytes);
    c.io(blob.result_bytes);
    c.io(blob.had_obs);
  });
}

}  // namespace

CheckpointSession::CheckpointSession(CheckpointOptions options)
    : options_{std::move(options)} {
  if (!options_.resume_path.empty()) {
    load_resume_file();
  }
}

void CheckpointSession::load_resume_file() {
  const ck::CheckpointFile file = ck::read_checkpoint_file(options_.resume_path);
  ck::Reader r{file.payload};
  io_campaign(r, completed_);
  if (r.boolean()) {
    throw ck::CheckpointError{"checkpoint " + options_.resume_path +
                              " was written mid-run by an older build (its payload carries a "
                              "run marker); this build cannot resume it"};
  }
  if (!r.at_end()) {
    throw ck::CheckpointError{"checkpoint payload has " + std::to_string(r.remaining()) +
                              " trailing bytes after the campaign section"};
  }
  if (file.manifest.completed != completed_.size()) {
    throw ck::CheckpointError{
        "checkpoint manifest claims " + std::to_string(file.manifest.completed) +
        " completed experiments but the payload holds " + std::to_string(completed_.size())};
  }
}

std::optional<ExperimentResult> CheckpointSession::try_replay(const ExperimentConfig& config) {
  check_interrupt();
  if (cursor_ >= completed_.size()) {
    return std::nullopt;
  }
  const CompletedBlob& blob = completed_[cursor_];
  if (ckpt_io::config_bytes(config) != blob.config_bytes) {
    throw ck::CheckpointError{
        "resume mismatch at experiment #" + std::to_string(cursor_) + ": '" +
        config.describe() +
        "' differs from the checkpointed campaign — resume with the identical command line"};
  }
  if (blob.had_obs) {
    // Its capture is not stored (the exports landed before its commit), so
    // re-run it to export it and print it again; commit() checks the result.
    return std::nullopt;
  }
  ck::Reader r{blob.result_bytes};
  ExperimentResult result = ckpt_io::decode_result(r);
  ++cursor_;
  return result;
}

void CheckpointSession::write_boundary() {
  if (writes_enabled()) {
    write_file("campaign", "boundary", 0.0);
  }
}

void CheckpointSession::commit(const ExperimentConfig& config, const ExperimentResult& result) {
  CompletedBlob blob;
  blob.config_bytes = ckpt_io::config_bytes(config);
  ck::Writer w;
  ckpt_io::encode_result(w, result);
  blob.result_bytes = w.take();
  blob.had_obs = result.observability != nullptr;
  if (cursor_ < completed_.size()) {
    // A re-run of a stored experiment (see try_replay): already on file.
    if (blob.result_bytes != completed_[cursor_].result_bytes) {
      throw ck::CheckpointError{"resume diverged: re-running experiment #" +
                                std::to_string(cursor_) +
                                " gave a result that differs from the checkpointed one"};
    }
    ++cursor_;
    return;
  }
  completed_.push_back(std::move(blob));
  cursor_ = completed_.size();
  write_boundary();
}

void CheckpointSession::check_interrupt() {
  if (!ck::interrupted()) {
    return;
  }
  if (writes_enabled()) {
    write_file("campaign", "signal", 0.0);
  }
  throw ck::InterruptedError{
      "interrupted (SIGINT/SIGTERM): campaign checkpoint written at the experiment boundary"};
}

void CheckpointSession::tick() { count_point(); }

void CheckpointSession::write_run_checkpoint(const char* reason,
                                             const ExperimentConfig& /*config*/,
                                             const ckpt_io::RunState& state) {
  write_file("run", reason, state.t_virtual_s);
}

void CheckpointSession::write_file(const char* kind, const char* reason, double t_virtual_s) {
  // Every payload is the campaign section and a closing 0 byte, which
  // load_resume_file() requires.
  ck::Writer w;
  io_campaign(w, completed_);
  w.boolean(false);

  ck::Manifest manifest;
  manifest.kind = kind;
  manifest.reason = reason;
  manifest.signature = signature();
  manifest.completed = completed_.size();
  manifest.t_virtual_s = t_virtual_s;
  ck::write_checkpoint_file(options_.path, std::move(manifest), w.data());
  ++writes_;
  count_point();
}

void CheckpointSession::count_point() {
  ++points_;
  if (options_.kill_after > 0 && points_ >= options_.kill_after) {
    // Chaos hook: simulate a hard kill at this point (for a write, the
    // instant its rename landed). _Exit skips destructors and atexit
    // handlers, like SIGKILL would.
    std::_Exit(137);
  }
}

std::uint64_t CheckpointSession::signature() const {
  // FNV-1a over every completed config encoding.
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const std::string& bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  for (const CompletedBlob& blob : completed_) {
    mix(blob.config_bytes);
  }
  return h;
}

}  // namespace greencap::core
