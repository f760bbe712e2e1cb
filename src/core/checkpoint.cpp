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
    pending_run_config_ = r.str();
    pending_run_.bytes = r.str();
    pending_run_.t_virtual_s = file.manifest.t_virtual_s;
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
  ck::Reader r{blob.result_bytes};
  ExperimentResult result = ckpt_io::decode_result(r);
  ++cursor_;
  return result;
}

void CheckpointSession::commit(const ExperimentConfig& config, const ExperimentResult& result) {
  CompletedBlob blob;
  blob.config_bytes = ckpt_io::config_bytes(config);
  ck::Writer w;
  ckpt_io::encode_result(w, result);
  blob.result_bytes = w.take();
  blob.had_obs = result.observability != nullptr;
  completed_.push_back(std::move(blob));
  cursor_ = completed_.size();
  // The just-finished run's mid-run state (if any) is obsolete now.
  pending_run_config_.clear();
  pending_run_ = {};
  if (writes_enabled()) {
    write_campaign("boundary");
  }
}

void CheckpointSession::check_interrupt() {
  if (!ck::interrupted()) {
    return;
  }
  if (writes_enabled()) {
    write_campaign("signal");
  }
  throw ck::InterruptedError{
      "interrupted (SIGINT/SIGTERM): campaign checkpoint written at the experiment boundary"};
}

std::optional<ckpt_io::RunState> CheckpointSession::take_pending_run(
    const ExperimentConfig& config) {
  if (pending_run_.bytes.empty()) {
    return std::nullopt;
  }
  if (ckpt_io::config_bytes(config) != pending_run_config_) {
    throw ck::CheckpointError{
        "resume mismatch: the checkpoint's mid-run state belongs to a different experiment "
        "than '" +
        config.describe() + "' — resume with the identical command line"};
  }
  ckpt_io::RunState state = std::move(pending_run_);
  pending_run_config_.clear();
  pending_run_ = {};
  return state;
}

void CheckpointSession::write_run_checkpoint(const char* reason, const ExperimentConfig& config,
                                             const ckpt_io::RunState& state) {
  // The run state goes to the file as its own payload piece behind its
  // length prefix, the same bytes as w.str(state.bytes) without the copy.
  ck::Writer w;
  append_campaign_section(w);
  w.boolean(true);
  w.str(ckpt_io::config_bytes(config));
  w.u64(state.bytes.size());

  ck::Manifest manifest;
  manifest.kind = "run";
  manifest.reason = reason;
  manifest.signature = signature();
  manifest.completed = completed_.size();
  manifest.t_virtual_s = state.t_virtual_s;
  write_file(std::move(manifest), {w.data(), state.bytes});
}

void CheckpointSession::write_campaign(const char* reason) {
  ck::Writer w;
  append_campaign_section(w);
  w.boolean(false);

  ck::Manifest manifest;
  manifest.kind = "campaign";
  manifest.reason = reason;
  manifest.signature = signature();
  manifest.completed = completed_.size();
  write_file(std::move(manifest), {w.data()});
}

void CheckpointSession::append_campaign_section(ck::Writer& w) const {
  io_campaign(w, completed_);
}

void CheckpointSession::write_file(ck::Manifest manifest,
                                   std::initializer_list<std::string_view> payload) {
  ck::write_checkpoint_file(options_.path, std::move(manifest), payload);
  ++writes_;
  if (options_.kill_after > 0 && writes_ >= options_.kill_after) {
    // Chaos hook: simulate a hard kill the instant the rename landed.
    // _Exit skips destructors and atexit handlers, like SIGKILL would.
    std::_Exit(137);
  }
}

std::uint64_t CheckpointSession::signature() const {
  // FNV-1a over every completed config encoding plus the pending run's.
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
  mix(pending_run_config_);
  return h;
}

}  // namespace greencap::core
