// Deterministic fault schedules for the simulator.
//
// The paper's methodology assumes every `nvidia-smi -pl` write lands and
// every GPU stays healthy for the whole run. At datacenter scale neither
// holds: cap writes fail transiently, effective limits drift under thermal
// throttling, energy counters reset on driver reloads, kernels straggle
// and whole boards fall off the bus. A FaultPlan describes such a schedule
// declaratively; the FaultInjector replays it bit-identically against the
// virtual clock so resilience logic can be tested like any other code.
//
// Plans parse from a compact spec string (one event per ';'):
//
//   kind@target[:key=value[,key=value]...]
//
//   capfail@gpu0:p=0.5,code=insufficient_power   probabilistic write failure
//   capfail@gpu1:count=2                         fail the first 2 writes
//   capfail@gpu2:perm=1,code=not_supported       permanent per-device failure
//   drift@gpu1:t=5,factor=0.8                    silent cap drift at t=5 s
//   drift@gpu1:t=5,watts=150                     ... or to an absolute cap
//   energyreset@gpu0:t=6                         counter reset/wraparound
//   straggler@gpu3:t=2,until=8,factor=2.5        kernels 2.5x slower in window
//   dropout@gpu2:t=12                            whole-GPU loss mid-run
//
// or from a JSON file via "@path.json":
//
//   {"events": [{"kind": "dropout", "gpu": 2, "t": 12.0}, ...]}
//
// with the same keys and value rules: each member is set from its source
// text exactly as the spec form's key=value is, and an omitted "gpu" means
// any GPU.
//
// Times for timed faults (drift, energyreset, dropout) and straggler
// windows are measured from the instant the injector is armed (the start
// of the measured operation). Capfail windows [t, until) use the raw
// virtual clock instead: caps are applied *before* arming (the paper's
// between-runs protocol) and a capfail plan must be able to hit them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace greencap::fault {

enum class FaultKind : std::uint8_t {
  kCapWriteFail,  ///< NVML set_power_management_limit returns an error
  kCapDrift,      ///< effective cap silently diverges from the requested one
  kEnergyReset,   ///< energy counter resets to zero (driver reload / wrap)
  kStraggler,     ///< kernels on the device run slower by `factor`
  kGpuDropout,    ///< the device disappears mid-run
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// Error a failed cap write surfaces (mirrors the NVML codes the paper's
/// tooling sees; kept NVML-agnostic so lower layers need not depend on the
/// facade).
enum class CapError : std::uint8_t {
  kInsufficientPower,
  kNotSupported,
  kNoPermission,
};

[[nodiscard]] const char* to_string(CapError error);

struct FaultEvent {
  FaultKind kind = FaultKind::kCapWriteFail;
  /// Target GPU index; -1 means "any GPU" (allowed only for capfail and
  /// straggler, which are matched at query time).
  int gpu = -1;
  /// Activation time in virtual seconds (from injector arming).
  double t = 0.0;
  /// Window end for capfail/straggler; infinity = open-ended.
  double until = 0.0;  // 0 or less means +infinity, normalised by parse()
  /// Per-attempt failure probability for capfail (ignored when count/perm
  /// drive the event).
  double probability = 1.0;
  /// Drift multiplier (drift) or slowdown factor (straggler).
  double factor = 1.0;
  /// Absolute drift target in watts; 0 = use `factor` instead.
  double watts = 0.0;
  /// Error code returned by failed cap writes.
  CapError code = CapError::kInsufficientPower;
  /// capfail: fail exactly the first `count` attempts (0 = unlimited,
  /// gated by probability/perm instead).
  int count = 0;
  /// capfail: permanent per-device failure (every attempt fails).
  bool permanent = false;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events) : events_{std::move(events)} {
    normalise();
    validate();
  }

  /// Parses a spec string, or — when `spec` starts with '@' — the JSON
  /// file at the path that follows. Throws std::invalid_argument on any
  /// syntax or semantic error.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Parses the JSON document form: {"events": [{...}, ...]}.
  [[nodiscard]] static FaultPlan parse_json(std::istream& is);

  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Canonical spec-string form (round-trips through parse()).
  [[nodiscard]] std::string to_string() const;

 private:
  void normalise();
  void validate() const;
  std::vector<FaultEvent> events_;
};

}  // namespace greencap::fault
