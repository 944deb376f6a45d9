// gfi — deterministic fault injection for the gpusim substrate.
//
// A production SSSP service has to survive the faults a real accelerator
// throws at it: transient DRAM bit-flips (ECC-corrected or not), kernels
// that fail to launch, kernels that hang until a watchdog kills them,
// stalled streams, and whole devices falling off the bus. The simulator
// makes those observable *and reproducible*: every fault decision is a pure
// function of a counter key
//
//     (seed, stream, per-stream launch ordinal, warp task, memory-op index)
//
// hashed through SplitMix64 — never wall-clock time, never the replay
// worker count. All decisions are taken during the serial record phase, so
// an injected fault plan is byte-identical for any `sim_threads`, and a
// failing chaos run replays exactly from its seed.
//
// Fault semantics follow the CUDA model of *asynchronous* error reporting:
// a faulted launch still executes (record-phase effects are not unwound) —
// the fault is observed at completion, the attempt's device state counts as
// poisoned, and the engine layer discards and retries the whole query (see
// core/recovery.hpp). Only ECC-correctable flips leave the attempt usable.
//
// Functional corruption is deliberately conservative so that a poisoned
// attempt can never crash or hang the host process:
//   * only floating-point loads are value-corrupted, and only mantissa bits
//     are flipped — the value stays finite, same-signed and within its
//     binade, so monotone relaxation loops still terminate;
//   * non-finite values (the ubiquitous +inf tentative distances) are left
//     untouched — a mantissa flip of inf would manufacture a NaN;
//   * integer loads (vertex ids, offsets, queue cursors) are reported as
//     uncorrectable faults but NOT value-corrupted: a corrupted index would
//     escape the simulation as an out-of-bounds host access;
//   * `max_faults` caps the number of injected events per simulator
//     lifetime, so retries eventually see a clean device and every chaos
//     test converges.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rdbs::gpusim {

enum class FaultClass : std::uint8_t {
  kBitFlipCorrectable,    // transient flip on a load, fixed by ECC
  kBitFlipUncorrectable,  // transient flip ECC could detect but not fix
  kLaunchFailure,         // kernel never started (spurious launch error)
  kTimeout,               // kernel hung; cost-clock watchdog killed it
  kStreamStall,           // stream stopped making progress for stall_ms
  kDeviceLoss,            // device fell off the bus; latches until revive
};

const char* fault_class_name(FaultClass cls);

// One injected fault, as surfaced to the engine layer in GpuRunResult.
// `stream`/`launch` key the launch (launch ordinals are per-stream and
// 1-based); `task`/`op`/`buffer`/`bit` locate bit-flips precisely.
struct GpuFault {
  FaultClass cls = FaultClass::kBitFlipCorrectable;
  int stream = 0;  // StreamId of the faulted launch
  std::uint64_t launch = 0;  // per-stream launch ordinal (1-based)
  std::uint32_t task = 0;    // warp task within the launch (flips only)
  std::uint64_t op = 0;      // memory-op ordinal within the launch (flips)
  std::uint32_t bit = 0;     // mantissa bit flipped (flips only)
  std::string buffer;        // device buffer hit (flips only)

  std::string describe() const;
  bool correctable() const { return cls == FaultClass::kBitFlipCorrectable; }
  // Whether this event poisons the attempt it hit (engine must discard and
  // retry). ECC-corrected flips and stream stalls are benign: the data is
  // intact, only the log/timeline record them.
  bool poisons() const {
    return cls != FaultClass::kBitFlipCorrectable &&
           cls != FaultClass::kStreamStall;
  }
};

// Fault-plan parameters. Probabilities are per draw site: `bit_flip_per_load`
// per warp load instruction, the launch-level classes per kernel launch.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 0;

  double bit_flip_per_load = 0;      // P(flip) per warp load instruction
  double correctable_fraction = 0.5; // of flips, share ECC corrects

  double launch_failure = 0;  // P per launch
  double timeout = 0;         // P per launch (kernel hangs)
  double stream_stall = 0;    // P per launch (stream pauses stall_ms)
  double device_loss = 0;     // P per launch (latches device_lost)

  // Cost-clock watchdog: an injected hang is detected after watchdog_ms;
  // any kernel whose modeled time exceeds it is also killed and reported
  // as kTimeout (a genuine runaway, not an injection). 0 disables the
  // genuine check and charges DeviceSpec-independent default for hangs.
  double watchdog_ms = 25.0;
  double stall_ms = 2.0;  // stream-stall duration

  // Injection budget per simulator lifetime (correctable flips count too).
  // Bounds functional corruption so retry loops and chaos tests converge.
  std::uint64_t max_faults = 4;

  // Heterogeneous fault pressure: when hot_stream >= 0, the launch-level
  // probabilities (loss, launch failure, timeout, stall) are multiplied by
  // hot_stream_factor on that one stream — a flaky SM or a marginal memory
  // channel behind a single queue, rather than uniform background noise.
  // Bit-flip probabilities are unaffected. Policies that learn per-lane
  // cost (the serving layer's EWMAs) only have something real to learn
  // when fault pressure is uneven across lanes; this is the deterministic
  // way to make it so (bench/server_tail_latency's lane-policy gate).
  int hot_stream = -1;
  double hot_stream_factor = 1.0;
};

// Parses a `--inject-faults` spec: comma-separated key=value pairs, e.g.
//   "seed=42,flip=1e-3,ecc=0.5,launch=0.01,timeout=0.01,stall=0.01,
//    loss=0.001,watchdog=25,stall-ms=2,max=4,hot=0,hot-factor=8"
// (`hot`/`hot-factor` set FaultConfig::hot_stream{,_factor}.) `seed`,
// `max` and `hot` are unsigned integers that must fit their fields; the
// rest are finite numbers (common/cli.hpp). Unknown keys or malformed
// values throw std::invalid_argument. The returned config has
// `enabled = true`.
FaultConfig parse_fault_spec(std::string_view spec);

// Stateless counter-based fault plan. All methods are pure functions of
// (config.seed, key); the simulator owns the mutable side (fault log,
// budget, device-lost latch).
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  const FaultConfig& config() const { return config_; }

  // Launch-level draw, keyed on (stream, per-stream launch ordinal).
  // Classes are tested in severity order (loss, launch failure, timeout,
  // stall) with independent sub-draws; at most one fires per launch.
  std::optional<FaultClass> launch_fault(int stream,
                                         std::uint64_t launch) const;

  struct FlipDecision {
    bool inject = false;
    bool correctable = false;
    std::uint32_t lane = 0;  // caller reduces mod active lanes
    std::uint32_t bit = 0;   // caller reduces mod mantissa width
  };
  // Load-level draw, keyed on (stream, launch, warp task, op ordinal).
  FlipDecision load_fault(int stream, std::uint64_t launch,
                          std::uint32_t task, std::uint64_t op) const;

 private:
  // Uniform double in [0, 1) from the counter key; `salt` separates draw
  // sites sharing a key.
  double uniform(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                 std::uint64_t d, std::uint64_t salt) const;
  std::uint64_t hash(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                     std::uint64_t d, std::uint64_t salt) const;

  FaultConfig config_;
};

}  // namespace rdbs::gpusim
