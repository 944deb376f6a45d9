#include "core/recovery.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/macros.hpp"
#include "sssp/dijkstra.hpp"

namespace rdbs::core {

namespace {

// Classification of the fault-log tail one attempt produced.
struct AttemptFaults {
  std::vector<gpusim::GpuFault> faults;  // new events, canonical order
  std::uint64_t ecc_corrected = 0;
  bool poisoned = false;     // any event requiring a retry
  bool device_lost = false;  // device-lost latch is set on the simulator
};

AttemptFaults scan_attempt_faults(const gpusim::GpuSim& sim,
                                  std::size_t log_begin) {
  AttemptFaults scan;
  const std::vector<gpusim::GpuFault>& log = sim.fault_log();
  for (std::size_t i = log_begin; i < log.size(); ++i) {
    const gpusim::GpuFault& fault = log[i];
    scan.faults.push_back(fault);
    if (fault.correctable()) ++scan.ecc_corrected;
    if (fault.poisons()) scan.poisoned = true;
  }
  scan.device_lost = sim.device_lost();
  if (scan.device_lost) scan.poisoned = true;
  return scan;
}

}  // namespace

AttemptDriver::AttemptDriver(std::string engine, DeviceBinding device,
                             const graph::Csr& csr,
                             const EngineOptions& options)
    : engine_(std::move(engine)),
      own_sim_(device.device_ ? std::make_unique<gpusim::GpuSim>(
                                    std::move(*device.device_))
                              : nullptr),
      sim_(own_sim_ ? *own_sim_ : *device.sim_),
      stream_(device.stream_),
      graph_(device.graph_),
      csr_(csr),
      policy_(options.retry),
      checkpoint_interval_(options.checkpoint_interval) {
  if (own_sim_) {
    options.configure(sim_);
    own_graph_ = std::make_unique<DeviceCsrBuffers>(
        DeviceCsrBuffers::upload(sim_, csr_));
    graph_ = own_graph_.get();
  }
}

GpuRunResult AttemptDriver::run(graph::VertexId source,
                                const std::function<GpuRunResult()>& attempt) {
  if (source >= csr_.num_vertices()) {
    throw std::out_of_range(engine_ + ": source vertex out of range");
  }
  checkpoint_.clear();
  staged_.clear();
  snapshots_ = 0;
  checkpoints_landed_ = 0;
  checkpoints_voided_ = 0;
  GpuRunResult result = recover(source, attempt);
  result.recovery.checkpoints_landed = checkpoints_landed_;
  result.recovery.checkpoints_voided = checkpoints_voided_;
  resume_bounds_.clear();
  return result;
}

GpuRunResult AttemptDriver::recover(
    graph::VertexId source, const std::function<GpuRunResult()>& attempt) {
  RecoveryStats recovery;
  std::vector<gpusim::GpuFault> faults;
  // Attempt metrics accumulate here: an owned simulator is reset per
  // attempt, so the per-attempt deltas must be summed explicitly (on a
  // borrowed one each delta starts at its own attempt, so the sum is
  // correct there too — backoff charged *between* attempts is in no
  // attempt's delta and is added once below).
  double spent_ms = 0;
  double spent_wait_ms = 0;
  gpusim::Counters spent_counters;
  double backoff = std::max(0.0, policy_.backoff_ms);
  const int max_attempts = std::max(1, policy_.max_attempts);

  bool cancel_expired = false;
  for (int attempt_no = 0; attempt_no < max_attempts; ++attempt_no) {
    if (sim_.device_lost()) break;  // nothing to run on a dead device
    const std::size_t log_begin = sim_.fault_log().size();
    GpuRunResult result = attempt();
    ++recovery.attempts;
    AttemptFaults scan = scan_attempt_faults(sim_, log_begin);
    recovery.faults_injected += scan.faults.size();
    recovery.ecc_corrected += scan.ecc_corrected;
    recovery.device_lost = recovery.device_lost || scan.device_lost;
    faults.insert(faults.end(), scan.faults.begin(), scan.faults.end());

    // A deadline passed mid-attempt (possibly because a fault charged the
    // clock past it) is terminal even when the attempt is also poisoned —
    // there is no time left to retry or fall back in.
    if (result.deadline_exceeded || !scan.poisoned) {
      result.device_ms += spent_ms;
      result.queue_wait_ms += spent_wait_ms;
      result.counters += spent_counters;
      result.ok = !result.deadline_exceeded;
      result.faults = std::move(faults);
      result.recovery = recovery;
      return result;
    }

    spent_ms += result.device_ms;
    spent_wait_ms += result.queue_wait_ms;
    spent_counters += result.counters;
    if (scan.device_lost) break;  // no retry can succeed on a lost device
    if (cancel_ != nullptr && cancel_->expired()) {
      // The poisoned attempt consumed the rest of the budget: don't charge
      // a backoff that cannot buy a retry anyway.
      cancel_expired = true;
      break;
    }
    if (attempt_no + 1 < max_attempts) {
      ++recovery.retries;
      // Exponential backoff, charged to the simulated clock (the host
      // would sleep here), plus re-upload of any read-only device data an
      // uncorrectable flip poisoned; mutable buffers are re-initialized by
      // the next attempt itself.
      sim_.charge_host_ms(backoff, stream_);
      spent_ms += backoff;
      recovery.backoff_ms += backoff;
      const std::uint64_t reupload = sim_.memory().poisoned_read_only_bytes();
      if (reupload > 0) {
        sim_.memcpy_h2d(reupload, stream_);
        spent_ms += sim_.memcpy_ms(reupload);
        sim_.memory().clear_poison();
      }
      backoff *= policy_.backoff_multiplier;
      // Checkpoint-resume: seed the next attempt from the last committed
      // snapshot instead of rerunning cold; a snapshot whose copy is still
      // in flight after the backoff is not one. The re-seed H2D is charged
      // by the attempt's apply_warm_start; exactness follows from the
      // label-correcting argument (core/checkpoint.hpp).
      commit_landed();
      if (checkpoint_.valid()) {
        resume_bounds_ = checkpoint_.bounds;
        ++recovery.resumed;
      }
    }
  }

  // Unrecoverable on the device: degrade to the exact host reference, or
  // surface a typed failure — never wrong distances. A migration takes the
  // checkpoint now, so a snapshot whose copy has not landed (or that a
  // device loss caught uncommitted) is void.
  commit_landed();
  void_staged();
  recovery.device_lost = recovery.device_lost || sim_.device_lost();
  GpuRunResult result;
  result.device_ms = spent_ms;
  result.queue_wait_ms = spent_wait_ms;
  result.counters = spent_counters;
  result.faults = std::move(faults);
  if (cancel_expired || (cancel_ != nullptr && cancel_->expired())) {
    // Out of time: a CPU fallback computed now would arrive after the
    // deadline. The serving layer hedges to the host *before* dispatch when
    // that can still meet the deadline (docs/serving.md).
    result.ok = false;
    result.deadline_exceeded = true;
    result.recovery = recovery;
    return result;
  }
  if (policy_.cpu_fallback) {
    result.sssp = sssp::dijkstra(csr_, source);
    ++recovery.cpu_fallbacks;
    result.ok = true;
  } else {
    result.ok = false;
  }
  result.recovery = recovery;
  return result;
}

void AttemptDriver::set_resume_bounds(std::vector<graph::Distance> bounds) {
  RDBS_CHECK_MSG(bounds.size() == csr_.num_vertices(),
                 "resume bounds must cover every vertex");
  resume_bounds_ = std::move(bounds);
}

void AttemptDriver::begin_attempt(const gpusim::Buffer<graph::Distance>& dist) {
  fault_scan_begin_ = sim_.fault_log().size();
  attempt_cancelled_ = false;
  boundary_count_ = 0;
  snapshot_written_ = false;
  // A prior poisoned attempt may have left the distance region flagged
  // (recovery's bulk clear only fires when read-only data was also hit);
  // this attempt re-initializes the buffer, so the stale mark must not
  // suppress its checkpoints.
  sim_.clear_buffer_poison(dist);
  // Owned: fresh timeline/counters/caches per attempt (the paper's
  // single-query methodology); the reset empties the copy queue, so a copy
  // still in flight never lands. Borrowed: time and cache state accumulate
  // across queries and lanes, and this attempt's metrics are deltas.
  if (own_sim_) {
    void_staged();
    sim_.reset_all();
  }
  if (checkpoint_interval_ > 0 && snapshot_.size() == 0) {
    snapshot_ = sim_.alloc<graph::Distance>("checkpoint", dist.size(),
                                            kDeviceWord);
  }
  ms_before_ = sim_.stream_elapsed_ms(stream_);
  wait_before_ = sim_.stream_queue_wait_ms(stream_);
  counters_before_ = sim_.counters();
}

bool AttemptDriver::poisoned() const {
  if (!sim_.fault_injector()) return false;
  if (sim_.device_lost()) return true;
  const std::vector<gpusim::GpuFault>& log = sim_.fault_log();
  for (std::size_t i = fault_scan_begin_; i < log.size(); ++i) {
    if (log[i].poisons()) return true;
  }
  return false;
}

bool AttemptDriver::cancelled() {
  if (!attempt_cancelled_ && cancel_ != nullptr && cancel_->expired()) {
    attempt_cancelled_ = true;
  }
  return attempt_cancelled_;
}

const std::vector<graph::Distance>* AttemptDriver::warm_bounds() const {
  return resume_bounds_.empty() ? warm_start_ : &resume_bounds_;
}

std::uint64_t AttemptDriver::apply_warm_start(
    gpusim::Buffer<graph::Distance>& dist, graph::VertexId source) {
  const std::vector<graph::Distance>* warm = warm_bounds();
  if (warm == nullptr) return 0;
  const std::vector<graph::Distance>& bounds = *warm;
  RDBS_CHECK_MSG(bounds.size() == csr_.num_vertices(),
                 "warm_start bounds must cover every vertex");
  std::uint64_t seeded = 0;
  for (graph::VertexId v = 0; v < csr_.num_vertices(); ++v) {
    if (v == source || bounds[v] == graph::kInfiniteDistance) continue;
    dist[v] = bounds[v];
    ++seeded;
  }
  if (seeded > 0) sim_.memcpy_h2d(seeded * kDeviceWord, stream_);
  return seeded;
}

bool AttemptDriver::snapshot_due() const {
  if (checkpoint_interval_ <= 0) return false;
  if ((boundary_count_ + 1) %
          static_cast<std::uint64_t>(checkpoint_interval_) !=
      0) {
    return false;
  }
  if (sim_.d2h_queue_free_ms(stream_) > sim_.stream_elapsed_ms(stream_)) {
    return false;  // a copy is still reading the checkpoint buffer
  }
  return !poisoned();
}

void AttemptDriver::snapshot_into(gpusim::KernelScope& kernel,
                                  const gpusim::Buffer<graph::Distance>& dist) {
  if (!snapshot_due()) return;
  RDBS_DCHECK(snapshot_.size() == dist.size());
  std::array<graph::Distance, 32> values;
  std::array<std::uint64_t, 32> index;
  const std::uint64_t n = dist.size();
  for (std::uint64_t begin = 0; begin < n; begin += 32) {
    const auto lanes =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(32, n - begin));
    gpusim::WarpCtx ctx = kernel.make_warp();
    const std::span<graph::Distance> strip(values.data(), lanes);
    ctx.load_range(dist, begin, strip);
    for (std::uint32_t i = 0; i < lanes; ++i) index[i] = begin + i;
    ctx.store(snapshot_, std::span<const std::uint64_t>(index.data(), lanes),
              std::span<const graph::Distance>(strip));
    kernel.commit(ctx);
  }
  snapshot_written_ = true;
}

void AttemptDriver::boundary(const gpusim::Buffer<graph::Distance>& dist) {
  if (checkpoint_interval_ <= 0) return;
  ++boundary_count_;
  commit_landed();
  // Not due, or a copy was in flight when the kernel began: no snapshot.
  if (!std::exchange(snapshot_written_, false)) return;
  // A tainted attempt stops checkpointing; the last good snapshot stands.
  if (poisoned() || sim_.buffer_poisoned(dist)) return;
  // snapshot_due() saw the queue drained, so the last copy has landed and
  // commit_landed() has just made it the checkpoint.
  RDBS_DCHECK(!staged_.valid());
  staged_.bounds = snapshot_.data();
  staged_.taken_ms = sim_.memcpy_d2h_async(
      snapshot_.size() * kDeviceWord, stream_);
  staged_.boundaries = boundary_count_;
  staged_.snapshots = ++snapshots_;
}

void AttemptDriver::commit_landed() {
  if (!staged_.valid() || sim_.device_lost() ||
      staged_.taken_ms > sim_.stream_elapsed_ms(stream_)) {
    return;
  }
  checkpoint_ = std::move(staged_);
  staged_.clear();
  ++checkpoints_landed_;
}

void AttemptDriver::void_staged() {
  if (!staged_.valid()) return;
  staged_.clear();
  ++checkpoints_voided_;
}

GpuRunResult AttemptDriver::finish(GpuRunResult result,
                                   const gpusim::Buffer<graph::Distance>& dist,
                                   graph::VertexId source) {
  if (cancelled()) {
    // Over deadline at (or after) the last cancellation point: a late
    // answer is no answer, so the distances are withheld even when the run
    // happened to finish — only the partial metrics are reported.
    result.ok = false;
    result.deadline_exceeded = true;
  } else {
    result.sssp.distances = dist.data();
    sssp::finalize_valid_updates(result.sssp, source);
  }
  result.device_ms = sim_.stream_elapsed_ms(stream_) - ms_before_;
  result.queue_wait_ms = sim_.stream_queue_wait_ms(stream_) - wait_before_;
  result.counters = sim_.counters() - counters_before_;
  if (const gpusim::Sanitizer* san = sim_.sanitizer()) {
    result.sanitizer_report = san->report();
  }
  return result;
}

}  // namespace rdbs::core
