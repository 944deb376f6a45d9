#include "gpusim/sim.hpp"

#include <bit>

namespace rdbs::gpusim {

namespace {
// Issue-visible cycles added per sector that misses a cache level: the
// latency itself is assumed hidden by other resident warps; these model the
// extra pipeline occupancy of replays, while DRAM *throughput* is enforced
// separately by the per-kernel bandwidth floor.
constexpr std::uint64_t kL2ReplayCycles = 2;    // L1 miss served by L2
constexpr std::uint64_t kDramReplayCycles = 6;  // L2 miss, full DRAM trip

// Scheduling weight of one warp memory instruction. The dynamic (least-
// loaded SM) placement decision is made when a task is placed, before its
// cache charges are known, so it keys on a cache-independent load estimate:
// ALU and child-launch cycles exactly, plus this flat per-memory-
// instruction charge (a typical partially-coalesced access: a few sector
// transactions plus some replay cycles). Placement therefore tracks task
// *size* (edge counts, instruction counts) — the quantity the paper's load-
// balancing experiments vary — and not the cache state.
constexpr std::uint64_t kMemIssueWeight = 8;
}  // namespace

// --- WarpCtx -----------------------------------------------------------------

void WarpCtx::alu(std::uint32_t instructions, std::uint32_t active_lanes) {
  RDBS_DCHECK(active_lanes <= 32);
  GpuSim::TaskRecord& rec = sim_.task_records_[task_];
  rec.cycles += instructions;
  rec.weight += instructions;
  sim_.counters_.alu_instructions += instructions;
  sim_.counters_.active_lane_ops +=
      static_cast<std::uint64_t>(instructions) * active_lanes;
  sim_.counters_.issued_lane_ops += static_cast<std::uint64_t>(instructions) * 32;
}

std::uint64_t* WarpCtx::lane_slots() { return sim_.lane_addrs_.data(); }

void WarpCtx::count_mem(std::uint8_t kind, std::uint32_t lanes) {
  RDBS_DCHECK(active_task_valid());
  Counters& c = sim_.counters_;
  switch (kind) {
    case MemOp::kLoad: ++c.inst_executed_global_loads; break;
    case MemOp::kStore: ++c.inst_executed_global_stores; break;
    case MemOp::kAtomic: ++c.inst_executed_atomics; break;
    case MemOp::kVolatileLoad:
      ++c.inst_executed_global_loads;
      ++c.volatile_accesses;
      break;
    default:  // MemOp::kVolatileStore
      ++c.inst_executed_global_stores;
      ++c.volatile_accesses;
      break;
  }
  c.active_lane_ops += lanes;
  c.issued_lane_ops += 32;
  ++sim_.launch_ops_;
  // Scheduling weight stays cache-independent (see kMemIssueWeight).
  sim_.task_records_[task_].weight += kMemIssueWeight;
}

void WarpCtx::record_mem(std::uint8_t kind, std::uint32_t lanes) {
  count_mem(kind, lanes);
  // gsan reports depend on first-touch order, so the sanitizer checks the
  // lanes in their original order, before the charge sorts them in place.
  if (sanitize_) {
    sim_.sanitizer_->check_op(task_, kind, lanes, sim_.lane_addrs_.data());
  }
  sim_.charge_op(kind, lanes, task_);
}

void WarpCtx::record_load_range(std::uint64_t first_addr,
                                std::uint32_t elem_bytes,
                                std::uint32_t lanes) {
  count_mem(MemOp::kLoad, lanes);
  sim_.charge_range(first_addr, elem_bytes, lanes, task_);
}

std::uint64_t WarpCtx::checked_index_slow(const std::string& buffer_name,
                                          std::uint64_t index,
                                          std::uint64_t size) {
  return sim_.sanitizer_->checked_index(buffer_name, index, size, task_);
}

bool WarpCtx::active_task_valid() const {
  return sim_.active_task_ == task_ && task_ < sim_.task_records_.size();
}

void WarpCtx::child_launch() {
  ++sim_.counters_.child_launches;
  ++sim_.launch_child_launches_;
  const auto cycles = static_cast<std::uint64_t>(
      sim_.spec_.child_launch_us * 1e3 * sim_.spec_.clock_ghz);
  GpuSim::TaskRecord& rec = sim_.task_records_[task_];
  rec.cycles += cycles;
  rec.weight += cycles;
}

// --- GpuSim ------------------------------------------------------------------

GpuSim::GpuSim(DeviceSpec spec) : spec_(std::move(spec)), memory_(spec_) {
  spl_shift_ = memory_.spl_shift();
  const auto sms = static_cast<std::size_t>(spec_.num_sms);
  sm_load_.resize(sms);
  sm_cycles_.resize(sms);
  sm_longest_task_.resize(sms);
}

void GpuSim::enable_sanitizer(SanitizeMode mode) {
  RDBS_DCHECK(!launch_open_);  // a launch is checked whole or not at all
  if (mode == SanitizeMode::kOff) {
    sanitizer_.reset();
    return;
  }
  if (!sanitizer_) sanitizer_ = std::make_unique<Sanitizer>(memory_);
}

void GpuSim::enable_fault_injection(const FaultConfig& config) {
  if (!config.enabled) {
    fault_.reset();
    return;
  }
  fault_ = std::make_unique<FaultInjector>(config);
}

// --- stream timelines --------------------------------------------------------

GpuSim::StreamState& GpuSim::stream_state(StreamId stream) {
  RDBS_DCHECK(stream >= 0);
  const auto index = static_cast<std::size_t>(stream);
  if (index >= streams_.size()) streams_.resize(index + 1);
  return streams_[index];
}

const GpuSim::StreamState* GpuSim::stream_state_if(StreamId stream) const {
  const auto index = static_cast<std::size_t>(stream);
  if (stream < 0 || index >= streams_.size()) return nullptr;
  return &streams_[index];
}

double GpuSim::admit_kernel(StreamId stream, double duration_ms) {
  StreamState& state = stream_state(stream);
  const double arrival = state.time_ms;
  // Retire every in-flight kernel that has ended by the arrival time; the
  // survivors genuinely overlap this kernel's admission window.
  std::size_t live = 0;
  for (std::size_t i = 0; i < inflight_end_ms_.size(); ++i) {
    if (inflight_end_ms_[i] > arrival) inflight_end_ms_[live++] = inflight_end_ms_[i];
  }
  inflight_end_ms_.resize(live);

  double start = arrival;
  const auto cap = static_cast<std::size_t>(
      std::max(1, spec_.max_concurrent_kernels));
  if (inflight_end_ms_.size() >= cap) {
    // All slots held: FCFS onto the slot that frees first.
    std::size_t earliest = 0;
    for (std::size_t i = 1; i < inflight_end_ms_.size(); ++i) {
      if (inflight_end_ms_[i] < inflight_end_ms_[earliest]) earliest = i;
    }
    start = inflight_end_ms_[earliest];
    inflight_end_ms_.erase(inflight_end_ms_.begin() +
                           static_cast<std::ptrdiff_t>(earliest));
  }
  state.queue_wait_ms += start - arrival;
  state.time_ms = start + duration_ms;
  state.kernels += 1;
  // Launch completion vs. the serving deadline: a cooperatively cancelled
  // query keeps charging kernels until its next cancellation point; each of
  // them lands here so the overrun is observable (query_server metrics).
  if (state.deadline_ms >= 0 && state.time_ms > state.deadline_ms) {
    ++state.overrun_kernels;
  }
  inflight_end_ms_.push_back(state.time_ms);
  return start;
}

double GpuSim::elapsed_ms() const {
  double latest = 0;
  for (const StreamState& state : streams_) {
    latest = std::max(latest, state.time_ms);
  }
  return std::max(latest, device_work_ms_);
}

double GpuSim::stream_elapsed_ms(StreamId stream) const {
  const StreamState* state = stream_state_if(stream);
  return state ? state->time_ms : 0.0;
}

double GpuSim::stream_queue_wait_ms(StreamId stream) const {
  const StreamState* state = stream_state_if(stream);
  return state ? state->queue_wait_ms : 0.0;
}

std::uint64_t GpuSim::stream_kernels(StreamId stream) const {
  const StreamState* state = stream_state_if(stream);
  return state ? state->kernels : 0;
}

void GpuSim::reset_time() {
  streams_.clear();
  inflight_end_ms_.clear();
  device_work_ms_ = 0;
}

void GpuSim::reset_all() {
  reset_time();
  counters_ = Counters{};
  memory_.reset_caches();
  task_records_.clear();
  active_task_ = kNoTask;
  launch_ops_ = 0;
  launch_open_ = false;
}

void GpuSim::begin_launch(bool host_launch, StreamId stream,
                          Schedule schedule) {
  RDBS_DCHECK(!launch_open_);
  launch_open_ = true;
  launch_stream_ = stream;
  task_records_.clear();
  active_task_ = kNoTask;
  launch_ops_ = 0;
  dynamic_launch_ = schedule == Schedule::kDynamic;
  if (dynamic_launch_) {
    std::fill(sm_load_.begin(), sm_load_.end(), 0);
    // All-zero loads in SM order form a valid min-heap on (weight, sm).
    load_heap_.clear();
    for (int sm = 0; sm < spec_.num_sms; ++sm) {
      load_heap_.emplace_back(0, sm);
    }
  }
  launch_dram_bytes_ = 0;
  launch_child_launches_ = 0;
  if (host_launch) ++counters_.kernel_launches;
  ++launch_ordinal_;
  if (sanitizer_) {
    sanitizer_->begin_launch(pending_label_, launch_ordinal_, stream);
    pending_label_.clear();
  }
  if (fault_) {
    // Per-stream launch ordinal: the counter key for every fault this
    // launch can take. Drawn here, on the host thread, in launch order.
    const auto sidx = static_cast<std::size_t>(stream);
    if (stream_launch_ordinals_.size() <= sidx) {
      stream_launch_ordinals_.resize(sidx + 1, 0);
    }
    current_stream_launch_ = ++stream_launch_ordinals_[sidx];
    pending_launch_fault_.reset();
    if (!device_lost_ && fault_log_.size() < fault_->config().max_faults) {
      pending_launch_fault_ =
          fault_->launch_fault(stream, current_stream_launch_);
    }
  }
}

int GpuSim::pick_dynamic_sm() {
  // Least-loaded SM (persistent workers stealing from a shared queue
  // converge to exactly this assignment). The heap is lazy — commits
  // push fresh (weight, sm) entries without removing stale ones — so the
  // top is discarded until it matches the SM's current weight. Ties break
  // toward the lowest SM index, matching a linear argmin scan.
  while (true) {
    const auto& top = load_heap_.front();
    if (sm_load_[static_cast<std::size_t>(top.second)] == top.first) {
      return top.second;
    }
    std::pop_heap(load_heap_.begin(), load_heap_.end(), std::greater<>{});
    load_heap_.pop_back();
  }
}

WarpCtx GpuSim::begin_task(int sm) {
  RDBS_DCHECK(launch_open_);
  RDBS_DCHECK(active_task_ == kNoTask);
  const auto index = static_cast<std::uint32_t>(task_records_.size());
  TaskRecord rec;
  rec.sm = sm;
  task_records_.push_back(rec);
  active_task_ = index;
  return WarpCtx(*this, sm, index, sanitizer_ != nullptr, fault_ != nullptr);
}

void GpuSim::commit_task(const WarpCtx& ctx) {
  RDBS_DCHECK(active_task_ == ctx.task_);
  const TaskRecord& rec = task_records_[ctx.task_];
  active_task_ = kNoTask;
  if (!dynamic_launch_) return;  // only dynamic placement reads the weights
  const auto sm = static_cast<std::size_t>(rec.sm);
  sm_load_[sm] += rec.weight;
  load_heap_.emplace_back(sm_load_[sm], rec.sm);
  std::push_heap(load_heap_.begin(), load_heap_.end(), std::greater<>{});
}

std::uint64_t GpuSim::charge_l2(std::uint64_t line, std::uint32_t mask,
                                bool cached) {
  Counters& c = counters_;
  const auto probed = static_cast<std::uint64_t>(std::popcount(mask));
  c.l2_sector_accesses += probed;
  const std::uint32_t hits = memory_.l2_cache().access_line(line, mask);
  const auto hit_count = static_cast<std::uint64_t>(std::popcount(hits));
  c.l2_sector_hits += hit_count;
  const std::uint64_t miss_count = probed - hit_count;
  const std::uint64_t bytes = miss_count * SectoredCache::kSectorBytes;
  c.dram_bytes += bytes;
  launch_dram_bytes_ += bytes;
  std::uint64_t cycles = miss_count * kDramReplayCycles;
  if (cached) cycles += hit_count * kL2ReplayCycles;
  return cycles;
}

void GpuSim::charge_op(std::uint8_t kind, std::uint32_t lanes,
                       std::uint32_t task) {
  // Deliberately uninitialized: coalesce_warp_lanes writes the first
  // `co.lines` entries and only those are read. Zero-filling 512 bytes per
  // memory instruction showed up in profiles.
  std::array<WarpLineRef, 32> lines;
  const CoalesceResult co =
      coalesce_warp_lanes(lane_addrs_.data(), lanes, spl_shift_, lines.data());
  charge_lines(kind, lanes, co, lines.data(), task);
}

void GpuSim::charge_range(std::uint64_t first_addr, std::uint32_t elem_bytes,
                          std::uint32_t lanes, std::uint32_t task) {
  std::array<WarpLineRef, 32> lines;  // uninitialized, as in charge_op
  const CoalesceResult co = coalesce_contiguous_lanes(
      first_addr, elem_bytes, lanes, spl_shift_, lines.data());
  charge_lines(MemOp::kLoad, lanes, co, lines.data(), task);
}

void GpuSim::charge_lines(std::uint8_t kind, std::uint32_t lanes,
                          const CoalesceResult& co, const WarpLineRef* lines,
                          std::uint32_t task) {
  TaskRecord& rec = task_records_[task];
  Counters& c = counters_;
  c.memory_transactions += co.sectors;
  std::uint64_t cycles = co.sectors;
  // L2 requests are charged inline: tasks run serially in canonical order,
  // so the L2 sees one canonical-order request stream by construction. (A
  // deferred variant that queued requests and settled them in one batch at
  // end_launch measured ~30% slower end to end — the L2 tag table fits the
  // host LLC, so batching buys no locality and the queue traffic is pure
  // overhead.)
  if (kind == MemOp::kAtomic || MemOp::kind_is_volatile(kind)) {
    if (kind == MemOp::kAtomic) {
      const std::uint64_t conflicts = lanes - co.distinct_addrs;
      c.atomic_conflicts += conflicts;
      cycles += conflicts *
                static_cast<std::uint64_t>(spec_.atomic_conflict_cycles);
    }
    for (std::uint32_t i = 0; i < co.lines; ++i) {
      cycles += charge_l2(lines[i].line, lines[i].mask, /*cached=*/false);
    }
  } else {
    c.l1_sector_accesses += co.sectors;
    SectoredCache& l1 = memory_.l1(rec.sm);
    for (std::uint32_t i = 0; i < co.lines; ++i) {
      const std::uint32_t hits = l1.access_line(lines[i].line, lines[i].mask);
      c.l1_sector_hits += static_cast<std::uint64_t>(std::popcount(hits));
      const std::uint32_t missed = lines[i].mask & ~hits;
      if (missed != 0) {
        cycles += charge_l2(lines[i].line, missed, /*cached=*/true);
      }
    }
  }
  rec.cycles += cycles;
}

bool GpuSim::apply_launch_fault(LaunchResult& result) {
  const FaultConfig& cfg = fault_->config();
  std::optional<FaultClass> cls = pending_launch_fault_;
  pending_launch_fault_.reset();
  // Load faults inside this launch may have exhausted the budget after the
  // launch fault was drawn at begin_launch; the budget is a hard cap on
  // injections, so drop it. (Genuine watchdog timeouts below still record —
  // they are observed behavior, not injections.)
  if (cls && fault_log_.size() >= cfg.max_faults) cls.reset();
  FaultClass fired;
  if (cls) {
    fired = *cls;
  } else if (!device_lost_ && cfg.watchdog_ms > 0 &&
             result.ms > cfg.watchdog_ms) {
    // Cost-clock watchdog: a kernel whose modeled time exceeds the deadline
    // is killed and reported even when no fault was injected — a genuine
    // runaway (e.g. a corrupted frontier exploding a launch) surfaces as a
    // typed kTimeout instead of silently inflating the timeline.
    fired = FaultClass::kTimeout;
  } else {
    return true;
  }
  GpuFault fault;
  fault.cls = fired;
  fault.stream = launch_stream_;
  fault.launch = current_stream_launch_;
  switch (fired) {
    case FaultClass::kLaunchFailure:
      // The kernel never started: only the host launch overhead lands on
      // the stream. Record-phase effects stand — the attempt is poisoned
      // and discarded by the engine layer, matching CUDA's asynchronous
      // error model.
      result.ms = spec_.kernel_launch_us * 1e-3;
      break;
    case FaultClass::kTimeout:
      // The kernel hung; the watchdog killed it after watchdog_ms.
      result.ms = std::max(result.ms,
                           cfg.watchdog_ms > 0 ? cfg.watchdog_ms : 25.0);
      break;
    case FaultClass::kStreamStall:
      // Latency-only fault: the stream is held for stall_ms but the
      // launch's work is intact (non-poisoning; batch dispatch naturally
      // routes later queries around the delayed stream). The sanitizer
      // opens a fresh epoch so post-stall work is distinguishable.
      result.ms += cfg.stall_ms;
      if (sanitizer_) sanitizer_->stream_stall(launch_stream_);
      break;
    case FaultClass::kDeviceLoss:
      device_lost_ = true;
      break;
    default:
      break;
  }
  ++counters_.faults_injected;
  fault_log_.push_back(std::move(fault));
  return fired != FaultClass::kLaunchFailure;
}

LaunchResult GpuSim::end_launch(std::uint64_t tasks, bool host_launch) {
  RDBS_DCHECK(launch_open_);
  RDBS_DCHECK(active_task_ == kNoTask);
  RDBS_DCHECK(tasks == task_records_.size());
  // Every memory op already charged the caches, and under gsan passed the
  // sanitizer's per-op checks, as it was issued.
  if (sanitizer_) {
    sanitizer_->end_launch();
  } else {
    ++stats_.fused_launches;
  }
  ++stats_.launches;
  launch_open_ = false;

  std::fill(sm_cycles_.begin(), sm_cycles_.end(), 0.0);
  std::fill(sm_longest_task_.begin(), sm_longest_task_.end(), 0);
  for (const TaskRecord& rec : task_records_) {
    const auto sm = static_cast<std::size_t>(rec.sm);
    sm_cycles_[sm] += static_cast<double>(rec.cycles);
    sm_longest_task_[sm] = std::max(sm_longest_task_[sm], rec.cycles);
  }

  LaunchResult result;
  result.tasks = tasks;
  double worst_sm_cycles = 0;
  for (int sm = 0; sm < spec_.num_sms; ++sm) {
    const auto i = static_cast<std::size_t>(sm);
    result.busy_cycles += sm_cycles_[i];
    // An SM retires its resident warps at `warp_schedulers` instructions
    // per cycle once enough warps are in flight; a single long warp is the
    // lower bound (no parallelism inside one warp).
    const double sm_time =
        std::max(sm_cycles_[i] / spec_.warp_schedulers,
                 static_cast<double>(sm_longest_task_[i]));
    worst_sm_cycles = std::max(worst_sm_cycles, sm_time);
  }
  const double compute_ms = spec_.cycles_to_ms(worst_sm_cycles);
  const double dram_ms =
      spec_.bytes_to_ms(static_cast<double>(launch_dram_bytes_));
  result.ms = std::max(compute_ms, dram_ms);
  if (host_launch) result.ms += spec_.kernel_launch_us * 1e-3;
  const bool ran = !fault_ || apply_launch_fault(result);
  admit_kernel(launch_stream_, result.ms);
  // Aggregate-throughput floor on cross-stream overlap: the device cannot
  // retire total work faster than all SMs issuing flat out, nor move DRAM
  // traffic beyond peak bandwidth. Each launch's own ms already dominates
  // its contribution here, so a single stream never hits the floor. A
  // kernel that failed at launch did no device work.
  if (ran) {
    device_work_ms_ += std::max(
        spec_.cycles_to_ms(result.busy_cycles /
                           (static_cast<double>(spec_.num_sms) *
                            spec_.warp_schedulers)),
        dram_ms);
  }
  return result;
}

}  // namespace rdbs::gpusim
