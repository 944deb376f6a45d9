#include "core/multi_gpu.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <stdexcept>
#include <string>

#include "common/macros.hpp"
#include "core/device_graph.hpp"
#include "sssp/dijkstra.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
constexpr std::uint32_t kDeviceWord = 4;
// One remote relaxation message: packed (vertex id, fp32 distance).
constexpr double kMessageBytes = 8.0;
// Cursor cells of the per-shard queue control buffer.
constexpr std::uint64_t kTailCell[1] = {0};
constexpr std::uint64_t kOutboxCell[1] = {1};
}  // namespace

// Per-device state: its own simulator and device-resident buffers covering
// the whole graph's read-only structure slice plus the owned dist shard.
struct MultiGpuDeltaStepping::Shard {
  explicit Shard(gpusim::DeviceSpec spec) : sim(std::move(spec)) {}

  gpusim::GpuSim sim;
  VertexId first = 0, last = 0;  // owned vertex range [first, last)

  gpusim::Buffer<EdgeIndex> row_offsets;  // rows of owned vertices
  gpusim::Buffer<VertexId> adjacency;
  gpusim::Buffer<Weight> weights;
  gpusim::Buffer<Distance> dist;          // owned shard
  gpusim::Buffer<VertexId> queue;
  // [0]=local queue tail, [1]=outbox (remote message) cursor.
  gpusim::Buffer<std::uint32_t> queue_ctrl;
  gpusim::Buffer<std::uint8_t> in_queue;

  // A frontier entry remembers which device queue slot published it, so the
  // consuming pop can assert the publish landed (gsan no-progress check).
  // kNoSlot marks host-materialized entries (distance-gap refill) that never
  // pass through the device queue.
  static constexpr std::uint64_t kNoSlot = ~0ull;
  struct QueueEntry {
    VertexId v = 0;
    std::uint64_t slot = kNoSlot;
  };

  std::deque<QueueEntry> frontier;        // local ids of queued vertices
  std::uint64_t queue_tail = 0;           // host mirror of queue_ctrl[0]
  double busy_ms = 0;

  // Push `lv` into the device work queue: atomicAdd on the tail cursor
  // reserves the slot, then the id is written with st.cg (the slot may be
  // consumed concurrently by another warp of a later launch's pop).
  void charge_push(gpusim::WarpCtx& ctx, VertexId lv) {
    ctx.atomic_touch(queue_ctrl, std::span<const std::uint64_t>(kTailCell, 1));
    const std::uint64_t slot[1] = {queue_tail % queue.size()};
    queue[slot[0]] = lv;
    ++queue_tail;
    frontier.push_back({lv, slot[0]});
    ctx.volatile_touch(queue, std::span<const std::uint64_t>(slot, 1),
                       /*is_store=*/true);
  }

  bool owns(VertexId v) const { return v >= first && v < last; }
};

MultiGpuDeltaStepping::MultiGpuDeltaStepping(gpusim::DeviceSpec device_template,
                                             const graph::Csr& csr,
                                             MultiGpuOptions options)
    : csr_(csr), options_(options) {
  RDBS_CHECK(options_.num_devices >= 1);
  RDBS_CHECK(options_.delta0 > 0);
  const VertexId n = csr_.num_vertices();
  shard_size_ = (n + static_cast<VertexId>(options_.num_devices) - 1) /
                static_cast<VertexId>(options_.num_devices);
  RDBS_CHECK(shard_size_ > 0);

  for (int d = 0; d < options_.num_devices; ++d) {
    auto shard = std::make_unique<Shard>(device_template);
    shard->sim.enable_sanitizer(options_.sanitize);
    if (options_.fault.enabled) {
      // Independent per-device plan, still fully deterministic: derive the
      // shard seed from the configured seed and the device index.
      gpusim::FaultConfig shard_fault = options_.fault;
      shard_fault.seed ^=
          0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(d + 1);
      shard->sim.enable_fault_injection(shard_fault);
    }
    shard->first = static_cast<VertexId>(d) * shard_size_;
    shard->last = std::min<VertexId>(n, shard->first + shard_size_);
    const VertexId local_n =
        shard->last > shard->first ? shard->last - shard->first : 0;
    EdgeIndex local_m = 0;
    if (local_n > 0) {
      local_m = csr_.row_end(shard->last - 1) - csr_.row_begin(shard->first);
    }
    shard->row_offsets = shard->sim.alloc<EdgeIndex>(
        "row_offsets", local_n + 1, kDeviceWord);
    shard->adjacency = shard->sim.alloc<VertexId>(
        "adjacency", std::max<EdgeIndex>(local_m, 1), kDeviceWord);
    shard->weights = shard->sim.alloc<Weight>(
        "weights", std::max<EdgeIndex>(local_m, 1), kDeviceWord);
    shard->dist = shard->sim.alloc<Distance>(
        "dist", std::max<VertexId>(local_n, 1), kDeviceWord);
    shard->queue = shard->sim.alloc<VertexId>(
        "queue", std::max<VertexId>(local_n, 64), kDeviceWord);
    shard->queue_ctrl =
        shard->sim.alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
    shard->sim.mark_initialized(shard->queue_ctrl);
    shard->in_queue = shard->sim.alloc<std::uint8_t>(
        "in_queue", std::max<VertexId>(local_n, 1), 1);

    // Upload the owned rows (uncosted, as elsewhere).
    const EdgeIndex base = local_n > 0 ? csr_.row_begin(shard->first) : 0;
    for (VertexId v = 0; v < local_n; ++v) {
      shard->row_offsets[v] = csr_.row_begin(shard->first + v) - base;
    }
    shard->row_offsets[local_n] = local_m;
    for (EdgeIndex e = 0; e < local_m; ++e) {
      shard->adjacency[e] = csr_.adjacency()[base + e];
      shard->weights[e] = csr_.weights()[base + e];
    }
    // H2D upload of the immutable CSR slice.
    shard->sim.mark_initialized(shard->row_offsets);
    shard->sim.mark_initialized(shard->adjacency);
    shard->sim.mark_initialized(shard->weights);
    shard->sim.mark_read_only(shard->row_offsets);
    shard->sim.mark_read_only(shard->adjacency);
    shard->sim.mark_read_only(shard->weights);
    shards_.push_back(std::move(shard));
  }
}

std::string MultiGpuDeltaStepping::sanitizer_report() const {
  std::string out;
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    const gpusim::Sanitizer* san = shards_[d]->sim.sanitizer();
    if (san == nullptr) continue;
    const std::string rep = san->report();
    std::size_t pos = 0;
    while (pos < rep.size()) {
      std::size_t nl = rep.find('\n', pos);
      if (nl == std::string::npos) nl = rep.size();
      out += "[gpu" + std::to_string(d) + "] ";
      out.append(rep, pos, nl - pos);
      out += '\n';
      pos = nl + 1;
    }
  }
  return out;
}

MultiGpuDeltaStepping::~MultiGpuDeltaStepping() = default;

bool MultiGpuDeltaStepping::any_device_lost() const {
  for (const auto& shard : shards_) {
    if (shard->sim.device_lost()) return true;
  }
  return false;
}

bool MultiGpuDeltaStepping::attempt_poisoned() const {
  if (any_device_lost()) return true;
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    const auto& log = shards_[d]->sim.fault_log();
    const std::size_t begin =
        d < fault_scan_begin_.size() ? fault_scan_begin_[d] : 0;
    for (std::size_t i = begin; i < log.size(); ++i) {
      if (log[i].poisons()) return true;
    }
  }
  return false;
}

MultiGpuRunResult MultiGpuDeltaStepping::run(VertexId source) {
  if (source >= csr_.num_vertices()) {
    throw std::out_of_range(
        "MultiGpuDeltaStepping: source vertex out of range");
  }
  bool any_injection = any_device_lost();
  for (const auto& shard : shards_) {
    any_injection |= shard->sim.fault_injector() != nullptr;
  }
  if (!any_injection) {
    MultiGpuRunResult result = run_attempt(source);
    result.ok = true;
    return result;
  }

  // Manual recovery loop (AttemptDriver drives a single simulator; here
  // every shard has its own, so faults are scanned per shard and tagged
  // with the device index).
  RecoveryStats recovery;
  std::vector<gpusim::GpuFault> faults;
  double spent_compute = 0, spent_exchange = 0, spent_makespan = 0;
  double backoff = std::max(0.0, options_.retry.backoff_ms);
  const int max_attempts = std::max(1, options_.retry.max_attempts);

  for (int attempt_no = 0; attempt_no < max_attempts; ++attempt_no) {
    if (any_device_lost()) break;
    MultiGpuRunResult result = run_attempt(source);
    bool poisoned = false;
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      const auto& log = shards_[d]->sim.fault_log();
      for (std::size_t i = fault_scan_begin_[d]; i < log.size(); ++i) {
        gpusim::GpuFault fault = log[i];
        fault.device = static_cast<int>(d);
        if (fault.correctable()) ++recovery.ecc_corrected;
        if (fault.poisons()) poisoned = true;
        ++recovery.faults_injected;
        faults.push_back(fault);
      }
    }
    const bool lost = any_device_lost();
    recovery.device_lost = recovery.device_lost || lost;
    if (lost) poisoned = true;

    if (!poisoned) {
      result.compute_ms += spent_compute;
      result.exchange_ms += spent_exchange;
      result.makespan_ms += spent_makespan;
      result.ok = true;
      result.faults = std::move(faults);
      result.recovery = recovery;
      return result;
    }
    spent_compute += result.compute_ms;
    spent_exchange += result.exchange_ms;
    spent_makespan += result.makespan_ms;
    if (lost) break;  // a dead shard cannot be re-packed; fall back
    if (attempt_no + 1 < max_attempts) {
      ++recovery.retries;
      spent_makespan += backoff;
      spent_compute += backoff;
      // Re-upload any poisoned read-only CSR slices (charged as the max
      // across shards — the uploads run concurrently).
      double reupload_ms = 0;
      for (auto& shard : shards_) {
        const std::uint64_t bytes =
            shard->sim.memory().poisoned_read_only_bytes();
        if (bytes > 0) {
          reupload_ms = std::max(reupload_ms, shard->sim.memcpy_ms(bytes));
          shard->sim.memory().clear_poison();
        }
      }
      spent_makespan += reupload_ms;
      spent_compute += reupload_ms;
      backoff *= options_.retry.backoff_multiplier;
    }
  }

  recovery.device_lost = recovery.device_lost || any_device_lost();
  MultiGpuRunResult result;
  result.compute_ms = spent_compute;
  result.exchange_ms = spent_exchange;
  result.makespan_ms = spent_makespan;
  result.faults = std::move(faults);
  if (options_.retry.cpu_fallback) {
    result.sssp = sssp::dijkstra(csr_, source);
    ++recovery.cpu_fallbacks;
    result.ok = true;
  } else {
    result.ok = false;
  }
  result.recovery = recovery;
  return result;
}

MultiGpuRunResult MultiGpuDeltaStepping::run_attempt(VertexId source) {
  fault_scan_begin_.assign(shards_.size(), 0);
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    fault_scan_begin_[d] = shards_[d]->sim.fault_log().size();
  }
  MultiGpuRunResult result;
  const Weight delta = options_.delta0;

  for (auto& shard : shards_) {
    shard->sim.reset_all();
    shard->frontier.clear();
    shard->queue_tail = 0;
    shard->busy_ms = 0;
    std::fill(shard->dist.data().begin(), shard->dist.data().end(),
              graph::kInfiniteDistance);
    std::fill(shard->in_queue.data().begin(), shard->in_queue.data().end(),
              0);
    // Init kernel per device (parallel across devices: makespan takes max).
    if (shard->last == shard->first) continue;
    init_distances(shard->sim, /*stream=*/0, shard->dist);
  }
  {
    double init_ms = 0;
    for (auto& shard : shards_) {
      init_ms = std::max(init_ms, shard->sim.elapsed_ms());
      shard->sim.reset_time();
    }
    result.compute_ms += init_ms;
  }

  Shard& source_shard = *shards_[static_cast<std::size_t>(owner_of(source))];
  source_shard.dist[source - source_shard.first] = 0;
  source_shard.frontier.push_back({source - source_shard.first, 0});
  source_shard.in_queue[source - source_shard.first] = 1;
  // Host-side seed of the owner's device queue (H2D upload).
  source_shard.queue[0] = source - source_shard.first;
  source_shard.sim.mark_initialized(source_shard.queue, 0, 1);
  source_shard.sim.mark_initialized(source_shard.dist,
                                    source - source_shard.first, 1);
  source_shard.queue_tail = 1;

  auto dist_of = [&](VertexId v) -> Distance& {
    Shard& shard = *shards_[static_cast<std::size_t>(owner_of(v))];
    return shard.dist[v - shard.first];
  };

  Weight lo = 0;
  Weight hi = delta;
  const std::uint64_t max_buckets = 16 * (csr_.num_vertices() + 64);
  std::uint64_t bucket_count = 0;

  // Messages staged for the next exchange: per destination device.
  std::vector<std::vector<std::pair<VertexId, Distance>>> outbox(
      shards_.size());

  auto run_exchange = [&]() {
    // Coalesce per destination: several improvements to the same remote
    // vertex within a round collapse to the minimum (the standard
    // message-reduction optimization; sorting cost is on the sender and
    // negligible next to the wire time it saves).
    for (auto& box : outbox) {
      std::sort(box.begin(), box.end());
      box.erase(std::unique(box.begin(), box.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                box.end());
    }
    std::uint64_t batch = 0;
    for (auto& box : outbox) batch += box.size();
    if (batch == 0) return false;
    ++result.exchange_rounds;
    result.messages += batch;
    // All-to-all: pairs transfer concurrently; the bottleneck is the
    // busiest link (approximated by the largest per-destination volume),
    // plus a fixed round latency.
    std::uint64_t busiest = 0;
    for (auto& box : outbox) {
      busiest = std::max<std::uint64_t>(busiest, box.size());
    }
    result.exchange_ms +=
        options_.interconnect.latency_us * 1e-3 +
        static_cast<double>(busiest) * kMessageBytes /
            (options_.interconnect.bandwidth_gbps * 1e6);
    // Owners apply the messages (an atomicMin kernel per device; charge on
    // the owning device, then clear the boxes).
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      Shard& shard = *shards_[d];
      auto& box = outbox[d];
      if (box.empty()) continue;
      shard.sim.label_next_launch("apply_messages");
      gpusim::KernelScope apply(shard.sim, gpusim::Schedule::kStatic, true);
      for (std::size_t base = 0; base < box.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, box.size() - base));
        auto ctx = apply.make_warp();
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> val{};
        for (std::uint32_t i = 0; i < cnt; ++i) {
          idx[i] = box[base + i].first - shard.first;
          val[i] = box[base + i].second;
        }
        std::array<std::uint8_t, 32> improved{};
        ctx.atomic_min(shard.dist,
                       std::span<const std::uint64_t>(idx.data(), cnt),
                       std::span<const Distance>(val.data(), cnt),
                       std::span<std::uint8_t>(improved.data(), cnt));
        for (std::uint32_t i = 0; i < cnt; ++i) {
          if (!improved[i]) continue;
          const auto local = static_cast<VertexId>(idx[i]);
          if (val[i] < hi && !shard.in_queue[local]) {
            shard.in_queue[local] = 1;
            shard.charge_push(ctx, local);
          }
        }
        apply.commit(ctx);
      }
      apply.finish();
    }
    for (auto& box : outbox) box.clear();
    return true;
  };

  // Relaxes edge range [eb, ee) of local vertex `lv` on shard `shard`
  // against the window predicate; local improvements are queued, remote
  // targets become messages.
  auto relax_range = [&](Shard& shard, gpusim::WarpCtx& ctx, VertexId lv,
                         EdgeIndex eb, EdgeIndex ee, bool light_only,
                         bool heavy_only) {
    const Distance du = ctx.load_one(shard.dist, lv);
    for (EdgeIndex base = eb; base < ee; base += 32) {
      const auto cnt =
          static_cast<std::uint32_t>(std::min<EdgeIndex>(32, ee - base));
      std::array<std::uint64_t, 32> eidx{};
      for (std::uint32_t i = 0; i < cnt; ++i) eidx[i] = base + i;
      std::span<const std::uint64_t> es(eidx.data(), cnt);
      std::array<VertexId, 32> dsts{};
      std::array<Weight, 32> ws{};
      ctx.load(shard.adjacency, es, std::span<VertexId>(dsts.data(), cnt));
      ctx.load(shard.weights, es, std::span<Weight>(ws.data(), cnt));
      ctx.alu(3, cnt);  // window predicate + add + compare
      for (std::uint32_t i = 0; i < cnt; ++i) {
        if (light_only && ws[i] >= delta) continue;
        if (heavy_only && ws[i] < delta) continue;
        const VertexId target = dsts[i];
        const Distance through = du + ws[i];
        if (shard.owns(target)) {
          const VertexId local = target - shard.first;
          if (ctx.atomic_min_one(shard.dist, local, through)) {
            if (through < hi && !shard.in_queue[local]) {
              shard.in_queue[local] = 1;
              shard.charge_push(ctx, local);
            }
          }
        } else {
          // Remote: stage a message (atomicAdd on the outbox cursor; the
          // message payload buffer itself is not modeled).
          if (through < dist_of(target)) {
            outbox[static_cast<std::size_t>(owner_of(target))].emplace_back(
                target, through);
            ctx.atomic_touch(shard.queue_ctrl,
                             std::span<const std::uint64_t>(kOutboxCell, 1));
          }
        }
      }
    }
  };

  while (true) {
    if (any_device_lost()) break;  // attempt is void; recovery takes over
    if (++bucket_count >= max_buckets) {
      // Corrupted distances can stall the bucket walk; the poisoned
      // attempt is discarded by the retry driver. A clean-device runaway
      // is still a hard bug.
      RDBS_CHECK_MSG(attempt_poisoned(), "multi-GPU bucket loop runaway");
      break;
    }

    // --- Phase 1 (bucket-synchronous inner rounds) ------------------------
    bool any_work = false;
    for (auto& shard : shards_) any_work |= !shard->frontier.empty();
    while (any_work) {
      if (any_device_lost()) break;
      double round_ms = 0;
      for (auto& shard : shards_) {
        if (shard->frontier.empty()) continue;
        shard->sim.label_next_launch("phase1_light");
        gpusim::KernelScope kernel(shard->sim, gpusim::Schedule::kDynamic,
                                   true);
        while (!shard->frontier.empty()) {
          const Shard::QueueEntry entry = shard->frontier.front();
          shard->frontier.pop_front();
          const VertexId lv = entry.v;
          shard->in_queue[lv] = 0;
          const Distance d = shard->dist[lv];
          if (d < lo || d >= hi) continue;  // stale
          auto ctx = kernel.make_warp();
          if (entry.slot != Shard::kNoSlot) {
            // Pop contract: the enqueuer's st.cg publish must be visible.
            ctx.spin_wait(shard->queue, entry.slot);
          }
          relax_range(*shard, ctx, lv, shard->row_offsets[lv],
                      shard->row_offsets[lv + 1], /*light_only=*/true,
                      /*heavy_only=*/false);
          kernel.commit(ctx);
        }
        kernel.finish();
        round_ms = std::max(round_ms, shard->sim.elapsed_ms());
        shard->busy_ms += shard->sim.elapsed_ms();
        shard->sim.reset_time();
      }
      result.compute_ms += round_ms;
      const bool exchanged = run_exchange();
      any_work = false;
      for (auto& shard : shards_) any_work |= !shard->frontier.empty();
      if (!exchanged && !any_work) break;
    }

    // --- Phase 2&3 per device: heavy edges + next bucket collection -------
    double scan_ms = 0;
    std::uint64_t remaining = 0;
    Distance min_unsettled = graph::kInfiniteDistance;
    for (auto& shard : shards_) {
      const VertexId local_n = shard->last - shard->first;
      if (local_n == 0) continue;
      shard->sim.label_next_launch("phase2_heavy");
      gpusim::KernelScope scan(shard->sim, gpusim::Schedule::kStatic, true);
      for (VertexId base = 0; base < local_n; base += 32) {
        const auto cnt =
            static_cast<std::uint32_t>(std::min<VertexId>(32, local_n - base));
        auto ctx = scan.make_warp();
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) idx[i] = base + i;
        ctx.load(shard->dist, std::span<const std::uint64_t>(idx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(3, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId lv = base + i;
          const Distance d = shard->dist[lv];
          if (d >= lo && d < hi) {
            relax_range(*shard, ctx, lv, shard->row_offsets[lv],
                        shard->row_offsets[lv + 1], /*light_only=*/false,
                        /*heavy_only=*/true);
          }
        }
        scan.commit(ctx);
      }
      scan.finish();
    }
    // Heavy relaxations may have produced remote messages for the next
    // bucket; exchange them before collection.
    run_exchange();

    for (auto& shard : shards_) {
      const VertexId local_n = shard->last - shard->first;
      if (local_n == 0) continue;
      shard->sim.label_next_launch("collect_bucket");
      gpusim::KernelScope collect(shard->sim, gpusim::Schedule::kStatic,
                                  true);
      for (VertexId base = 0; base < local_n; base += 32) {
        const auto cnt =
            static_cast<std::uint32_t>(std::min<VertexId>(32, local_n - base));
        auto ctx = collect.make_warp();
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) idx[i] = base + i;
        ctx.load(shard->dist, std::span<const std::uint64_t>(idx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(3, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId lv = base + i;
          const Distance d = shard->dist[lv];
          if (d == graph::kInfiniteDistance) continue;
          if (d >= hi) {
            ++remaining;
            min_unsettled = std::min(min_unsettled, d);
            if (d < hi + delta && !shard->in_queue[lv]) {
              shard->in_queue[lv] = 1;
              shard->charge_push(ctx, lv);
            }
          }
        }
        collect.commit(ctx);
      }
      collect.finish();
      scan_ms = std::max(scan_ms, shard->sim.elapsed_ms());
      shard->busy_ms += shard->sim.elapsed_ms();
      shard->sim.reset_time();
    }
    result.compute_ms += scan_ms;

    bool have_frontier = false;
    for (auto& shard : shards_) have_frontier |= !shard->frontier.empty();
    if (!have_frontier) {
      if (remaining == 0) break;
      // Jump the distance gap.
      lo = min_unsettled;
      hi = lo + delta;
      for (auto& shard : shards_) {
        const VertexId local_n = shard->last - shard->first;
        for (VertexId lv = 0; lv < local_n; ++lv) {
          const Distance d = shard->dist[lv];
          if (d != graph::kInfiniteDistance && d >= lo && d < hi &&
              !shard->in_queue[lv]) {
            shard->in_queue[lv] = 1;
            // Host-side refill: no device queue slot backs this entry.
            shard->frontier.push_back({lv, Shard::kNoSlot});
          }
        }
      }
      continue;
    }
    lo = hi;
    hi = lo + delta;
  }

  // Assemble the global distance array.
  result.sssp.distances.resize(csr_.num_vertices());
  for (const auto& shard : shards_) {
    for (VertexId lv = 0; lv < shard->last - shard->first; ++lv) {
      result.sssp.distances[shard->first + lv] = shard->dist[lv];
    }
  }
  sssp::finalize_valid_updates(result.sssp, source);
  result.makespan_ms = result.compute_ms + result.exchange_ms;
  for (const auto& shard : shards_) {
    result.per_device_busy_ms.push_back(shard->busy_ms);
  }
  return result;
}

}  // namespace rdbs::core
