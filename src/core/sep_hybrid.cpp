#include "core/sep_hybrid.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/macros.hpp"
#include "graph/stats.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
constexpr std::uint32_t kDeviceWord = 4;
}

SepHybrid::SepHybrid(gpusim::DeviceSpec device, const graph::Csr& csr,
                     SepHybridOptions options)
    : sim_(std::move(device)),
      csr_(csr),
      options_(options),
      driver_("SepHybrid", sim_, /*stream=*/0, csr_, options_.retry,
              /*reset_per_attempt=*/true, AttemptDriver::Clock::kDevice),
      csr_symmetric_(graph::is_symmetric(csr_)) {
  sim_.enable_sanitizer(options_.sanitize);
  if (options_.fault.enabled) sim_.enable_fault_injection(options_.fault);
  const VertexId n = csr_.num_vertices();
  graph_ = DeviceCsrBuffers::upload(sim_, csr_);
  dist_ = sim_.alloc<Distance>("dist", n, kDeviceWord);
  auto slots = sim_.alloc<VertexId>("queue", std::max<std::size_t>(n, 64),
                                    kDeviceWord);
  // [0]=tail, [1]=head cursors.
  const auto ctrl = sim_.alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
  sim_.mark_initialized(ctrl);
  queue_.bind(sim_, std::move(slots), ctrl, /*tail_cell=*/0, /*head_cell=*/1,
              sim_.alloc<std::uint8_t>("in_queue", n, 1));
}

SepMode SepHybrid::choose_mode(std::uint64_t frontier_vertices,
                               std::uint64_t frontier_edges) const {
  if (csr_symmetric_ &&
      frontier_edges >
          static_cast<std::uint64_t>(options_.pull_edge_fraction *
                                     static_cast<double>(csr_.num_edges()))) {
    return SepMode::kSyncPull;
  }
  if (frontier_vertices <= options_.async_frontier_limit) {
    return SepMode::kAsyncPush;
  }
  return SepMode::kSyncPush;
}

SepRunResult SepHybrid::run(VertexId source) {
  SepRunResult result;
  result.gpu = driver_.run(source, [&] {
    result.rounds.clear();
    return run_attempt(source, result.rounds);
  });
  // After a CPU fallback (or a typed failure) the round log would describe
  // a discarded device attempt, not the distances returned — drop it.
  if (result.gpu.recovery.cpu_fallbacks > 0 || !result.gpu.ok) {
    result.rounds.clear();
  }
  return result;
}

GpuRunResult SepHybrid::run_attempt(VertexId source,
                                    std::vector<SepRound>& round_log) {
  driver_.begin_attempt(dist_);
  const VertexId n = csr_.num_vertices();
  sssp::WorkStats work;
  queue_.reset();
  init_distances(sim_, /*stream=*/0, dist_, queue_.flags());
  seed_source(sim_, /*stream=*/0, dist_, source);
  // Host-side seed of the device work queue (H2D upload).
  queue_.seed(source);
  queue_.publish();

  // Relax the out-edges of one popped vertex batch, thread-per-vertex.
  auto push_warp = [&](gpusim::WarpCtx& ctx,
                       std::span<const VertexId> lanes) {
    const auto lane_count = static_cast<std::uint32_t>(lanes.size());
    queue_.charge_pop(ctx, lanes);
    std::array<std::uint64_t, 32> vidx{};
    std::array<std::uint64_t, 32> vidx1{};
    for (std::uint32_t i = 0; i < lane_count; ++i) {
      vidx[i] = lanes[i];
      vidx1[i] = lanes[i] + 1;
    }
    std::span<const std::uint64_t> vs(vidx.data(), lane_count);
    std::array<Distance, 32> du{};
    ctx.load(dist_, vs, std::span<Distance>(du.data(), lane_count));
    std::array<EdgeIndex, 32> rb{};
    std::array<EdgeIndex, 32> re{};
    {
      std::array<EdgeIndex, 32> tmp{};
      ctx.load(graph_.row_offsets, vs,
               std::span<EdgeIndex>(tmp.data(), lane_count));
      for (std::uint32_t i = 0; i < lane_count; ++i) rb[i] = tmp[i];
      ctx.load(graph_.row_offsets,
               std::span<const std::uint64_t>(vidx1.data(), lane_count),
               std::span<EdgeIndex>(tmp.data(), lane_count));
      for (std::uint32_t i = 0; i < lane_count; ++i) re[i] = tmp[i];
    }
    ctx.alu(2, lane_count);
    std::uint64_t max_deg = 0;
    for (std::uint32_t i = 0; i < lane_count; ++i) {
      max_deg = std::max<std::uint64_t>(max_deg, re[i] - rb[i]);
    }
    for (std::uint64_t s = 0; s < max_deg; ++s) {
      std::array<std::uint64_t, 32> eidx{};
      std::array<std::uint32_t, 32> owner{};
      std::uint32_t cnt = 0;
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        if (rb[i] + s < re[i]) {
          eidx[cnt] = rb[i] + s;
          owner[cnt] = i;
          ++cnt;
        }
      }
      if (cnt == 0) break;
      std::span<const std::uint64_t> es(eidx.data(), cnt);
      std::array<VertexId, 32> dsts{};
      std::array<Weight, 32> ws{};
      ctx.load(graph_.adjacency, es, std::span<VertexId>(dsts.data(), cnt));
      ctx.load(graph_.weights, es, std::span<Weight>(ws.data(), cnt));
      ctx.alu(2, cnt);
      work.relaxations += cnt;
      std::array<std::uint64_t, 32> tgt{};
      std::array<Distance, 32> val{};
      for (std::uint32_t i = 0; i < cnt; ++i) {
        tgt[i] = dsts[i];
        val[i] = du[owner[i]] + ws[i];
      }
      std::array<std::uint8_t, 32> improved{};
      ctx.atomic_min(dist_, std::span<const std::uint64_t>(tgt.data(), cnt),
                     std::span<const Distance>(val.data(), cnt),
                     std::span<std::uint8_t>(improved.data(), cnt));
      for (std::uint32_t i = 0; i < cnt; ++i) {
        if (!improved[i]) continue;
        ++work.total_updates;
        queue_.offer(static_cast<VertexId>(tgt[i]));
      }
      queue_.charge_push(ctx);
    }
  };

  const std::uint64_t max_rounds = 8 * (std::uint64_t(n) + 16);
  std::uint64_t rounds = 0;
  while (!queue_.empty()) {
    if (sim_.device_lost()) break;  // attempt is void; recovery takes over
    if (++rounds >= max_rounds) {
      // Corrupted distances can legitimately stall convergence; the
      // poisoned attempt is discarded by the retry driver. A genuine
      // runaway on a clean device is still a hard bug.
      RDBS_CHECK_MSG(driver_.poisoned(), "SEP hybrid failed to converge");
      break;
    }
    // Round bookkeeping: size + out-edge volume of the entering frontier.
    std::uint64_t frontier_edges = 0;
    for (const VertexId v : queue_.pending()) frontier_edges += csr_.degree(v);
    const SepMode mode = choose_mode(queue_.size(), frontier_edges);

    SepRound round;
    round.mode = mode;
    round.frontier = queue_.size();
    round.frontier_edges = frontier_edges;
    const double ms_before = sim_.elapsed_ms();
    ++work.iterations;

    if (mode == SepMode::kSyncPull) {
      // Topology-driven pull: one full scan; every vertex gathers over its
      // in-edges (symmetric CSR: same as out-edges) — no atomics. The
      // entire frontier is consumed; improved vertices form the next one.
      queue_.drop_pending();
      const std::uint64_t warps = (n + 31) / 32;
      sim_.label_next_launch("pull_sweep");
      sim_.run_kernel(
          gpusim::Schedule::kStatic, warps, 8,
          [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
            const std::uint64_t begin = w * 32;
            const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
            const auto lanes = static_cast<std::uint32_t>(end - begin);
            std::array<std::uint64_t, 32> idx{};
            std::array<std::uint64_t, 32> idx1{};
            for (std::uint32_t i = 0; i < lanes; ++i) {
              idx[i] = begin + i;
              idx1[i] = begin + i + 1;
            }
            std::span<const std::uint64_t> is(idx.data(), lanes);
            std::array<Distance, 32> dv{};
            ctx.load(dist_, is, std::span<Distance>(dv.data(), lanes));
            std::array<EdgeIndex, 32> rb{};
            std::array<EdgeIndex, 32> re{};
            {
              std::array<EdgeIndex, 32> tmp{};
              ctx.load(graph_.row_offsets, is,
                       std::span<EdgeIndex>(tmp.data(), lanes));
              for (std::uint32_t i = 0; i < lanes; ++i) rb[i] = tmp[i];
              ctx.load(graph_.row_offsets,
                       std::span<const std::uint64_t>(idx1.data(), lanes),
                       std::span<EdgeIndex>(tmp.data(), lanes));
              for (std::uint32_t i = 0; i < lanes; ++i) re[i] = tmp[i];
            }
            ctx.alu(2, lanes);
            std::array<Distance, 32> best = dv;
            std::uint64_t max_deg = 0;
            for (std::uint32_t i = 0; i < lanes; ++i) {
              max_deg = std::max<std::uint64_t>(max_deg, re[i] - rb[i]);
            }
            for (std::uint64_t s = 0; s < max_deg; ++s) {
              std::array<std::uint64_t, 32> eidx{};
              std::array<std::uint32_t, 32> owner{};
              std::uint32_t cnt = 0;
              for (std::uint32_t i = 0; i < lanes; ++i) {
                if (rb[i] + s < re[i]) {
                  eidx[cnt] = rb[i] + s;
                  owner[cnt] = i;
                  ++cnt;
                }
              }
              if (cnt == 0) break;
              std::span<const std::uint64_t> es(eidx.data(), cnt);
              std::array<VertexId, 32> srcs{};
              std::array<Weight, 32> ws{};
              ctx.load(graph_.adjacency, es,
                       std::span<VertexId>(srcs.data(), cnt));
              ctx.load(graph_.weights, es, std::span<Weight>(ws.data(), cnt));
              // Gather the in-neighbors' current distances.
              std::array<std::uint64_t, 32> nidx{};
              for (std::uint32_t i = 0; i < cnt; ++i) nidx[i] = srcs[i];
              std::array<Distance, 32> dn{};
              ctx.load(dist_, std::span<const std::uint64_t>(nidx.data(), cnt),
                       std::span<Distance>(dn.data(), cnt));
              ctx.alu(2, cnt);
              work.relaxations += cnt;
              for (std::uint32_t i = 0; i < cnt; ++i) {
                best[owner[i]] = std::min(best[owner[i]], dn[i] + ws[i]);
              }
            }
            // Plain (non-atomic) store of improved distances + frontier
            // membership flags.
            std::array<std::uint64_t, 32> sidx{};
            std::array<Distance, 32> sval{};
            std::uint32_t scnt = 0;
            for (std::uint32_t i = 0; i < lanes; ++i) {
              if (best[i] < dv[i]) {
                sidx[scnt] = begin + i;
                sval[scnt] = best[i];
                ++scnt;
                ++work.total_updates;
                queue_.offer(static_cast<VertexId>(begin + i));
              }
            }
            if (scnt > 0) {
              // st.cg write-back: pull writes only the lane's own vertex,
              // so no atomic is needed (the mode's key saving) — but other
              // warps gather these cells concurrently, so the store must
              // bypass L1 (a plain cached store would be a data race).
              ctx.volatile_store(dist_,
                                 std::span<const std::uint64_t>(sidx.data(),
                                                                scnt),
                                 std::span<const Distance>(sval.data(), scnt));
            }
          });
      sim_.host_barrier();
      // The sweep's improved vertices become the next frontier; mirror the
      // compaction kernel's output into the device queue window.
      queue_.publish();
    } else if (mode == SepMode::kAsyncPush) {
      // Async drains continuously, but SEP re-evaluates its decision when
      // the signal changes: once the frontier outgrows the async regime,
      // the persistent kernel retires and the next round re-decides.
      sim_.label_next_launch("async_push");
      gpusim::KernelScope kernel(sim_, gpusim::Schedule::kDynamic, true);
      while (!queue_.empty() &&
             queue_.size() <= 4 * options_.async_frontier_limit) {
        std::array<VertexId, 32> lanes{};
        const std::uint32_t cnt = queue_.take_front(lanes);
        auto ctx = kernel.make_warp();
        push_warp(ctx, std::span<const VertexId>(lanes.data(), cnt));
        kernel.commit(ctx);
      }
      kernel.finish();
    } else {  // kSyncPush
      const std::vector<VertexId> sweep = queue_.take_all();
      sim_.label_next_launch("sync_push");
      gpusim::KernelScope kernel(sim_, gpusim::Schedule::kStatic, true);
      for (std::size_t base = 0; base < sweep.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, sweep.size() - base));
        auto ctx = kernel.make_warp();
        push_warp(ctx,
                  std::span<const VertexId>(sweep.data() + base, cnt));
        kernel.commit(ctx);
      }
      kernel.finish();
      sim_.host_barrier();
    }

    round.ms = sim_.elapsed_ms() - ms_before;
    if (options_.instrument) round_log.push_back(round);
  }

  GpuRunResult gpu;
  gpu.sssp.work = work;
  return driver_.finish(std::move(gpu), dist_, source);
}

}  // namespace rdbs::core
