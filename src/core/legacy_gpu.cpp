#include "core/legacy_gpu.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/macros.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
constexpr std::uint32_t kDeviceWord = 4;
}

// ---------------------------------------------------------------------------
// Harish & Narayanan (2007)
// ---------------------------------------------------------------------------

HarishNarayanan::HarishNarayanan(DeviceBinding device, const graph::Csr& csr,
                                 const EngineOptions& options)
    : csr_(csr), driver_("HarishNarayanan", std::move(device), csr_, options) {
  const VertexId n = csr_.num_vertices();
  dist_ = sim().alloc<Distance>("cost", n, kDeviceWord);
  updating_dist_ = sim().alloc<Distance>("updating_cost", n, kDeviceWord);
  mask_ = sim().alloc<std::uint8_t>("mask", n, 1);
}

GpuRunResult HarishNarayanan::run(VertexId source) {
  return driver_.run(source, [&] { return run_attempt(source); });
}

GpuRunResult HarishNarayanan::run_attempt(VertexId source) {
  driver_.begin_attempt(dist_);
  const VertexId n = csr_.num_vertices();
  const std::uint64_t warps = (n + 31) / 32;
  sssp::WorkStats work;

  // Initialization kernel: cost = updating_cost = inf, mask = 0; then the
  // source seeded by a one-thread kernel (exactly the 2007 structure).
  sim().label_next_launch("init_arrays");
  sim().run_kernel(
      gpusim::Schedule::kStatic, warps, 8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
        const std::uint64_t begin = w * 32;
        const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
        const auto lanes = static_cast<std::uint32_t>(end - begin);
        std::array<std::uint64_t, 32> idx{};
        std::array<Distance, 32> inf{};
        std::array<std::uint8_t, 32> zero{};
        for (std::uint32_t i = 0; i < lanes; ++i) {
          idx[i] = begin + i;
          inf[i] = graph::kInfiniteDistance;
          zero[i] = 0;
        }
        std::span<const std::uint64_t> is(idx.data(), lanes);
        ctx.store(dist_, is, std::span<const Distance>(inf.data(), lanes));
        ctx.store(updating_dist_, is,
                  std::span<const Distance>(inf.data(), lanes));
        ctx.store(mask_, is,
                  std::span<const std::uint8_t>(zero.data(), lanes));
      },
      /*host_launch=*/true, stream());
  sim().label_next_launch("seed_source");
  sim().run_kernel(
      gpusim::Schedule::kStatic, 1, 1,
      [&](gpusim::WarpCtx& ctx, std::uint64_t) {
        ctx.store_one(dist_, source, Distance{0});
        ctx.store_one(updating_dist_, source, Distance{0});
        ctx.store_one(mask_, source, std::uint8_t{1});
      },
      /*host_launch=*/true, stream());

  bool changed = true;
  const std::uint64_t max_iterations = 4 * (std::uint64_t(n) + 8);
  std::uint64_t iterations = 0;
  while (changed) {
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    if (++iterations >= max_iterations) {
      // Corrupted distances can stall convergence; the poisoned attempt is
      // discarded by the retry driver. A clean-device runaway is a bug.
      RDBS_CHECK_MSG(driver_.poisoned(), "HN07 failed to converge");
      break;
    }
    ++work.iterations;

    // Kernel 1 (topology-driven): every vertex loads its mask; masked lanes
    // relax all out-edges into updating_cost via atomicMin.
    sim().label_next_launch("relax_scatter");
    sim().run_kernel(
        gpusim::Schedule::kStatic, warps, 8,
        [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
          const std::uint64_t begin = w * 32;
          const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
          const auto lanes = static_cast<std::uint32_t>(end - begin);
          std::array<std::uint8_t, 32> masks;
          ctx.load_range(mask_, begin,
                         std::span<std::uint8_t>(masks.data(), lanes));

          std::array<std::uint32_t, 32> active_lane{};
          std::uint32_t active = 0;
          for (std::uint32_t i = 0; i < lanes; ++i) {
            if (masks[i]) active_lane[active++] = i;
          }
          if (active == 0) return;  // whole warp idle — but it was launched

          // Row bounds + own distance for the active lanes.
          std::array<std::uint64_t, 32> vact{};
          std::array<std::uint64_t, 32> vact1{};
          for (std::uint32_t i = 0; i < active; ++i) {
            vact[i] = begin + active_lane[i];
            vact1[i] = vact[i] + 1;
          }
          std::span<const std::uint64_t> va(vact.data(), active);
          std::array<EdgeIndex, 32> rb{};
          std::array<EdgeIndex, 32> re{};
          ctx.load(graph().row_offsets, va,
                   std::span<EdgeIndex>(rb.data(), active));
          ctx.load(graph().row_offsets,
                   std::span<const std::uint64_t>(vact1.data(), active),
                   std::span<EdgeIndex>(re.data(), active));
          std::array<Distance, 32> du{};
          ctx.load(dist_, va, std::span<Distance>(du.data(), active));
          ctx.alu(2, active);

          std::uint64_t max_deg = 0;
          for (std::uint32_t i = 0; i < active; ++i) {
            max_deg = std::max<std::uint64_t>(max_deg, re[i] - rb[i]);
          }
          for (std::uint64_t s = 0; s < max_deg; ++s) {
            std::array<std::uint64_t, 32> eidx{};
            std::array<std::uint32_t, 32> owner{};
            std::uint32_t cnt = 0;
            for (std::uint32_t i = 0; i < active; ++i) {
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
            ctx.load(graph().adjacency, es,
                     std::span<VertexId>(dsts.data(), cnt));
            ctx.load(graph().weights, es, std::span<Weight>(ws.data(), cnt));
            ctx.alu(2, cnt);
            work.relaxations += cnt;
            std::array<std::uint64_t, 32> tgt{};
            std::array<Distance, 32> val{};
            for (std::uint32_t i = 0; i < cnt; ++i) {
              tgt[i] = dsts[i];
              val[i] = du[owner[i]] + ws[i];
            }
            std::array<std::uint8_t, 32> improved{};
            ctx.atomic_min(updating_dist_,
                           std::span<const std::uint64_t>(tgt.data(), cnt),
                           std::span<const Distance>(val.data(), cnt),
                           std::span<std::uint8_t>(improved.data(), cnt));
            for (std::uint32_t i = 0; i < cnt; ++i) {
              work.total_updates += improved[i];
            }
          }
        },
        /*host_launch=*/true, stream());

    // Kernel 2: commit improvements, rebuild the mask, resync the shadow.
    changed = false;
    sim().label_next_launch("commit_mask");
    sim().run_kernel(
        gpusim::Schedule::kStatic, warps, 8,
        [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
          const std::uint64_t begin = w * 32;
          const std::uint64_t end = std::min<std::uint64_t>(begin + 32, n);
          const auto lanes = static_cast<std::uint32_t>(end - begin);
          std::array<std::uint64_t, 32> idx{};
          for (std::uint32_t i = 0; i < lanes; ++i) idx[i] = begin + i;
          std::span<const std::uint64_t> is(idx.data(), lanes);
          std::array<Distance, 32> cost;
          std::array<Distance, 32> updating;
          ctx.load_range(dist_, begin,
                         std::span<Distance>(cost.data(), lanes));
          ctx.load_range(updating_dist_, begin,
                         std::span<Distance>(updating.data(), lanes));
          ctx.alu(2, lanes);
          std::array<std::uint8_t, 32> new_mask{};
          for (std::uint32_t i = 0; i < lanes; ++i) {
            if (updating[i] < cost[i]) {
              cost[i] = updating[i];
              new_mask[i] = 1;
              changed = true;
            } else {
              updating[i] = cost[i];
              new_mask[i] = 0;
            }
          }
          ctx.store(dist_, is, std::span<const Distance>(cost.data(), lanes));
          ctx.store(updating_dist_, is,
                    std::span<const Distance>(updating.data(), lanes));
          ctx.store(mask_, is,
                    std::span<const std::uint8_t>(new_mask.data(), lanes));
        },
        /*host_launch=*/true, stream());
    sim().host_barrier(stream());
  }

  GpuRunResult result;
  result.sssp.work = work;
  return driver_.finish(std::move(result), dist_, source);
}

// ---------------------------------------------------------------------------
// Davidson et al. (2014): Workfront Sweep + Near-Far
// ---------------------------------------------------------------------------

DavidsonNearFar::DavidsonNearFar(DeviceBinding device, const graph::Csr& csr,
                                 DavidsonOptions options)
    : csr_(csr),
      options_(options),
      driver_("DavidsonNearFar", std::move(device), csr_, options_) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  dist_ = sim().alloc<Distance>("dist", n, kDeviceWord);
  auto near_slots = sim().alloc<VertexId>(
      "near", std::max<std::size_t>(n, 64), kDeviceWord);
  auto far_slots = sim().alloc<VertexId>(
      "far", std::max<std::size_t>(2 * m + 64, 64), kDeviceWord);
  // [0]=near tail, [1]=far tail. Nothing pops through a head cursor: the
  // workfront and the far split read whole windows.
  const auto ctrl = sim().alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
  sim().mark_initialized(ctrl);
  // The near flags only deduplicate: Davidson charges no flag traffic.
  near_.bind(sim(), std::move(near_slots), ctrl, /*tail_cell=*/0,
             DeviceQueue::kNoCell, sim().alloc<std::uint8_t>("in_near", n, 1),
             /*charge_flags=*/false);
  far_.bind(sim(), std::move(far_slots), ctrl, /*tail_cell=*/1,
            DeviceQueue::kNoCell);
}

GpuRunResult DavidsonNearFar::run(VertexId source) {
  return driver_.run(source, [&] { return run_attempt(source); });
}

GpuRunResult DavidsonNearFar::run_attempt(VertexId source) {
  driver_.begin_attempt(dist_);
  sssp::WorkStats work;
  near_.reset();
  far_.reset();
  init_distances(sim(), stream(), dist_);
  // Host seed: dist[source] plus the first near-queue slot, modeled as H2D
  // uploads.
  dist_[source] = 0;
  sim().mark_initialized(dist_, source, 1);
  near_.seed(source);
  near_.publish();
  Distance threshold = options_.delta;

  // Flattened (vertex, edge) workfront chunk: Workfront Sweep's
  // edge-balanced mapping — each warp handles 32 consecutive frontier
  // edges, never a whole vertex.
  struct Chunk {
    VertexId vertex;
    EdgeIndex begin, end;
  };

  while (!near_.empty() || !far_.empty()) {
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    if (near_.empty()) {
      // Far split (synchronous kernel over the pile).
      Distance min_far = graph::kInfiniteDistance;
      const std::uint64_t pile_base = far_.window_begin();
      const std::vector<VertexId> far = far_.take_all();
      sim().label_next_launch("far_split");
      gpusim::KernelScope split(sim(), gpusim::Schedule::kStatic, true,
                                /*warps_per_block=*/8, stream());
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        const auto entries = std::span<const VertexId>(far).subspan(base, cnt);
        auto ctx = split.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) vidx[i] = entries[i];
        far_.charge_read(ctx, pile_base + base, entries);
        ctx.load(dist_, std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(2, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          if (dvals[i] >= threshold) min_far = std::min(min_far, dvals[i]);
        }
        split.commit(ctx);
      }
      if (min_far == graph::kInfiniteDistance) {
        split.finish();
        break;
      }
      const Distance old_threshold = threshold;
      while (threshold <= min_far) threshold += options_.delta;
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        auto ctx = split.make_warp();
        ctx.alu(2, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId v = far[base + i];
          const Distance d = dist_[v];
          if (d == graph::kInfiniteDistance || d < old_threshold) continue;
          if (d < threshold) {
            near_.offer(v);
          } else {
            far_.append(v);
          }
        }
        near_.charge_push(ctx);
        far_.charge_push(ctx);
        split.commit(ctx);
      }
      split.finish();
      sim().host_barrier(stream());
      continue;
    }

    // --- Workfront Sweep over the near frontier: flatten to edge chunks.
    ++work.iterations;
    std::vector<Chunk> chunks;
    {
      // The flattening itself is a scan+compact on device; charge one pass
      // over the frontier (queue-slot reads + row-bound loads + prefix-sum
      // ALU).
      const std::uint64_t near_base = near_.window_begin();
      const std::vector<VertexId> near = near_.take_all();
      sim().label_next_launch("workfront_setup");
      gpusim::KernelScope setup(sim(), gpusim::Schedule::kStatic, true,
                                /*warps_per_block=*/8, stream());
      for (std::size_t base = 0; base < near.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, near.size() - base));
        const auto entries =
            std::span<const VertexId>(near).subspan(base, cnt);
        auto ctx = setup.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<std::uint64_t, 32> vidx1{};
        for (std::uint32_t i = 0; i < cnt; ++i) {
          vidx[i] = entries[i];
          vidx1[i] = vidx[i] + 1;
        }
        near_.charge_read(ctx, near_base + base, entries);
        std::array<EdgeIndex, 32> rb{};
        std::array<EdgeIndex, 32> re{};
        ctx.load(graph().row_offsets,
                 std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<EdgeIndex>(rb.data(), cnt));
        ctx.load(graph().row_offsets,
                 std::span<const std::uint64_t>(vidx1.data(), cnt),
                 std::span<EdgeIndex>(re.data(), cnt));
        ctx.alu(4, cnt);  // prefix-sum steps of the compact
        for (std::uint32_t i = 0; i < cnt; ++i) {
          for (EdgeIndex e = rb[i]; e < re[i]; e += 32) {
            chunks.push_back(
                {entries[i], e, std::min<EdgeIndex>(e + 32, re[i])});
          }
        }
        setup.commit(ctx);
      }
      setup.finish();
    }
    sim().host_barrier(stream());

    sim().label_next_launch("workfront_sweep");
    gpusim::KernelScope sweep(sim(), gpusim::Schedule::kStatic, true,
                              /*warps_per_block=*/8, stream());
    for (const Chunk& chunk : chunks) {
      auto ctx = sweep.make_warp();
      const auto cnt = static_cast<std::uint32_t>(chunk.end - chunk.begin);
      const Distance du = ctx.load_one(dist_, chunk.vertex);
      std::array<VertexId, 32> dsts;
      std::array<Weight, 32> ws;
      ctx.load_range(graph().adjacency, chunk.begin,
                     std::span<VertexId>(dsts.data(), cnt));
      ctx.load_range(graph().weights, chunk.begin,
                     std::span<Weight>(ws.data(), cnt));
      ctx.alu(2, cnt);
      work.relaxations += cnt;
      std::array<std::uint64_t, 32> tgt{};
      std::array<Distance, 32> val{};
      for (std::uint32_t i = 0; i < cnt; ++i) {
        tgt[i] = dsts[i];
        val[i] = du + ws[i];
      }
      std::array<std::uint8_t, 32> improved{};
      ctx.atomic_min(dist_, std::span<const std::uint64_t>(tgt.data(), cnt),
                     std::span<const Distance>(val.data(), cnt),
                     std::span<std::uint8_t>(improved.data(), cnt));
      for (std::uint32_t i = 0; i < cnt; ++i) {
        if (!improved[i]) continue;
        ++work.total_updates;
        const auto v = static_cast<VertexId>(tgt[i]);
        if (val[i] < threshold) {
          near_.offer(v);
        } else {
          far_.append(v);
        }
      }
      near_.charge_push(ctx);
      far_.charge_push(ctx);
      sweep.commit(ctx);
    }
    sweep.finish();
    sim().host_barrier(stream());
  }

  GpuRunResult result;
  result.sssp.work = work;
  return driver_.finish(std::move(result), dist_, source);
}

}  // namespace rdbs::core
