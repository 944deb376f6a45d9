#include "core/legacy_gpu.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/macros.hpp"
#include "core/warp_relax.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

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
          for (std::uint32_t i = 0; i < active; ++i) {
            vact[i] = begin + active_lane[i];
          }
          std::span<const std::uint64_t> va(vact.data(), active);
          std::array<EdgeIndex, 32> rb{};
          std::array<EdgeIndex, 32> re{};
          load_row_bounds(ctx, graph(), va,
                          std::span<EdgeIndex>(rb.data(), active),
                          std::span<EdgeIndex>(re.data(), active));
          std::array<Distance, 32> du{};
          ctx.load(dist_, va, std::span<Distance>(du.data(), active));
          ctx.alu(2, active);
          relax_lanes(ctx, graph(), updating_dist_,
                      std::span<const Distance>(du.data(), active),
                      std::span<const EdgeIndex>(rb.data(), active),
                      std::span<const EdgeIndex>(re.data(), active),
                      /*light_below=*/std::nullopt, work,
                      [](const RelaxBatch&) {});
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

  while (!near_.empty() || !far_.empty()) {
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    if (near_.empty()) {
      // Far split (synchronous kernel over the pile).
      if (!split_far_pile(sim(), stream(), dist_, near_, far_, threshold,
                          options_.delta)) {
        break;
      }
      sim().host_barrier(stream());
      continue;
    }

    // --- Workfront Sweep over the near frontier: flatten to edge chunks
    // (Workfront Sweep's edge-balanced mapping: each warp handles 32
    // consecutive frontier edges, never a whole vertex).
    ++work.iterations;
    std::vector<EdgeChunk> chunks;
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
        for (std::uint32_t i = 0; i < cnt; ++i) vidx[i] = entries[i];
        near_.charge_read(ctx, near_base + base, entries);
        std::array<EdgeIndex, 32> rb{};
        std::array<EdgeIndex, 32> re{};
        load_row_bounds(ctx, graph(),
                        std::span<const std::uint64_t>(vidx.data(), cnt),
                        std::span<EdgeIndex>(rb.data(), cnt),
                        std::span<EdgeIndex>(re.data(), cnt));
        ctx.alu(4, cnt);  // prefix-sum steps of the compact
        for (std::uint32_t i = 0; i < cnt; ++i) {
          append_edge_chunks(entries[i], rb[i], re[i], chunks);
        }
        setup.commit(ctx);
      }
      setup.finish();
    }
    sim().host_barrier(stream());

    sim().label_next_launch("workfront_sweep");
    gpusim::KernelScope sweep(sim(), gpusim::Schedule::kStatic, true,
                              /*warps_per_block=*/8, stream());
    for (const EdgeChunk& chunk : chunks) {
      auto ctx = sweep.make_warp();
      relax_chunk(ctx, graph(), dist_, chunk, /*light_below=*/std::nullopt,
                  work, [&](const RelaxBatch& batch) {
                    for (std::uint32_t i = 0; i < batch.count; ++i) {
                      if (!batch.improved[i]) continue;
                      const auto v = static_cast<VertexId>(batch.target[i]);
                      if (batch.value[i] < threshold) {
                        near_.offer(v);
                      } else {
                        far_.append(v);
                      }
                    }
                    near_.charge_push(ctx);
                    far_.charge_push(ctx);
                  });
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
