#include "core/adds.hpp"

#include <algorithm>
#include <array>

#include "common/macros.hpp"
#include "core/warp_relax.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

AddsLike::AddsLike(DeviceBinding device, const graph::Csr& csr,
                   AddsOptions options)
    : csr_(csr),
      options_(options),
      driver_("AddsLike", std::move(device), csr_, options_) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  dist_ = sim().alloc<Distance>("dist", n, kDeviceWord);
  auto near_slots = sim().alloc<VertexId>(
      "near_queue", std::max<std::size_t>(n, 64), kDeviceWord);
  // The Far pile admits duplicates (lazy deletion at split time).
  auto far_slots = sim().alloc<VertexId>(
      "far_pile", std::max<std::size_t>(2 * m + 64, 64), kDeviceWord);
  // [0]=near tail, [1]=near head, [2]=far tail.
  const auto ctrl = sim().alloc<std::uint32_t>("queue_ctrl", 3, kDeviceWord);
  sim().mark_initialized(ctrl);
  near_.bind(sim(), std::move(near_slots), ctrl, /*tail_cell=*/0,
             /*head_cell=*/1, sim().alloc<std::uint8_t>("in_near", n, 1));
  far_.bind(sim(), std::move(far_slots), ctrl, /*tail_cell=*/2,
            DeviceQueue::kNoCell);
}

GpuRunResult AddsLike::run(VertexId source) {
  return driver_.run(source, [&] { return run_attempt(source); });
}

GpuRunResult AddsLike::run_attempt(VertexId source) {
  driver_.begin_attempt(dist_);
  work_ = sssp::WorkStats{};
  near_.reset();
  far_.reset();

  GpuRunResult result;
  init_distances(sim(), stream(), dist_, near_.flags());
  seed_source(sim(), stream(), dist_, source);

  // Warm start (docs/serving.md "Result cache"): Near-Far is
  // label-correcting, so valid upper bounds preserve exactness.
  const std::uint64_t warm_seeded = driver_.apply_warm_start(dist_, source);

  // Host seed modeled as an H2D upload of the claimed ring slots + flags.
  // Warm-seeded vertices below the first threshold join the Near seed;
  // the rest start on the Far pile (the split reads the live distances, so
  // entries improved below the threshold in the meantime drop as stale —
  // the same lazy-deletion rule every pushed duplicate follows).
  near_.seed(source);
  Distance threshold = options_.delta;
  if (warm_seeded > 0) {
    for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
      if (v == source || dist_[v] == graph::kInfiniteDistance) continue;
      if (dist_[v] < threshold) {
        near_.seed(v);
      } else {
        far_.seed(v);
      }
    }
  }
  far_.publish();
  near_.publish();

  while (!near_.empty() || !far_.empty()) {
    if (sim().device_lost()) break;  // attempt is void; recovery takes over
    // Round boundary (a near drain or a far split is one launch): the
    // Near-Far cancellation point.
    if (driver_.cancelled()) break;
    if (near_.empty()) {
      // --- Far split: advance the threshold past the smallest far
      // distance, promote entries below it, drop stale duplicates.
      if (!split_far_pile(sim(), stream(), dist_, near_, far_, threshold,
                          options_.delta, [&](gpusim::KernelScope& split) {
                            driver_.snapshot_into(split, dist_);
                          })) {
        break;  // only stale entries remained
      }
      // Round boundary (far split done): consistent upper bounds —
      // snapshot for checkpoint-resume.
      driver_.boundary(dist_);
      continue;
    }

    // --- Near processing: one persistent asynchronous kernel that drains
    // the Near pile, thread-per-vertex, relaxing ALL edges of each vertex
    // (no light/heavy split in ADDS's data layout).
    sim().label_next_launch("near_relax");
    gpusim::KernelScope kernel(sim(), gpusim::Schedule::kDynamic, true,
                               /*warps_per_block=*/8, stream());
    while (!near_.empty()) {
      std::array<VertexId, 32> lanes{};
      const std::uint32_t lane_count = near_.take_front(lanes);
      auto ctx = kernel.make_warp();

      near_.charge_pop(ctx,
                       std::span<const VertexId>(lanes.data(), lane_count));
      std::array<std::uint64_t, 32> vidx{};
      for (std::uint32_t i = 0; i < lane_count; ++i) vidx[i] = lanes[i];
      std::span<const std::uint64_t> vspan(vidx.data(), lane_count);

      std::array<Distance, 32> dist_u{};
      ctx.load(dist_, vspan, std::span<Distance>(dist_u.data(), lane_count));
      std::array<EdgeIndex, 32> row_begin{};
      std::array<EdgeIndex, 32> row_end{};
      load_row_bounds(ctx, graph(), vspan,
                      std::span<EdgeIndex>(row_begin.data(), lane_count),
                      std::span<EdgeIndex>(row_end.data(), lane_count));
      ctx.alu(2, lane_count);

      // Thread-per-vertex: the warp runs until its highest-degree lane is
      // done — ADDS's Achilles heel on hub-dominated graphs.
      relax_lanes(
          ctx, graph(), dist_,
          std::span<const Distance>(dist_u.data(), lane_count),
          std::span<const EdgeIndex>(row_begin.data(), lane_count),
          std::span<const EdgeIndex>(row_end.data(), lane_count),
          /*light_below=*/std::nullopt, work_, [&](const RelaxBatch& batch) {
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
      kernel.commit(ctx);
      ++work_.iterations;
    }
    driver_.snapshot_into(kernel, dist_);
    kernel.finish();
    // Round boundary (near pile drained): snapshot for checkpoint-resume.
    driver_.boundary(dist_);
  }

  result.sssp.work = work_;
  return driver_.finish(std::move(result), dist_, source);
}

}  // namespace rdbs::core
