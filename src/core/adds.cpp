#include "core/adds.hpp"

#include <algorithm>
#include <array>

#include "common/macros.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
constexpr std::uint32_t kDeviceWord = 4;
}

AddsLike::AddsLike(gpusim::DeviceSpec device, const graph::Csr& csr,
                   AddsOptions options)
    : owned_sim_(std::make_unique<gpusim::GpuSim>(std::move(device))),
      sim_(owned_sim_.get()),
      csr_(csr),
      options_(options),
      driver_("AddsLike", *sim_, stream_, csr_, options_.retry,
              /*reset_per_attempt=*/true, AttemptDriver::Clock::kStream,
              options_.checkpoint_interval) {
  sim_->set_worker_threads(options_.sim_threads);
  if (options_.sanitize != gpusim::SanitizeMode::kOff) {
    sim_->enable_sanitizer(options_.sanitize);
  }
  if (options_.fault.enabled) sim_->enable_fault_injection(options_.fault);
  init_device_state(nullptr);
}

AddsLike::AddsLike(gpusim::GpuSim& sim, gpusim::StreamId stream,
                   const graph::Csr& csr, AddsOptions options,
                   const DeviceCsrBuffers* shared_graph)
    : sim_(&sim),
      stream_(stream),
      csr_(csr),
      options_(options),
      driver_("AddsLike", *sim_, stream_, csr_, options_.retry,
              /*reset_per_attempt=*/false, AttemptDriver::Clock::kStream,
              options_.checkpoint_interval) {
  // Never *disable* here: in shared-sim mode the batch owns the setting.
  if (options_.sanitize != gpusim::SanitizeMode::kOff) {
    sim_->enable_sanitizer(options_.sanitize);
  }
  if (options_.fault.enabled) sim_->enable_fault_injection(options_.fault);
  init_device_state(shared_graph);
}

void AddsLike::init_device_state(const DeviceCsrBuffers* shared_graph) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  if (shared_graph != nullptr) {
    graph_bufs_ = shared_graph;
  } else {
    owned_graph_ = std::make_unique<DeviceCsrBuffers>(
        DeviceCsrBuffers::upload(*sim_, csr_));
    graph_bufs_ = owned_graph_.get();
  }
  dist_ = sim_->alloc<Distance>("dist", n, kDeviceWord);
  auto near_slots = sim_->alloc<VertexId>(
      "near_queue", std::max<std::size_t>(n, 64), kDeviceWord);
  // The Far pile admits duplicates (lazy deletion at split time).
  auto far_slots = sim_->alloc<VertexId>(
      "far_pile", std::max<std::size_t>(2 * m + 64, 64), kDeviceWord);
  // [0]=near tail, [1]=near head, [2]=far tail.
  const auto ctrl = sim_->alloc<std::uint32_t>("queue_ctrl", 3, kDeviceWord);
  sim_->mark_initialized(ctrl);
  near_.bind(*sim_, std::move(near_slots), ctrl, /*tail_cell=*/0,
             /*head_cell=*/1, sim_->alloc<std::uint8_t>("in_near", n, 1));
  far_.bind(*sim_, std::move(far_slots), ctrl, /*tail_cell=*/2,
            DeviceQueue::kNoCell);
  driver_.set_warm_start(options_.warm_start);
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
  init_distances(*sim_, stream_, dist_, near_.flags());
  seed_source(*sim_, stream_, dist_, source);

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
    if (sim_->device_lost()) break;  // attempt is void; recovery takes over
    // Round boundary (a near drain or a far split is one launch): the
    // Near-Far cancellation point.
    if (driver_.cancelled()) break;
    if (near_.empty()) {
      // --- Far split: advance the threshold past the smallest far
      // distance, promote entries below it, drop stale duplicates.
      Distance min_far = graph::kInfiniteDistance;
      const std::uint64_t pile_base = far_.window_begin();
      const std::vector<VertexId> far = far_.take_all();
      sim_->label_next_launch("far_split");
      gpusim::KernelScope split(*sim_, gpusim::Schedule::kStatic, true,
                                /*warps_per_block=*/8, stream_);
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        const auto entries = std::span<const VertexId>(far).subspan(base, cnt);
        auto ctx = split.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) vidx[i] = entries[i];
        // Read the pile slots and the current distances of the entries.
        far_.charge_read(ctx, pile_base + base, entries);
        ctx.load(dist_, std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(2, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          // Entries already settled below the old threshold are stale.
          if (dvals[i] < threshold) continue;
          min_far = std::min(min_far, dvals[i]);
        }
        split.commit(ctx);
      }
      // Second pass with the advanced threshold does the actual promotion.
      if (min_far == graph::kInfiniteDistance) {
        split.finish();
        break;  // only stale entries remained
      }
      const Distance old_threshold = threshold;
      while (threshold <= min_far) threshold += options_.delta;
      for (std::size_t base = 0; base < far.size(); base += 32) {
        const auto cnt = static_cast<std::uint32_t>(
            std::min<std::size_t>(32, far.size() - base));
        auto ctx = split.make_warp();
        std::array<std::uint64_t, 32> vidx{};
        std::array<Distance, 32> dvals{};
        for (std::uint32_t i = 0; i < cnt; ++i) vidx[i] = far[base + i];
        ctx.load(dist_, std::span<const std::uint64_t>(vidx.data(), cnt),
                 std::span<Distance>(dvals.data(), cnt));
        ctx.alu(2, cnt);
        for (std::uint32_t i = 0; i < cnt; ++i) {
          const VertexId v = far[base + i];
          const Distance d = dvals[i];
          if (d == graph::kInfiniteDistance) continue;
          if (d < old_threshold) continue;  // settled below old window: stale
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
      // Round boundary (far split done): consistent upper bounds —
      // snapshot for checkpoint-resume.
      driver_.boundary(dist_);
      continue;
    }

    // --- Near processing: one persistent asynchronous kernel that drains
    // the Near pile, thread-per-vertex, relaxing ALL edges of each vertex
    // (no light/heavy split in ADDS's data layout).
    sim_->label_next_launch("near_relax");
    gpusim::KernelScope kernel(*sim_, gpusim::Schedule::kDynamic, true,
                               /*warps_per_block=*/8, stream_);
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
      std::array<std::uint64_t, 32> row_begin{};
      std::array<std::uint64_t, 32> row_end{};
      {
        std::array<std::uint64_t, 32> idx2{};
        for (std::uint32_t i = 0; i < lane_count; ++i) idx2[i] = lanes[i] + 1;
        std::array<EdgeIndex, 32> tmp{};
        ctx.load(graph_bufs_->row_offsets, vspan,
                 std::span<EdgeIndex>(tmp.data(), lane_count));
        for (std::uint32_t i = 0; i < lane_count; ++i) row_begin[i] = tmp[i];
        ctx.load(graph_bufs_->row_offsets,
                 std::span<const std::uint64_t>(idx2.data(), lane_count),
                 std::span<EdgeIndex>(tmp.data(), lane_count));
        for (std::uint32_t i = 0; i < lane_count; ++i) row_end[i] = tmp[i];
      }
      ctx.alu(2, lane_count);

      // Thread-per-vertex: the warp runs until its highest-degree lane is
      // done — ADDS's Achilles heel on hub-dominated graphs.
      std::uint64_t max_deg = 0;
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        max_deg = std::max(max_deg, row_end[i] - row_begin[i]);
      }
      for (std::uint64_t s = 0; s < max_deg; ++s) {
        std::array<std::uint64_t, 32> eidx{};
        std::array<std::uint32_t, 32> lane_of{};
        std::uint32_t active = 0;
        for (std::uint32_t i = 0; i < lane_count; ++i) {
          if (row_begin[i] + s < row_end[i]) {
            eidx[active] = row_begin[i] + s;
            lane_of[active] = i;
            ++active;
          }
        }
        if (active == 0) break;
        std::span<const std::uint64_t> espan(eidx.data(), active);
        std::array<VertexId, 32> dsts{};
        std::array<Weight, 32> ws{};
        ctx.load(graph_bufs_->adjacency, espan, std::span<VertexId>(dsts.data(), active));
        ctx.load(graph_bufs_->weights, espan, std::span<Weight>(ws.data(), active));
        ctx.alu(2, active);
        work_.relaxations += active;

        std::array<std::uint64_t, 32> relax_idx{};
        std::array<Distance, 32> relax_val{};
        for (std::uint32_t i = 0; i < active; ++i) {
          relax_idx[i] = dsts[i];
          relax_val[i] = dist_u[lane_of[i]] + ws[i];
        }
        std::array<std::uint8_t, 32> improved{};
        ctx.atomic_min(dist_,
                       std::span<const std::uint64_t>(relax_idx.data(), active),
                       std::span<const Distance>(relax_val.data(), active),
                       std::span<std::uint8_t>(improved.data(), active));
        for (std::uint32_t i = 0; i < active; ++i) {
          if (!improved[i]) continue;
          ++work_.total_updates;
          const auto v = static_cast<VertexId>(relax_idx[i]);
          if (relax_val[i] < threshold) {
            near_.offer(v);
          } else {
            far_.append(v);
          }
        }
        near_.charge_push(ctx);
        far_.charge_push(ctx);
      }
      kernel.commit(ctx);
      ++work_.iterations;
    }
    kernel.finish();
    // Round boundary (near pile drained): snapshot for checkpoint-resume.
    driver_.boundary(dist_);
  }

  result.sssp.work = work_;
  return driver_.finish(std::move(result), dist_, source);
}

}  // namespace rdbs::core
