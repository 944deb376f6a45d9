#include "core/gunrock_like.hpp"

#include <algorithm>
#include <array>

#include "common/macros.hpp"
#include "core/warp_relax.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {
// Output-cursor cell of the frontier control buffer.
constexpr std::uint64_t kOutCursorCell[1] = {0};
}

GunrockLike::GunrockLike(DeviceBinding device, const graph::Csr& csr,
                         GunrockSsspOptions options)
    : csr_(csr),
      options_(options),
      driver_("GunrockLike", std::move(device), csr_, options_) {
  RDBS_CHECK(options_.delta > 0);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  dist_ = sim().alloc<Distance>("dist", n, kDeviceWord);
  frontier_[0] = sim().alloc<VertexId>(
      "frontier_in", std::max<EdgeIndex>(m + 64, 64), kDeviceWord);
  frontier_[1] = sim().alloc<VertexId>(
      "frontier_out", std::max<EdgeIndex>(m + 64, 64), kDeviceWord);
  frontier_ctrl_ = sim().alloc<std::uint32_t>("frontier_ctrl", 1, kDeviceWord);
  sim().mark_initialized(frontier_ctrl_);
  // The dedup bitmap is cudaMemset at allocation time.
  visited_ = sim().alloc<std::uint8_t>("visited", n, 1);
  sim().mark_initialized(visited_);
}

GpuRunResult GunrockLike::run(VertexId source) {
  return driver_.run(source, [&] { return run_attempt(source); });
}

void GunrockLike::seed_frontier(const Frontier& frontier) {
  gpusim::Buffer<VertexId>& in = frontier_[in_];
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    in[i % in.size()] = frontier[i];
  }
  sim().mark_initialized(
      in, 0, std::min<std::uint64_t>(frontier.size(), in.size()));
}

GunrockLike::Frontier GunrockLike::advance(const Frontier& frontier,
                                           sssp::WorkStats& work) {
  const gpusim::Buffer<VertexId>& in = frontier_[in_];
  gpusim::Buffer<VertexId>& out_buf = frontier_[in_ ^ 1];
  Frontier out;

  // Pass 1 (setup): load the frontier's row bounds and flatten its edges
  // into even 32-edge chunks (Gunrock's load-balanced advance).
  std::vector<EdgeChunk> chunks;
  seed_frontier(frontier);
  sim().label_next_launch("advance");
  gpusim::KernelScope kernel(sim(), gpusim::Schedule::kStatic, true,
                             /*warps_per_block=*/8, stream());
  for (std::size_t base = 0; base < frontier.size(); base += 32) {
    const auto cnt = static_cast<std::uint32_t>(
        std::min<std::size_t>(32, frontier.size() - base));
    auto ctx = kernel.make_warp();
    std::array<std::uint64_t, 32> vidx{};
    std::array<std::uint64_t, 32> slot{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      vidx[i] = frontier[base + i];
      slot[i] = (base + i) % in.size();
      // Double-buffer consume contract: every slot read here must have
      // been published by the previous operator's compact-store or the
      // host seed (gsan no-progress).
      ctx.spin_wait(in, slot[i]);
    }
    std::array<VertexId, 32> tmp{};
    ctx.load(in, std::span<const std::uint64_t>(slot.data(), cnt),
             std::span<VertexId>(tmp.data(), cnt));
    std::array<EdgeIndex, 32> rb{};
    std::array<EdgeIndex, 32> re{};
    load_row_bounds(ctx, graph(),
                    std::span<const std::uint64_t>(vidx.data(), cnt),
                    std::span<EdgeIndex>(rb.data(), cnt),
                    std::span<EdgeIndex>(re.data(), cnt));
    ctx.alu(4, cnt);  // prefix-sum steps of the flattening
    for (std::uint32_t i = 0; i < cnt; ++i) {
      append_edge_chunks(frontier[base + i], rb[i], re[i], chunks);
    }
    kernel.commit(ctx);
  }

  // Pass 2 (expand): one warp per chunk relaxes its edges.
  for (const EdgeChunk& chunk : chunks) {
    auto ctx = kernel.make_warp();
    const auto cnt = static_cast<std::uint32_t>(chunk.end - chunk.begin);
    // The source distance; the relax below reads its host mirror.
    (void)ctx.load_one(dist_, chunk.vertex);
    std::array<VertexId, 32> dsts;
    std::array<Weight, 32> ws;
    ctx.load_range(graph().adjacency, chunk.begin,
                   std::span<VertexId>(dsts.data(), cnt));
    ctx.load_range(graph().weights, chunk.begin,
                   std::span<Weight>(ws.data(), cnt));
    ctx.alu(2, cnt);

    // The atomicMin on dist is charged as one warp atomic over the lanes
    // that improve.
    std::array<std::uint64_t, 32> emit_idx{};
    std::array<VertexId, 32> vals{};
    std::uint32_t emitted = 0;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      ++work.relaxations;
      const Distance through = dist_[chunk.vertex] + ws[i];
      if (!(through < dist_[dsts[i]])) continue;
      dist_[dsts[i]] = through;
      ++work.total_updates;
      emit_idx[emitted] = dsts[i];
      vals[emitted] = dsts[i];
      ++emitted;
      out.push_back(dsts[i]);
    }
    if (emitted > 0) {
      ctx.atomic_touch(dist_,
                       std::span<const std::uint64_t>(emit_idx.data(), emitted));
      // Scatter the emissions into the output frontier: one atomicAdd on
      // the shared cursor reserves the slot range, then the warp stores
      // its ids there (disjoint from every other warp's range).
      ctx.atomic_touch(frontier_ctrl_,
                       std::span<const std::uint64_t>(kOutCursorCell, 1));
      std::array<std::uint64_t, 32> slots{};
      for (std::uint32_t i = 0; i < emitted; ++i) {
        slots[i] = (out.size() - emitted + i) % out_buf.size();
      }
      ctx.store(out_buf, std::span<const std::uint64_t>(slots.data(), emitted),
                std::span<const VertexId>(vals.data(), emitted));
    }
    kernel.commit(ctx);
  }
  kernel.finish();
  sim().host_barrier(stream());
  in_ ^= 1;  // ping-pong: the output is the next operator's input
  return out;
}

GunrockLike::Frontier GunrockLike::filter(const Frontier& frontier,
                                          Distance lo, Distance hi,
                                          Frontier* far) {
  Frontier out;
  if (frontier.empty()) return out;
  const gpusim::Buffer<VertexId>& in = frontier_[in_];
  gpusim::Buffer<VertexId>& out_buf = frontier_[in_ ^ 1];
  // One compaction kernel: load candidates, dedup via the visited bitmap
  // (marked with atomicOr — plain byte stores from concurrent warps holding
  // the same vertex would race), test the window, compact-store.
  seed_frontier(frontier);
  sim().label_next_launch("filter");
  gpusim::KernelScope kernel(sim(), gpusim::Schedule::kStatic, true,
                             /*warps_per_block=*/8, stream());
  std::vector<char> seen_this_filter(csr_.num_vertices(), 0);
  for (std::size_t base = 0; base < frontier.size(); base += 32) {
    const auto cnt = static_cast<std::uint32_t>(
        std::min<std::size_t>(32, frontier.size() - base));
    auto ctx = kernel.make_warp();
    std::array<std::uint64_t, 32> vidx{};
    std::array<std::uint64_t, 32> slot{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      vidx[i] = frontier[base + i];
      slot[i] = (base + i) % in.size();
      ctx.spin_wait(in, slot[i]);  // double-buffer consume
    }
    std::span<const std::uint64_t> vs(vidx.data(), cnt);
    std::array<VertexId, 32> tmp{};
    ctx.load(in, std::span<const std::uint64_t>(slot.data(), cnt),
             std::span<VertexId>(tmp.data(), cnt));
    std::array<std::uint8_t, 32> flags{};
    ctx.load(visited_, vs, std::span<std::uint8_t>(flags.data(), cnt));
    ctx.alu(2, cnt);
    std::uint32_t kept = 0;
    std::array<std::uint64_t, 32> keep_idx{};
    std::array<VertexId, 32> keep_ids{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      const VertexId v = frontier[base + i];
      if (seen_this_filter[v]) continue;  // bitmap dedup
      seen_this_filter[v] = 1;
      if (!(dist_[v] >= lo && dist_[v] < hi)) {
        if (far != nullptr) far->push_back(v);
        continue;
      }
      keep_idx[kept] = v;
      keep_ids[kept] = v;
      ++kept;
      out.push_back(v);
      visited_[v] = 1;  // host mirror of the atomicOr below
    }
    if (kept > 0) {
      ctx.atomic_touch(visited_,
                       std::span<const std::uint64_t>(keep_idx.data(), kept));
      // Compact-store the survivors into the output frontier.
      ctx.atomic_touch(frontier_ctrl_,
                       std::span<const std::uint64_t>(kOutCursorCell, 1));
      std::array<std::uint64_t, 32> oslots{};
      for (std::uint32_t i = 0; i < kept; ++i) {
        oslots[i] = (out.size() - kept + i) % out_buf.size();
      }
      ctx.store(out_buf, std::span<const std::uint64_t>(oslots.data(), kept),
                std::span<const VertexId>(keep_ids.data(), kept));
    }
    kernel.commit(ctx);
  }
  kernel.finish();
  sim().host_barrier(stream());
  in_ ^= 1;
  // The visited bitmap is per-filter scratch in this model: clear the
  // functional flags (cost folded into the stores above).
  for (const VertexId v : out) visited_[v] = 0;
  return out;
}

GpuRunResult GunrockLike::run_attempt(VertexId source) {
  driver_.begin_attempt(dist_);
  in_ = 0;
  sssp::WorkStats work;

  init_distances(sim(), stream(), dist_);
  dist_[source] = 0;
  sim().mark_initialized(dist_, source, 1);

  // Two-level priority split: the "near" frontier is advanced at once,
  // "far" emissions are re-split when near drains (Gunrock's sssp).
  Distance threshold = options_.delta;
  Frontier far;
  Frontier frontier{source};
  while (!frontier.empty() || !far.empty()) {
    if (sim().device_lost()) break;  // attempt is void; recovery runs
    if (frontier.empty()) {
      // Re-split far: advance the threshold and filter the pile.
      Distance min_far = graph::kInfiniteDistance;
      for (const VertexId v : far) {
        if (dist_[v] >= threshold) min_far = std::min(min_far, dist_[v]);
      }
      if (min_far == graph::kInfiniteDistance) break;
      const Distance old_threshold = threshold;
      while (threshold <= min_far) threshold += options_.delta;
      const Frontier pile = std::move(far);
      far.clear();
      frontier = filter(pile, old_threshold, threshold, nullptr);
      // Entries beyond the new threshold stay in far.
      for (const VertexId v : pile) {
        if (dist_[v] >= threshold) far.push_back(v);
      }
      continue;
    }

    ++work.iterations;
    // advance(relax), then filter(dedup + near test); far emissions pile.
    const Frontier expanded = advance(frontier, work);
    frontier = filter(expanded, -graph::kInfiniteDistance, threshold, &far);
  }

  GpuRunResult result;
  result.sssp.work = work;
  return driver_.finish(std::move(result), dist_, source);
}

}  // namespace rdbs::core
