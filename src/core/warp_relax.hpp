// The warp steps the GPU engines' relaxation is built from: the 32-edge
// chunk of an edge-balanced task, the row-bound gather, the
// thread-per-vertex sweep, the chunk relax and the Near/Far pile split.
// Engines differ in how they pick lanes (queue pops, HN07's mask, ADWL
// classification, PRO's light range) and where they route an improvement
// (near or far, the current bucket, the next window); the steps between
// are the same device code, written once here.
//
// Each step issues a fixed sequence of warp instructions, listed in its
// comment. L1/L2 state depends on the order of memory instructions and
// active_lane_ops feeds the Δ-controller, so a caller that needs a
// different order needs a different step, not a reordered one.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/macros.hpp"
#include "core/device_graph.hpp"
#include "gpusim/sim.hpp"
#include "graph/types.hpp"
#include "sssp/result.hpp"

namespace rdbs::core {

// Up to 32 consecutive out-edges of one vertex: one warp task of an
// edge-balanced mapping (ADWL's child warps, Davidson's workfront sweep,
// gunrock's advance).
struct EdgeChunk {
  graph::VertexId vertex;
  graph::EdgeIndex begin;  // first edge
  graph::EdgeIndex end;    // one past the last; 1 <= end - begin <= 32
};

// Appends the edges [begin, end) of v to `out` as 32-edge chunks, the last
// one shorter if the range does not divide; an empty range appends none.
void append_edge_chunks(graph::VertexId v, graph::EdgeIndex begin,
                        graph::EdgeIndex end, std::vector<EdgeChunk>& out);

// Two gather loads of graph.row_offsets: at each lane's vertex into
// `begin`, then at vertex + 1 into `end`.
void load_row_bounds(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                     std::span<const std::uint64_t> vertices,
                     std::span<graph::EdgeIndex> begin,
                     std::span<graph::EdgeIndex> end);

// The lanes of one relax step that reach the atomicMin: lane i issues
// atomicMin(dist[target[i]], value[i]) and improved[i] says whether it
// lowered the cell. Callers stage lanes in lane order.
struct RelaxBatch {
  std::array<std::uint64_t, 32> target{};
  std::array<graph::Distance, 32> value{};
  std::array<std::uint8_t, 32> improved{};
  std::uint32_t count = 0;

  void stage(graph::VertexId v, graph::Distance d) {
    target[count] = v;
    value[count] = d;
    ++count;
  }
};

// The tail every relax step ends in: one atomic_min over the staged lanes,
// `relaxations` and `total_updates` counted, then on_relaxed(batch) routes
// the improvements and charges the pushes. The batch must not be empty.
template <typename OnRelaxed>
void atomic_relax(gpusim::WarpCtx& ctx, gpusim::Buffer<graph::Distance>& dist,
                  RelaxBatch& batch, sssp::WorkStats& work,
                  OnRelaxed&& on_relaxed) {
  const std::uint32_t n = batch.count;
  RDBS_DCHECK(n > 0 && n <= 32);
  work.relaxations += n;
  ctx.atomic_min(dist, std::span<const std::uint64_t>(batch.target.data(), n),
                 std::span<const graph::Distance>(batch.value.data(), n),
                 std::span<std::uint8_t>(batch.improved.data(), n));
  for (std::uint32_t i = 0; i < n; ++i) work.total_updates += batch.improved[i];
  on_relaxed(batch);
}

namespace detail {
// The light test of a relax step over its first `lanes` loaded edges: with
// `light_below` set, one ALU instruction on every lane, and the lanes whose
// weight is >= it idle (heavy edges, left to phase 2). The others are
// staged with the distance through the edge.
inline void stage_light(gpusim::WarpCtx& ctx,
                        std::optional<graph::Weight> light_below,
                        std::uint32_t lanes,
                        const std::array<graph::VertexId, 32>& dsts,
                        const std::array<graph::Weight, 32>& ws,
                        const std::array<graph::Distance, 32>& dist_u,
                        RelaxBatch& batch) {
  if (light_below) ctx.alu(1, lanes);
  for (std::uint32_t i = 0; i < lanes; ++i) {
    if (light_below && ws[i] >= *light_below) continue;
    batch.stage(dsts[i], dist_u[i] + ws[i]);
  }
}
}  // namespace detail

// Thread-per-vertex sweep: lane i relaxes the edges [begin[i], end[i]) of a
// vertex at distance dist_u[i], one edge per step, so the warp runs as many
// steps as its longest range (a lane with an empty range idles). Each step
// issues: a gather of adjacency, a gather of weights, the light test (see
// detail::stage_light), and, unless no lane is left, alu(2, staged) for the
// add and compare followed by atomic_relax.
template <typename OnRelaxed>
void relax_lanes(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                 gpusim::Buffer<graph::Distance>& dist,
                 std::span<const graph::Distance> dist_u,
                 std::span<const graph::EdgeIndex> begin,
                 std::span<const graph::EdgeIndex> end,
                 std::optional<graph::Weight> light_below,
                 sssp::WorkStats& work, OnRelaxed&& on_relaxed) {
  const auto lanes = static_cast<std::uint32_t>(dist_u.size());
  RDBS_DCHECK(lanes <= 32 && begin.size() == lanes && end.size() == lanes);
  std::uint64_t steps = 0;
  for (std::uint32_t i = 0; i < lanes; ++i) {
    steps = std::max<std::uint64_t>(steps, end[i] - begin[i]);
  }
  for (std::uint64_t s = 0; s < steps; ++s) {
    std::array<std::uint64_t, 32> eidx{};
    std::array<graph::Distance, 32> du{};
    std::uint32_t active = 0;
    for (std::uint32_t i = 0; i < lanes; ++i) {
      if (begin[i] + s < end[i]) {
        eidx[active] = begin[i] + s;
        du[active] = dist_u[i];
        ++active;
      }
    }
    const std::span<const std::uint64_t> espan(eidx.data(), active);
    std::array<graph::VertexId, 32> dsts{};
    std::array<graph::Weight, 32> ws{};
    ctx.load(graph.adjacency, espan,
             std::span<graph::VertexId>(dsts.data(), active));
    ctx.load(graph.weights, espan, std::span<graph::Weight>(ws.data(), active));
    RelaxBatch batch;
    detail::stage_light(ctx, light_below, active, dsts, ws, du, batch);
    if (batch.count == 0) continue;
    ctx.alu(2, batch.count);  // add + compare
    atomic_relax(ctx, dist, batch, work, on_relaxed);
  }
}

// Edge-balanced chunk: one warp over the chunk's consecutive edges. Issues
// load_one of the source distance, a contiguous load of adjacency and of
// weights, alu(2) on every lane for the add and compare, the light test,
// and, unless no lane is left, atomic_relax.
template <typename OnRelaxed>
void relax_chunk(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                 gpusim::Buffer<graph::Distance>& dist, const EdgeChunk& chunk,
                 std::optional<graph::Weight> light_below,
                 sssp::WorkStats& work, OnRelaxed&& on_relaxed) {
  const auto count = static_cast<std::uint32_t>(chunk.end - chunk.begin);
  RDBS_DCHECK(count > 0 && count <= 32);
  std::array<graph::Distance, 32> du{};
  du.fill(ctx.load_one(dist, chunk.vertex));
  std::array<graph::VertexId, 32> dsts{};
  std::array<graph::Weight, 32> ws{};
  ctx.load_range(graph.adjacency, chunk.begin,
                 std::span<graph::VertexId>(dsts.data(), count));
  ctx.load_range(graph.weights, chunk.begin,
                 std::span<graph::Weight>(ws.data(), count));
  ctx.alu(2, count);
  RelaxBatch batch;
  detail::stage_light(ctx, light_below, count, dsts, ws, du, batch);
  if (batch.count == 0) return;
  atomic_relax(ctx, dist, batch, work, on_relaxed);
}

// The Near/Far split of a drained near pile (ADDS, Davidson): one
// "far_split" launch on `stream` over the far pile's entries, 32 per warp.
// Pass 1 reads each warp's pile slots and gathers their distances
// (alu(2)), and finds the smallest distance >= threshold; stale entries,
// settled below the threshold, drop out. If none is left the launch ends
// and the call returns false, threshold unchanged. Otherwise threshold
// advances in whole `delta` steps past that minimum, and pass 2 gathers
// the distances again (alu(2)), offers entries below the new threshold to
// `near`, appends the rest back onto `far`, and charges both pushes. Then
// `tail`, if set, may append warps to the launch before it ends (ADDS's
// checkpoint snapshot, AttemptDriver::snapshot_into).
bool split_far_pile(
    gpusim::GpuSim& sim, gpusim::StreamId stream,
    gpusim::Buffer<graph::Distance>& dist, DeviceQueue& near,
    DeviceQueue& far, graph::Distance& threshold, graph::Weight delta,
    const std::function<void(gpusim::KernelScope&)>& tail = {});

}  // namespace rdbs::core
