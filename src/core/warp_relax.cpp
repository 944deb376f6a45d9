#include "core/warp_relax.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

void append_edge_chunks(VertexId v, EdgeIndex begin, EdgeIndex end,
                        std::vector<EdgeChunk>& out) {
  for (EdgeIndex e = begin; e < end; e += 32) {
    out.push_back({v, e, std::min<EdgeIndex>(e + 32, end)});
  }
}

void load_row_bounds(gpusim::WarpCtx& ctx, const DeviceCsrBuffers& graph,
                     std::span<const std::uint64_t> vertices,
                     std::span<EdgeIndex> begin, std::span<EdgeIndex> end) {
  const std::size_t lanes = vertices.size();
  RDBS_DCHECK(lanes <= 32 && begin.size() == lanes && end.size() == lanes);
  std::array<std::uint64_t, 32> next{};
  for (std::size_t i = 0; i < lanes; ++i) next[i] = vertices[i] + 1;
  ctx.load(graph.row_offsets, vertices, begin);
  ctx.load(graph.row_offsets,
           std::span<const std::uint64_t>(next.data(), lanes), end);
}

bool split_far_pile(gpusim::GpuSim& sim, gpusim::StreamId stream,
                    gpusim::Buffer<Distance>& dist, DeviceQueue& near,
                    DeviceQueue& far, Distance& threshold, Weight delta,
                    const std::function<void(gpusim::KernelScope&)>& tail) {
  const std::uint64_t pile_base = far.window_begin();
  const std::vector<VertexId> pile = far.take_all();
  sim.label_next_launch("far_split");
  gpusim::KernelScope split(sim, gpusim::Schedule::kStatic, true,
                            /*warps_per_block=*/8, stream);
  // One gather of the current distances of pile entries [base, base +
  // out.size()), then the warp's two compare steps.
  auto gather = [&](gpusim::WarpCtx& ctx, std::size_t base,
                    std::span<Distance> out) {
    std::array<std::uint64_t, 32> vidx{};
    for (std::size_t i = 0; i < out.size(); ++i) vidx[i] = pile[base + i];
    ctx.load(dist, std::span<const std::uint64_t>(vidx.data(), out.size()),
             out);
    ctx.alu(2, static_cast<std::uint32_t>(out.size()));
  };
  std::array<Distance, 32> d{};

  Distance min_far = graph::kInfiniteDistance;
  for (std::size_t base = 0; base < pile.size(); base += 32) {
    const std::size_t cnt = std::min<std::size_t>(32, pile.size() - base);
    auto ctx = split.make_warp();
    far.charge_read(ctx, pile_base + base,
                    std::span<const VertexId>(pile).subspan(base, cnt));
    gather(ctx, base, std::span<Distance>(d.data(), cnt));
    for (std::size_t i = 0; i < cnt; ++i) {
      if (d[i] >= threshold) min_far = std::min(min_far, d[i]);
    }
    split.commit(ctx);
  }
  if (min_far == graph::kInfiniteDistance) {
    split.finish();
    return false;  // only stale entries remained
  }

  const Distance old_threshold = threshold;
  while (threshold <= min_far) threshold += delta;
  for (std::size_t base = 0; base < pile.size(); base += 32) {
    const std::size_t cnt = std::min<std::size_t>(32, pile.size() - base);
    auto ctx = split.make_warp();
    gather(ctx, base, std::span<Distance>(d.data(), cnt));
    for (std::size_t i = 0; i < cnt; ++i) {
      // Unreached or settled below the old window: stale.
      if (d[i] == graph::kInfiniteDistance || d[i] < old_threshold) continue;
      if (d[i] < threshold) {
        near.offer(pile[base + i]);
      } else {
        far.append(pile[base + i]);
      }
    }
    near.charge_push(ctx);
    far.charge_push(ctx);
    split.commit(ctx);
  }
  if (tail) tail(split);
  split.finish();
  return true;
}

}  // namespace rdbs::core
