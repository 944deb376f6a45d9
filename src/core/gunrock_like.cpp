#include "core/gunrock_like.hpp"

#include <algorithm>
#include <array>

#include "common/macros.hpp"
#include "core/recovery.hpp"
#include "core/warp_relax.hpp"

namespace rdbs::core::gunrock {

namespace {
constexpr std::uint32_t kDeviceWord = 4;
// Output-cursor cell of the frontier control buffer.
constexpr std::uint64_t kOutCursorCell[1] = {0};
}

Enactor::Enactor(gpusim::DeviceSpec device, const graph::Csr& csr,
                 const EngineOptions& options)
    : sim_(std::move(device)), csr_(csr) {
  options.configure(sim_);
  const VertexId n = csr_.num_vertices();
  const EdgeIndex m = csr_.num_edges();
  graph_ = DeviceCsrBuffers::upload(sim_, csr_);
  dist_ = sim_.alloc<Distance>("dist", n, kDeviceWord);
  frontier_in_ = sim_.alloc<VertexId>("frontier_in",
                                      std::max<EdgeIndex>(m + 64, 64),
                                      kDeviceWord);
  frontier_out_ = sim_.alloc<VertexId>("frontier_out",
                                       std::max<EdgeIndex>(m + 64, 64),
                                       kDeviceWord);
  frontier_ctrl_ = sim_.alloc<std::uint32_t>("frontier_ctrl", 1, kDeviceWord);
  sim_.mark_initialized(frontier_ctrl_);
  // The dedup bitmap is cudaMemset at allocation time.
  visited_ = sim_.alloc<std::uint8_t>("visited", n, 1);
  sim_.mark_initialized(visited_);
}

void Enactor::seed_frontier(const Frontier& frontier) {
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    frontier_in_[i % frontier_in_.size()] = frontier.vertices()[i];
  }
  sim_.mark_initialized(frontier_in_, 0,
                        std::min<std::uint64_t>(frontier.size(),
                                                frontier_in_.size()));
}

Frontier Enactor::advance(const Frontier& frontier, const AdvanceFunctor& f) {
  Frontier out;
  if (frontier.empty()) return out;

  // Pass 1 (setup): load the frontier's row bounds and flatten its edges
  // into even 32-edge chunks (Gunrock's load-balanced advance).
  std::vector<EdgeChunk> chunks;
  // The enactor guarantees the input frontier is resident in frontier_in_
  // (the previous operator's compact-store, or a host upload for seeds).
  seed_frontier(frontier);
  sim_.label_next_launch("advance");
  gpusim::KernelScope kernel(sim_, gpusim::Schedule::kStatic, true);
  for (std::size_t base = 0; base < frontier.size(); base += 32) {
    const auto cnt = static_cast<std::uint32_t>(
        std::min<std::size_t>(32, frontier.size() - base));
    auto ctx = kernel.make_warp();
    std::array<std::uint64_t, 32> vidx{};
    std::array<std::uint64_t, 32> slot{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      vidx[i] = frontier.vertices()[base + i];
      slot[i] = (base + i) % frontier_in_.size();
      // Double-buffer consume contract: every slot read here must have
      // been published by the previous operator's compact-store or the
      // host seed (gsan no-progress).
      ctx.spin_wait(frontier_in_, slot[i]);
    }
    std::array<VertexId, 32> tmp{};
    ctx.load(frontier_in_, std::span<const std::uint64_t>(slot.data(), cnt),
             std::span<VertexId>(tmp.data(), cnt));
    std::array<EdgeIndex, 32> rb{};
    std::array<EdgeIndex, 32> re{};
    load_row_bounds(ctx, graph_,
                    std::span<const std::uint64_t>(vidx.data(), cnt),
                    std::span<EdgeIndex>(rb.data(), cnt),
                    std::span<EdgeIndex>(re.data(), cnt));
    ctx.alu(4, cnt);  // prefix-sum steps of the flattening
    for (std::uint32_t i = 0; i < cnt; ++i) {
      append_edge_chunks(frontier.vertices()[base + i], rb[i], re[i], chunks);
    }
    kernel.commit(ctx);
  }

  // Pass 2 (expand): one warp per chunk; functor decides emissions.
  for (const EdgeChunk& chunk : chunks) {
    auto ctx = kernel.make_warp();
    const auto cnt = static_cast<std::uint32_t>(chunk.end - chunk.begin);
    const Distance du = ctx.load_one(dist_, chunk.vertex);
    (void)du;
    std::array<VertexId, 32> dsts;
    std::array<Weight, 32> ws;
    ctx.load_range(graph_.adjacency, chunk.begin,
                   std::span<VertexId>(dsts.data(), cnt));
    ctx.load_range(graph_.weights, chunk.begin,
                   std::span<Weight>(ws.data(), cnt));
    ctx.alu(2, cnt);

    // The functor's writes (e.g. atomicMin on dist) are charged as one
    // warp atomic over the emitting lanes.
    std::array<std::uint64_t, 32> emit_idx{};
    std::array<VertexId, 32> vals{};
    std::uint32_t emitted = 0;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      if (f(chunk.vertex, dsts[i], ws[i])) {
        emit_idx[emitted] = dsts[i];
        vals[emitted] = dsts[i];
        ++emitted;
        out.vertices_.push_back(dsts[i]);
      }
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
        slots[i] = (out.vertices_.size() - emitted + i) %
                   frontier_out_.size();
      }
      ctx.store(frontier_out_,
                std::span<const std::uint64_t>(slots.data(), emitted),
                std::span<const VertexId>(vals.data(), emitted));
    }
    kernel.commit(ctx);
  }
  kernel.finish();
  sim_.host_barrier();
  // Ping-pong: the advance output is the next operator's input.
  std::swap(frontier_in_, frontier_out_);
  return out;
}

Frontier Enactor::filter(const Frontier& frontier,
                         const FilterPredicate& pred) {
  Frontier out;
  if (frontier.empty()) return out;
  // One compaction kernel: load candidates, test the predicate, dedup via
  // the visited bitmap (marked with atomicOr — plain byte stores from
  // concurrent warps holding the same vertex would race), compact-store.
  seed_frontier(frontier);
  sim_.label_next_launch("filter");
  gpusim::KernelScope kernel(sim_, gpusim::Schedule::kStatic, true);
  std::vector<char> seen_this_filter(csr_.num_vertices(), 0);
  for (std::size_t base = 0; base < frontier.size(); base += 32) {
    const auto cnt = static_cast<std::uint32_t>(
        std::min<std::size_t>(32, frontier.size() - base));
    auto ctx = kernel.make_warp();
    std::array<std::uint64_t, 32> vidx{};
    std::array<std::uint64_t, 32> slot{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      vidx[i] = frontier.vertices()[base + i];
      slot[i] = (base + i) % frontier_in_.size();
      ctx.spin_wait(frontier_in_, slot[i]);  // double-buffer consume
    }
    std::span<const std::uint64_t> vs(vidx.data(), cnt);
    std::array<VertexId, 32> tmp{};
    ctx.load(frontier_in_, std::span<const std::uint64_t>(slot.data(), cnt),
             std::span<VertexId>(tmp.data(), cnt));
    std::array<std::uint8_t, 32> flags{};
    ctx.load(visited_, vs, std::span<std::uint8_t>(flags.data(), cnt));
    ctx.alu(2, cnt);
    std::uint32_t kept = 0;
    std::array<std::uint64_t, 32> keep_idx{};
    std::array<VertexId, 32> keep_ids{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      const auto v = frontier.vertices()[base + i];
      if (seen_this_filter[v]) continue;  // bitmap dedup
      seen_this_filter[v] = 1;
      if (!pred(v)) continue;
      keep_idx[kept] = v;
      keep_ids[kept] = v;
      ++kept;
      out.vertices_.push_back(v);
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
        oslots[i] = (out.vertices_.size() - kept + i) % frontier_out_.size();
      }
      ctx.store(frontier_out_,
                std::span<const std::uint64_t>(oslots.data(), kept),
                std::span<const VertexId>(keep_ids.data(), kept));
    }
    kernel.commit(ctx);
  }
  kernel.finish();
  sim_.host_barrier();
  std::swap(frontier_in_, frontier_out_);
  // The visited bitmap is per-filter scratch in this model: clear the
  // functional flags (cost folded into the stores above).
  for (const VertexId v : out.vertices_) visited_[v] = 0;
  return out;
}

GpuRunResult sssp(gpusim::DeviceSpec device, const graph::Csr& csr,
                  VertexId source, const GunrockSsspOptions& options) {
  Enactor enactor(std::move(device), csr, options);
  // The driver borrows the enactor's simulator, which is fresh per query
  // but carries its clock and caches across attempts: metrics are
  // per-attempt deltas.
  AttemptDriver driver("gunrock::sssp",
                       {enactor.sim(), /*stream=*/0, enactor.graph()}, csr,
                       options);
  auto& dist = enactor.dist();
  auto attempt = [&]() -> GpuRunResult {
  driver.begin_attempt(dist);
  sssp::WorkStats work;

  init_distances(enactor.sim(), /*stream=*/0, dist);
  dist[source] = 0;
  enactor.sim().mark_initialized(dist, source, 1);

  // Two-level priority split: the "near" pile is advanced immediately,
  // "far" emissions are re-split when near drains (Gunrock's sssp).
  const bool split = options.delta > 0;
  Distance threshold = split ? options.delta : graph::kInfiniteDistance;
  std::vector<VertexId> far;

  Frontier frontier(std::vector<VertexId>{source});
  while (!frontier.empty() || !far.empty()) {
    if (enactor.sim().device_lost()) break;  // attempt is void; recovery runs
    if (frontier.empty()) {
      // Re-split far: advance the threshold and filter the pile.
      Distance min_far = graph::kInfiniteDistance;
      for (const VertexId v : far) {
        if (dist[v] >= threshold) min_far = std::min(min_far, dist[v]);
      }
      if (min_far == graph::kInfiniteDistance) break;
      const Distance old_threshold = threshold;
      while (threshold <= min_far) threshold += options.delta;
      Frontier pile{std::move(far)};
      far.clear();
      frontier = enactor.filter(pile, [&](VertexId v) {
        return dist[v] >= old_threshold && dist[v] < threshold;
      });
      // Entries beyond the new threshold stay in far.
      for (const VertexId v : pile.vertices()) {
        if (dist[v] >= threshold) far.push_back(v);
      }
      continue;
    }

    ++work.iterations;
    // advance(relax): atomicMin semantics through the functor.
    Frontier expanded = enactor.advance(
        frontier, [&](VertexId u, VertexId v, Weight w) {
          ++work.relaxations;
          const Distance through = dist[u] + w;
          if (through < dist[v]) {
            dist[v] = through;
            ++work.total_updates;
            return true;
          }
          return false;
        });
    // filter(dedup + near test); far emissions are piled.
    frontier = enactor.filter(expanded, [&](VertexId v) {
      if (!split) return true;
      if (dist[v] < threshold) return true;
      far.push_back(v);
      return false;
    });
  }

  GpuRunResult result;
  result.sssp.work = work;
  return driver.finish(std::move(result), dist, source);
  };

  return driver.run(source, attempt);
}

}  // namespace rdbs::core::gunrock
