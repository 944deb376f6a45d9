#include "core/gpu_sssp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/macros.hpp"

namespace rdbs::core {

namespace {

// ADWL classification thresholds (paper: α = block = 256, β = warp = 32):
// a vertex with at least kBeta light edges is medium, with at least kAlpha
// large.
constexpr std::uint32_t kAlpha = 256;
constexpr std::uint32_t kBeta = 32;

}  // namespace

// Branch-free: a strip mixes settled and unsettled lanes, so a
// short-circuit test would mispredict.
std::uint32_t lanes_in_window_scalar(std::span<const Distance> d, Weight lo,
                                     Weight hi) {
  std::uint32_t mask = 0;
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    mask |= static_cast<std::uint32_t>(!(d[i] < lo) & !(d[i] >= hi)) << i;
  }
  return mask;
}

std::uint32_t lanes_in_window(std::span<const Distance> d, Weight lo,
                              Weight hi) {
#if defined(__SSE2__)
  // cmpnlt/cmpnge are the negated ordered compares, true on NaN exactly as
  // the scalar !(d < lo) and !(d >= hi) are, so a NaN strip value stays
  // inside every window. GCC 12 does not vectorize the scalar loop, even
  // with -fno-trapping-math.
  const auto n = static_cast<std::uint32_t>(d.size());
  const __m128d vlo = _mm_set1_pd(lo);
  const __m128d vhi = _mm_set1_pd(hi);
  std::uint32_t mask = 0;
  std::uint32_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d v = _mm_loadu_pd(d.data() + i);
    const __m128d in =
        _mm_and_pd(_mm_cmpnlt_pd(v, vlo), _mm_cmpnge_pd(v, vhi));
    mask |= static_cast<std::uint32_t>(_mm_movemask_pd(in)) << i;
  }
  if (i < n) mask |= lanes_in_window_scalar(d.subspan(i), lo, hi) << i;
  return mask;
#else
  return lanes_in_window_scalar(d, lo, hi);
#endif
}

GpuDeltaStepping::GpuDeltaStepping(DeviceBinding device, const Csr& csr,
                                   GpuSsspOptions options)
    : csr_(csr),
      options_(options),
      driver_("GpuDeltaStepping", std::move(device), csr_, options_) {
  const VertexId n = csr_.num_vertices();
  if (options_.pro) {
    RDBS_CHECK_MSG(csr_.weights_sorted_per_vertex(),
                   "PRO requires weight-sorted adjacency "
                   "(run reorder::property_driven_reorder first)");
    RDBS_CHECK_MSG(csr_.has_heavy_offsets(),
                   "PRO requires heavy offsets attached to the CSR");
    // Per-engine mirror (not shared): phase-1 offset maintenance stores
    // query-specific values when Δ is readjusted.
    heavy_offsets_ = sim().alloc<EdgeIndex>("heavy_offsets", n, kDeviceWord);
    std::copy(csr_.heavy_offsets().begin(), csr_.heavy_offsets().end(),
              heavy_offsets_.data().begin());
    sim().mark_initialized(heavy_offsets_);  // H2D upload
  }
  dist_ = sim().alloc<Distance>("dist", n, kDeviceWord);
  auto slots = sim().alloc<VertexId>("queue", std::max<std::size_t>(n, 64),
                                     kDeviceWord);
  // Queue cursors ([0]=tail, [1]=head), claimed with warp-aggregated
  // atomics. Host-initialized at upload time (cudaMemset).
  const auto ctrl = sim().alloc<std::uint32_t>("queue_ctrl", 2, kDeviceWord);
  sim().mark_initialized(ctrl);
  queue_.bind(sim(), std::move(slots), ctrl, /*tail_cell=*/0,
              /*head_cell=*/1, sim().alloc<std::uint8_t>("in_queue", n, 1));
  epoch_.assign(n, ~0ull);
}

EdgeIndex GpuDeltaStepping::light_end(VertexId v, Weight delta) const {
  if (!options_.pro) return csr_.row_end(v);
  const auto weights = csr_.edge_weights(v);
  const auto* split =
      std::lower_bound(weights.data(), weights.data() + weights.size(), delta);
  return csr_.row_begin(v) + static_cast<EdgeIndex>(split - weights.data());
}

void GpuDeltaStepping::seed_queue(VertexId source, Weight hi) {
  // The host seeds the ring with the source vertex — modeled as an H2D
  // upload (the claimed slots plus the in-queue flags), so the cursors and
  // the first pops' slot reads are accounted for.
  queue_.seed(source);
  // Warm start: vertices seeded inside the initial window join the seed
  // frontier here. Later windows are collected by the phase-2/3 scan over
  // the live distances, but nothing scans ahead of the first window.
  if (driver_.warm_bounds() != nullptr) {
    for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
      // seed() skips the source, already queued; `< hi` skips infinities.
      if (dist_[v] < hi) queue_.seed(v);
    }
  }
  queue_.publish();
}

std::optional<Weight> GpuDeltaStepping::light_test(Weight delta) const {
  // Without PRO every edge pays the light/heavy branch and heavy lanes sit
  // idle for the rest of the step (divergence); with PRO the light range is
  // a row prefix and there is no branch.
  if (options_.pro) return std::nullopt;
  return delta;
}

std::uint32_t GpuDeltaStepping::offer_below(const RelaxBatch& batch, Weight hi,
                                            BucketStats& stats) {
  std::uint32_t enq = 0;
  for (std::uint32_t i = 0; i < batch.count; ++i) {
    if (!batch.improved[i]) continue;
    ++stats.phase1_updates;
    if (batch.value[i] < hi &&
        queue_.offer(static_cast<VertexId>(batch.target[i]))) {
      ++enq;
    }
  }
  return enq;
}

void GpuDeltaStepping::parent_warp(gpusim::WarpCtx& ctx,
                                   std::span<const VertexId> lanes, Weight hi,
                                   Weight delta,
                                   std::vector<EdgeChunk>* children,
                                   BucketStats& stats) {
  const auto lane_count = static_cast<std::uint32_t>(lanes.size());
  RDBS_DCHECK(lane_count > 0 && lane_count <= 32);

  queue_.charge_pop(ctx, lanes);
  std::array<std::uint64_t, 32> vidx{};
  for (std::uint32_t i = 0; i < lane_count; ++i) vidx[i] = lanes[i];
  std::span<const std::uint64_t> vspan(vidx.data(), lane_count);
  // Distinct-settlement count (C_i for the Δ-controller): every vertex of
  // the current bucket passes through the queue exactly until it settles.
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    if (epoch_[lanes[i]] != current_epoch_) {
      epoch_[lanes[i]] = current_epoch_;
      ++stats.converged;
    }
  }

  std::array<Distance, 32> dist_u{};
  ctx.load(dist_, vspan, std::span<Distance>(dist_u.data(), lane_count));
  std::array<EdgeIndex, 32> row_begin{};
  std::array<EdgeIndex, 32> row_end{};
  load_row_bounds(ctx, graph(), vspan,
                  std::span<EdgeIndex>(row_begin.data(), lane_count),
                  std::span<EdgeIndex>(row_end.data(), lane_count));

  // Light-range split per lane.
  std::array<EdgeIndex, 32> lend{};
  if (options_.pro) {
    if (delta == csr_.heavy_delta()) {
      // O(1): read the precomputed heavy offset from the row list. (The
      // functional value comes from the CSR, the charged load from the
      // device mirror, which phase-1 offset maintenance may have shifted.)
      std::array<EdgeIndex, 32> tmp{};
      ctx.load(heavy_offsets_, vspan,
               std::span<EdgeIndex>(tmp.data(), lane_count));
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        lend[i] = csr_.heavy_begin(lanes[i]);
      }
    } else {
      // Δ changed (BASYN readjustment): the heavy offset in the row list is
      // maintained incrementally during phase 1 (paper §4.1: "the offset of
      // heavy edges can be changed immediately in phase 1 ... it can adapt
      // itself to the change of Δ value"). Cost: read the stale offset,
      // probe/adjust, write it back — one gather load, a couple of ALU
      // steps, one boundary weight probe and a gather store. The offset
      // traffic is volatile (ld.cg/st.cg): several warps of the same
      // persistent kernel may maintain the same vertex's offset, and the
      // paper requires the change to be "immediately" visible.
      std::array<EdgeIndex, 32> stale{};
      ctx.volatile_load(heavy_offsets_, vspan,
                        std::span<EdgeIndex>(stale.data(), lane_count));
      std::array<std::uint64_t, 32> probe{};
      for (std::uint32_t i = 0; i < lane_count; ++i) {
        lend[i] = light_end(lanes[i], delta);
        // Empty rows have no boundary edge to probe; keep the lane on
        // slot 0 (the hardware would predicate it off). Clamping to
        // row_begin would read one past the weights array for empty
        // rows at the CSR tail (row_begin == num_edges).
        probe[i] = row_end[i] == row_begin[i]
                       ? 0
                       : std::min<std::uint64_t>(lend[i], row_end[i] - 1);
      }
      std::array<Weight, 32> wtmp{};
      if (graph().weights.size() != 0) {
        ctx.load(graph().weights,
                 std::span<const std::uint64_t>(probe.data(), lane_count),
                 std::span<Weight>(wtmp.data(), lane_count));
      }
      ctx.alu(2, lane_count);
      std::array<EdgeIndex, 32> fresh{};
      for (std::uint32_t i = 0; i < lane_count; ++i) fresh[i] = lend[i];
      ctx.volatile_store(heavy_offsets_, vspan,
                         std::span<const EdgeIndex>(fresh.data(), lane_count));
    }
  } else {
    for (std::uint32_t i = 0; i < lane_count; ++i) lend[i] = row_end[i];
  }
  ctx.alu(2, lane_count);  // bucket classification / loop setup

  // ADWL: medium/large lanes spawn child chunks and leave the inline sweep
  // an empty range; small lanes run inline.
  for (std::uint32_t i = 0; i < lane_count; ++i) {
    const std::uint64_t light_deg = lend[i] - row_begin[i];
    if (options_.adwl && children != nullptr && light_deg >= kBeta) {
      if (light_deg >= kAlpha) {
        ++stats.large_workload;
      } else {
        ++stats.medium_workload;
      }
      ctx.child_launch();
      append_edge_chunks(lanes[i], row_begin[i], lend[i], *children);
      lend[i] = row_begin[i];
    } else if (options_.adwl && children != nullptr) {
      ++stats.small_workload;
    }
  }

  // Inline (thread-per-vertex) edge loop: warp pays for its slowest lane.
  relax_lanes(ctx, graph(), dist_,
              std::span<const Distance>(dist_u.data(), lane_count),
              std::span<const EdgeIndex>(row_begin.data(), lane_count),
              std::span<const EdgeIndex>(lend.data(), lane_count),
              light_test(delta), work_, [&](const RelaxBatch& batch) {
                const std::uint32_t enq = offer_below(batch, hi, stats);
                if (enq == 0) return;
                // Workload-list classification costs a light-degree lookup.
                if (options_.adwl) ctx.alu(1, enq);
                queue_.charge_push(ctx);
              });
}

void GpuDeltaStepping::child_warp(gpusim::WarpCtx& ctx, const EdgeChunk& chunk,
                                  Weight hi, Weight delta,
                                  BucketStats& stats) {
  // The chunk's 32 consecutive edges load fully coalesced. Chunks lie
  // entirely in the light range with PRO.
  relax_chunk(ctx, graph(), dist_, chunk, light_test(delta), work_,
              [&](const RelaxBatch& batch) {
                offer_below(batch, hi, stats);
                queue_.charge_push(ctx);
              });
}

void GpuDeltaStepping::phase1_async(Weight hi, Weight delta,
                                    BucketStats& stats) {
  // One persistent kernel per bucket: manager threads feed worker warps
  // from the workload lists; updates are immediately visible and newly
  // activated vertices are processed in the same launch.
  sim().label_next_launch("phase1_async");
  gpusim::KernelScope kernel(sim(), gpusim::Schedule::kDynamic,
                             /*host_launch=*/true, /*warps_per_block=*/8,
                             stream());
  std::vector<EdgeChunk> children;
  std::array<VertexId, 32> lanes{};
  while (!queue_.empty()) {
    const std::uint32_t count = queue_.take_front(lanes);
    auto ctx = kernel.make_warp();
    parent_warp(ctx, std::span<const VertexId>(lanes.data(), count), hi,
                delta, options_.adwl ? &children : nullptr, stats);
    kernel.commit(ctx);
    // Drain spawned child chunks before the next parent batch so their
    // updates propagate promptly (Hyper-Q concurrency: dynamically placed).
    for (const EdgeChunk& chunk : children) {
      auto cctx = kernel.make_warp();
      child_warp(cctx, chunk, hi, delta, stats);
      kernel.commit(cctx);
    }
    children.clear();
    ++stats.phase1_iterations;
  }
  kernel.finish();
}

void GpuDeltaStepping::phase1_sync(Weight hi, Weight delta,
                                   BucketStats& stats) {
  // Level-synchronous: each frontier sweep is its own kernel launch with a
  // barrier (the overhead the paper's Motivation 3 quantifies).
  while (!queue_.empty()) {
    // Iteration boundary = a host launch boundary: the natural cancellation
    // point of the synchronous mode (the next sweep is simply not launched).
    if (driver_.cancelled()) break;
    // Freeze this iteration's frontier; vertices activated during the sweep
    // go to the next iteration. The frontier members' in_queue flags stay
    // set until their parent warp pops them inside the kernel.
    const std::vector<VertexId> frontier = queue_.take_all();
    sim().label_next_launch("phase1_sync");
    gpusim::KernelScope kernel(
        sim(), options_.adwl ? gpusim::Schedule::kDynamic
                             : gpusim::Schedule::kStatic,
        /*host_launch=*/true, /*warps_per_block=*/8, stream());
    std::vector<EdgeChunk> children;
    for (std::size_t i = 0; i < frontier.size(); i += 32) {
      auto ctx = kernel.make_warp();
      parent_warp(ctx,
                  std::span<const VertexId>(frontier).subspan(
                      i, std::min<std::size_t>(32, frontier.size() - i)),
                  hi, delta, options_.adwl ? &children : nullptr, stats);
      kernel.commit(ctx);
    }
    for (const EdgeChunk& chunk : children) {
      auto cctx = kernel.make_warp();
      child_warp(cctx, chunk, hi, delta, stats);
      kernel.commit(cctx);
    }
    kernel.finish();
    sim().host_barrier(stream());
    ++stats.phase1_iterations;
    ++work_.iterations;
  }
}

GpuDeltaStepping::ScanOutcome GpuDeltaStepping::phase23(
    Weight lo, Weight hi, Weight delta, Weight next_lo, Weight next_hi,
    bool relax_heavy) {
  const VertexId n = csr_.num_vertices();
  ScanOutcome outcome;

  // Flattened heavy-edge work list of this bucket's settled vertices. The
  // paper's phase 2 "coarsely assign[s] the same number of heavy edges" to
  // each thread, so relaxation work is chunked EVENLY across warps rather
  // than per source vertex — without this, degree-clustered orderings pile
  // all hub heavy edges onto a few strips/SMs.
  //
  // Reserved at its bound (every edge) so it is never regrown: regrowing it
  // from empty in every bucket left a freed doubling chain in the host
  // heap, which made peak RSS depend on unrelated allocations. Only the
  // pages the list fills are touched.
  std::vector<std::pair<EdgeIndex, VertexId>> heavy_edges;
  heavy_edges.reserve(csr_.num_edges());

  // Strip body: identify lanes settled in [lo, hi), charge their row-bound
  // loads, and append their heavy ranges to the flattened list. The range
  // test runs over every lane into a mask; only settled lanes are visited.
  auto collect_settled = [&](gpusim::WarpCtx& ctx, std::uint64_t begin,
                             std::span<const Distance> dist_vals) {
    std::uint32_t settled = lanes_in_window(dist_vals, lo, hi);
    if (settled == 0) return;
    std::array<std::uint64_t, 32> idx;
    std::uint32_t cnt = 0;
    for (; settled != 0; settled &= settled - 1) {
      const auto v = static_cast<VertexId>(begin + std::countr_zero(settled));
      idx[cnt++] = v;
      const EdgeIndex h =
          options_.pro ? light_end(v, delta) : csr_.row_begin(v);
      for (EdgeIndex e = h; e < csr_.row_end(v); ++e) {
        heavy_edges.emplace_back(e, v);
      }
    }
    outcome.converged += cnt;
    ctx.alu(2, cnt);
    const std::span<const std::uint64_t> settled_idx(idx.data(), cnt);
    std::array<EdgeIndex, 32> tmp;
    ctx.load(graph().row_offsets, settled_idx,
             std::span<EdgeIndex>(tmp.data(), cnt));
    if (options_.pro) {
      ctx.load(heavy_offsets_, settled_idx,
               std::span<EdgeIndex>(tmp.data(), cnt));
    }
  };

  // One 32-edge chunk of the flattened heavy work list.
  auto heavy_chunk = [&](gpusim::WarpCtx& ctx, std::size_t base) {
    const auto cnt = static_cast<std::uint32_t>(
        std::min<std::size_t>(32, heavy_edges.size() - base));
    std::array<std::uint64_t, 32> eidx{};
    for (std::uint32_t i = 0; i < cnt; ++i) {
      eidx[i] = heavy_edges[base + i].first;
    }
    std::span<const std::uint64_t> espan(eidx.data(), cnt);
    std::array<VertexId, 32> dsts{};
    std::array<Weight, 32> ws{};
    ctx.load(graph().adjacency, espan, std::span<VertexId>(dsts.data(), cnt));
    ctx.load(graph().weights, espan, std::span<Weight>(ws.data(), cnt));
    if (!options_.pro) ctx.alu(1, cnt);  // heavy test branch

    RelaxBatch batch;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      if (!options_.pro && ws[i] < delta) continue;  // light: done already
      batch.stage(dsts[i], dist_[heavy_edges[base + i].second] + ws[i]);
    }
    if (batch.count == 0) return;
    ctx.alu(2, batch.count);
    atomic_relax(ctx, dist_, batch, work_, [&](const RelaxBatch& relaxed) {
      // An improvement landing in the next bucket is enqueued directly by
      // the relaxing thread (the collection strip may already have passed
      // its id).
      for (std::uint32_t i = 0; i < relaxed.count; ++i) {
        if (relaxed.improved[i] && relaxed.value[i] >= next_lo &&
            relaxed.value[i] < next_hi) {
          queue_.offer(static_cast<VertexId>(relaxed.target[i]));
        }
      }
      queue_.charge_push(ctx);
    });
  };

  // Collection body: enqueue lanes in [next_lo, next_hi), in vertex order.
  // Decisions use the CURRENT distance (dist_), not the strip values loaded
  // at warp start: heavy relaxations in the same kernel are visible through
  // the atomics, and heavy_chunk's direct-enqueue covers updates that land
  // after a strip was scanned. The strip load still pays the cost. An
  // infinite distance never passes `d < next_hi`.
  auto collect_part = [&](gpusim::WarpCtx& ctx, std::uint64_t begin,
                          std::uint32_t lanes) {
    ctx.alu(3, 32);  // range classification + warp min-reduce step
    std::uint32_t frontier = lanes_in_window(
        std::span<const Distance>(dist_.data()).subspan(begin, lanes),
        next_lo, next_hi);
    for (; frontier != 0; frontier &= frontier - 1) {
      queue_.offer(static_cast<VertexId>(begin + std::countr_zero(frontier)));
    }
    queue_.charge_push(ctx);
  };

  // One warp per 32-vertex strip: one contiguous load of the strip's
  // distances, then the phase-2 body, the phase-3 body, or both (fused).
  auto scan_strips = [&](gpusim::KernelScope& kernel, bool settle,
                         bool collect) {
    for (std::uint64_t begin = 0; begin < n; begin += 32) {
      const auto lanes =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(32, n - begin));
      auto ctx = kernel.make_warp();
      std::array<Distance, 32> dist_vals;
      const std::span<Distance> strip(dist_vals.data(), lanes);
      ctx.load_range(dist_, begin, strip);
      if (settle) collect_settled(ctx, begin, strip);
      if (collect) collect_part(ctx, begin, lanes);
      kernel.commit(ctx);
    }
  };

  auto process_heavy_chunks = [&](gpusim::KernelScope& kernel) {
    for (std::size_t base = 0; base < heavy_edges.size(); base += 32) {
      auto ctx = kernel.make_warp();
      heavy_chunk(ctx, base);
      kernel.commit(ctx);
    }
  };

  // The bucket's scan (relax_heavy) is the kernel that ends at the bucket
  // boundary, so it carries the checkpoint snapshot when one is due.
  const bool fused = options_.adwl;  // kernel fusion rides with ADWL (§4.2)
  if (fused) {
    sim().label_next_launch("phase23_fused");
    gpusim::KernelScope kernel(sim(), gpusim::Schedule::kStatic, true,
                               /*warps_per_block=*/8, stream());
    scan_strips(kernel, relax_heavy, /*collect=*/true);
    if (relax_heavy) {
      process_heavy_chunks(kernel);
      driver_.snapshot_into(kernel, dist_);
    }
    kernel.finish();
  } else {
    if (relax_heavy) {
      sim().label_next_launch("phase2");
      gpusim::KernelScope phase2(sim(), gpusim::Schedule::kStatic, true,
                                 /*warps_per_block=*/8, stream());
      scan_strips(phase2, /*settle=*/true, /*collect=*/false);
      process_heavy_chunks(phase2);
      phase2.finish();
      sim().host_barrier(stream());
    }
    sim().label_next_launch("phase3");
    gpusim::KernelScope phase3(sim(), gpusim::Schedule::kStatic, true,
                               /*warps_per_block=*/8, stream());
    scan_strips(phase3, /*settle=*/false, /*collect=*/true);
    if (relax_heavy) driver_.snapshot_into(phase3, dist_);
    phase3.finish();
    sim().host_barrier(stream());
  }

  // Final reduction (remaining count / minimum unsettled distance) over the
  // post-scan distances. On hardware this is the atomically-reduced counter
  // pair the scan kernel maintains; its cost is covered by the per-strip
  // classification ALU charged in collect_part. The caller reads it only
  // when the scan left the queue empty, so the host computes it only then.
  if (!queue_.empty()) return outcome;
  for (std::uint64_t v = 0; v < n; ++v) {
    const Distance d = dist_[v];
    if (d == graph::kInfiniteDistance) continue;
    if (d >= next_lo) {
      ++outcome.remaining;
      outcome.min_unsettled = std::min(outcome.min_unsettled, d);
    }
  }
  return outcome;
}

GpuRunResult GpuDeltaStepping::run(VertexId source) {
  return driver_.run(source, [&] { return run_attempt(source); });
}

GpuRunResult GpuDeltaStepping::run_attempt(VertexId source) {
  driver_.begin_attempt(dist_);
  work_ = sssp::WorkStats{};
  queue_.reset();

  GpuRunResult result;
  init_distances(sim(), stream(), dist_, queue_.flags());
  seed_source(sim(), stream(), dist_, source);
  driver_.apply_warm_start(dist_, source);

  if (options_.mode == EngineMode::kSyncPushBellmanFord) {
    // BL: plain synchronous push SSSP. One frontier sweep per kernel
    // launch; every out-edge of every active vertex is relaxed (hi = ∞
    // treats all edges as "light" and re-enqueues every improvement).
    // Warm-seeded vertices all land in the (unbounded) initial frontier.
    seed_queue(source, graph::kInfiniteDistance);
    ++current_epoch_;
    BucketStats bs;
    bs.delta = graph::kInfiniteDistance;
    bs.high = graph::kInfiniteDistance;
    bs.initial_active = queue_.size();
    phase1_sync(graph::kInfiniteDistance, graph::kInfiniteDistance, bs);
    result.buckets.push_back(bs);
    result.sssp.work = work_;
    return driver_.finish(std::move(result), dist_, source);
  }

  DeltaController controller(options_.delta0, /*adaptive=*/options_.basyn);
  Weight delta = controller.current_delta();
  Weight lo = 0;
  Weight hi = delta;
  seed_queue(source, hi);

  // Guard against pathological non-termination (cannot occur with
  // non-negative weights, but an experiment harness should fail loudly,
  // not hang).
  const std::uint64_t max_buckets =
      16 * (csr_.num_vertices() + 64);

  std::uint64_t bucket_count = 0;
  while (true) {
    if (++bucket_count >= max_buckets) {
      // Impossible with intact data; a poisoned attempt (corrupted
      // distances) may legitimately spiral and is abandoned here — the
      // retry driver discards it anyway.
      RDBS_CHECK_MSG(driver_.poisoned(), "bucket loop runaway");
      break;
    }
    if (sim().device_lost()) break;  // attempt is void; stop burning work
    // Bucket boundary: the async mode's cancellation point (a persistent
    // phase-1 kernel runs its bucket to completion — a launched grid cannot
    // be revoked — but the next bucket is never launched).
    if (driver_.cancelled()) break;
    ++current_epoch_;
    BucketStats bs;
    bs.delta = delta;
    bs.low = lo;
    bs.high = hi;
    bs.initial_active = queue_.size();

    const std::uint64_t threads_before = sim().counters().active_lane_ops;
    const double ms_before_phase1 = sim().stream_elapsed_ms(stream());
    if (!queue_.empty()) {
      if (options_.basyn) {
        phase1_async(hi, delta, bs);
      } else {
        phase1_sync(hi, delta, bs);
      }
    }
    bs.threads_used = sim().counters().active_lane_ops - threads_before;
    bs.phase1_ms = sim().stream_elapsed_ms(stream()) - ms_before_phase1;

    // Δ readjustment (Algorithm 2, line 11): after phase 1, using this
    // bucket's converged count and thread usage, before phases 2&3 collect
    // the next bucket with the readjusted width.
    controller.record_bucket(bs.converged, bs.threads_used);
    const Weight delta_next = controller.current_delta();

    Weight next_lo = hi;
    Weight next_hi = next_lo + delta_next;
    const double ms_before_phase23 = sim().stream_elapsed_ms(stream());
    const ScanOutcome outcome =
        phase23(lo, hi, delta, next_lo, next_hi, /*relax_heavy=*/true);
    bs.phase23_ms = sim().stream_elapsed_ms(stream()) - ms_before_phase23;
    // The scan's settled count must agree with the queue-side count: every
    // vertex of the bucket passed through the queue exactly once.
    RDBS_DCHECK(outcome.converged == bs.converged || driver_.poisoned());
    result.buckets.push_back(bs);
    // Bucket boundary: the tentative distances are a consistent set of
    // upper bounds here — snapshot them for checkpoint-resume.
    driver_.boundary(dist_);

    if (queue_.empty()) {
      if (outcome.remaining == 0) break;
      // Distance gap: jump to the smallest unsettled distance and
      // re-collect (one extra scan, no heavy relaxation).
      next_lo = outcome.min_unsettled;
      next_hi = next_lo + delta_next;
      const ScanOutcome jump =
          phase23(hi, hi, delta, next_lo, next_hi, /*relax_heavy=*/false);
      if (queue_.empty() && jump.remaining != 0) {
        // A flip between the two scans can shift the observed minimum; the
        // attempt is poisoned and abandoned rather than aborting.
        RDBS_CHECK_MSG(driver_.poisoned(),
                       "jump scan failed to find the minimum vertex");
        break;
      }
      if (queue_.empty()) break;
    }
    lo = next_lo;
    hi = next_hi;
    delta = hi - lo;
  }

  result.sssp.work = work_;
  return driver_.finish(std::move(result), dist_, source);
}

}  // namespace rdbs::core
