// Tests for the GPU Δ-stepping engine, the ADDS comparator and the
// RdbsSolver facade: correctness against Dijkstra under every optimization
// combination, Δ-controller behaviour (Eq. 1-2) and cost-model ordering
// properties (the paper's qualitative claims). The bar every engine meets
// (exactness, a disconnected source, determinism) is AllEngines/
// EngineConformance in test_engine_sweep.cpp.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/adds.hpp"
#include "core/delta_controller.hpp"
#include "core/gpu_sssp.hpp"
#include "core/rdbs.hpp"
#include "core/warp_relax.hpp"
#include "reorder/pro.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/validate.hpp"
#include "test_util.hpp"

namespace rdbs::core {
namespace {

using test::paper_figure1_graph;
using test::random_grid_graph;
using test::random_powerlaw_graph;

void expect_distances_equal(const std::vector<Distance>& actual,
                            const std::vector<Distance>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t v = 0; v < actual.size(); ++v) {
    EXPECT_DOUBLE_EQ(actual[v], expected[v]) << "vertex " << v;
  }
}

// --- phase-2&3 strip window test --------------------------------------------

// The vectorized window mask equals the scalar reference bit for bit, for
// every strip width (road-TX's last strip has 25 lanes, the 8,100-vertex
// test graph's 4), at both alignments of the strip, over values below, at
// and above either bound, infinities, NaNs (a gfi mantissa flip turns a
// loaded +inf into one), signed zeros and denormals.
TEST(StripWindow, VectorMaskMatchesScalarReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double flipped_inf =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(kInf) ^ (1ull << 7));
  ASSERT_TRUE(std::isnan(flipped_inf));
  const double denorm = std::numeric_limits<double>::denorm_min();
  struct Window {
    double lo;
    double hi;
  };
  const Window windows[] = {{1.0, 2.0}, {1.5, 1.5}, {3.0, kInf},
                            {0.0, denorm}, {-0.0, 1.0}};
  Xoshiro256 rng(23);
  for (const Window w : windows) {
    const double pool[] = {w.lo,
                           w.hi,
                           std::nextafter(w.lo, -kInf),
                           std::nextafter(w.lo, kInf),
                           std::nextafter(w.hi, -kInf),
                           std::nextafter(w.hi, kInf),
                           0.5 * (w.lo + w.hi),
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::quiet_NaN(),
                           flipped_inf,
                           -0.0,
                           0.0,
                           denorm,
                           -denorm,
                           1e300};
    constexpr std::size_t kPool = sizeof(pool) / sizeof(pool[0]);
    for (std::uint32_t lanes = 1; lanes <= 32; ++lanes) {
      for (std::uint32_t offset = 0; offset < 2; ++offset) {
        for (int trial = 0; trial < 64; ++trial) {
          std::array<Distance, 33> strip{};
          for (Distance& d : strip) d = pool[rng.next_below(kPool)];
          const std::span<const Distance> d(strip.data() + offset, lanes);
          ASSERT_EQ(lanes_in_window(d, w.lo, w.hi),
                    lanes_in_window_scalar(d, w.lo, w.hi))
              << "lo=" << w.lo << " hi=" << w.hi << " lanes=" << lanes
              << " offset=" << offset << " trial=" << trial;
        }
      }
    }
  }
  // The contract itself on one strip: lo <= d < hi, NaN inside.
  const std::array<Distance, 6> strip = {0.5, 1.0, 1.5, 2.0, kInf,
                                         flipped_inf};
  EXPECT_EQ(lanes_in_window(strip, 1.0, 2.0), 0b100110u);
  EXPECT_EQ(lanes_in_window(strip, 1.5, 1.5), 0b100000u);
  EXPECT_EQ(lanes_in_window(strip, 1.0, kInf), 0b101110u);
}

// --- shared warp relax steps ------------------------------------------------

TEST(WarpRelax, EdgeChunksCoverTheRangeIn32EdgeSteps) {
  struct Case {
    EdgeIndex edges;
    std::vector<std::pair<EdgeIndex, EdgeIndex>> chunks;  // offsets
  };
  const Case cases[] = {{0, {}},
                        {1, {{0, 1}}},
                        {32, {{0, 32}}},
                        {33, {{0, 32}, {32, 33}}},
                        {65, {{0, 32}, {32, 64}, {64, 65}}}};
  constexpr EdgeIndex kBegin = 100;
  for (const Case& c : cases) {
    std::vector<EdgeChunk> out = {{9, 0, 1}};  // appends after what is there
    append_edge_chunks(7, kBegin, kBegin + c.edges, out);
    ASSERT_EQ(out.size(), 1 + c.chunks.size()) << "edges=" << c.edges;
    for (std::size_t i = 0; i < c.chunks.size(); ++i) {
      EXPECT_EQ(out[1 + i].vertex, 7u);
      EXPECT_EQ(out[1 + i].begin, kBegin + c.chunks[i].first);
      EXPECT_EQ(out[1 + i].end, kBegin + c.chunks[i].second);
    }
  }
}

// A Near/Far pair on its own simulator, under gsan, with hand-set
// distances: the far pile is host-seeded and published as an engine's
// pushes would leave it.
struct NearFarFixture {
  static constexpr VertexId kVertices = 8;
  gpusim::GpuSim sim{gpusim::test_device()};
  gpusim::Buffer<Distance> dist;
  DeviceQueue near;
  DeviceQueue far;

  explicit NearFarFixture(std::vector<std::pair<VertexId, Distance>> set) {
    sim.enable_sanitizer(gpusim::SanitizeMode::kOn);
    dist = sim.alloc<Distance>("dist", kVertices, 4);
    std::fill(dist.data().begin(), dist.data().end(),
              graph::kInfiniteDistance);
    for (const auto& [v, d] : set) dist[v] = d;
    sim.mark_initialized(dist);
    const auto ctrl = sim.alloc<std::uint32_t>("queue_ctrl", 3, 4);
    sim.mark_initialized(ctrl);
    near.bind(sim, sim.alloc<VertexId>("near", 64, 4), ctrl, 0, 1,
              sim.alloc<std::uint8_t>("in_near", kVertices, 1));
    far.bind(sim, sim.alloc<VertexId>("far", 64, 4), ctrl, 2,
             DeviceQueue::kNoCell);
    near.reset();
    far.reset();
  }
  void pile(std::initializer_list<VertexId> entries) {
    for (const VertexId v : entries) far.seed(v);
    far.publish();
  }
  std::string report() const { return sim.sanitizer()->report(); }
};

TEST(WarpRelax, FarSplitPromotesRepilesAndDropsStaleEntries) {
  // threshold 10, Δ 10: vertex 4 settled below the threshold (a stale
  // entry, piled twice), vertex 2 is the pile minimum (piled twice), vertex
  // 7 lies beyond the advanced threshold.
  NearFarFixture f({{4, 5.0}, {2, 20.0}, {7, 47.0}});
  f.pile({4, 2, 7, 4, 2});
  Distance threshold = 10.0;
  ASSERT_TRUE(split_far_pile(f.sim, 0, f.dist, f.near, f.far, threshold,
                             /*delta=*/10.0));
  // Whole Δ steps strictly past the minimum 20: 10 -> 20 -> 30.
  EXPECT_EQ(threshold, 30.0);
  EXPECT_EQ(std::vector<VertexId>(f.near.pending().begin(),
                                  f.near.pending().end()),
            std::vector<VertexId>{2});  // the offer deduplicates
  EXPECT_EQ(std::vector<VertexId>(f.far.pending().begin(),
                                  f.far.pending().end()),
            std::vector<VertexId>{7});
  EXPECT_EQ(f.sim.counters().kernel_launches, 1u);
  EXPECT_EQ(f.report(), "");
}

TEST(WarpRelax, FarSplitOfAnAllStalePileReturnsFalse) {
  NearFarFixture f({{4, 5.0}, {6, 9.5}});
  f.pile({4, 6, 4});
  Distance threshold = 10.0;
  EXPECT_FALSE(split_far_pile(f.sim, 0, f.dist, f.near, f.far, threshold,
                              /*delta=*/10.0));
  EXPECT_EQ(threshold, 10.0);
  EXPECT_TRUE(f.near.empty());
  EXPECT_TRUE(f.far.empty());
  EXPECT_EQ(f.report(), "");
}

// --- Δ-controller ----------------------------------------------------------

TEST(DeltaController, FirstTwoEpsilonsAreZero) {
  // Eq. (1): ε0 = ε1 = 0, so Δ0 = Δ1 = the configured initial width; the
  // first readjustment (ε2) happens only once two buckets are recorded.
  DeltaController controller(100.0);
  EXPECT_DOUBLE_EQ(controller.current_delta(), 100.0);
  controller.record_bucket(10, 1000);
  EXPECT_DOUBLE_EQ(controller.current_delta(), 100.0);  // Δ1 = Δ0
  ASSERT_GE(controller.epsilon_history().size(), 2u);
  EXPECT_DOUBLE_EQ(controller.epsilon_history()[0], 0.0);
  EXPECT_DOUBLE_EQ(controller.epsilon_history()[1], 0.0);
}

TEST(DeltaController, RisingUtilizationShrinksDelta) {
  DeltaController controller(100.0);
  controller.record_bucket(100, 1000);
  controller.record_bucket(300, 4000);  // threads rose: T-term negative
  EXPECT_LT(controller.current_delta(), 100.0);  // Δ2 < Δ0
}

TEST(DeltaController, FallingUtilizationGrowsDelta) {
  DeltaController controller(100.0);
  controller.record_bucket(300, 4000);
  controller.record_bucket(100, 1000);  // threads fell: T-term positive
  EXPECT_GT(controller.current_delta(), 100.0);  // Δ2 > Δ0
}

TEST(DeltaController, Equation1Exact) {
  DeltaController controller(100.0);
  controller.record_bucket(100, 1000);  // C0, T0
  controller.record_bucket(300, 2000);  // C1, T1 -> computes ε2
  controller.record_bucket(0, 0);
  // ε2 = |(100-300)/(100+300)| * (1000-2000)/(1000+2000) * 100
  //    = 0.5 * (-1/3) * 100 = -16.666...
  ASSERT_GE(controller.epsilon_history().size(), 3u);
  EXPECT_NEAR(controller.epsilon_history()[2], -50.0 / 3.0, 1e-9);
}

TEST(DeltaController, ClampPreventsCollapse) {
  DeltaController controller(100.0);
  // Hammer it with maximal shrink signals.
  controller.record_bucket(1, 1);
  for (int i = 0; i < 200; ++i) {
    controller.record_bucket((i % 2) ? 1000000 : 1, (i % 2) ? 1000000 : 1);
  }
  EXPECT_GE(controller.current_delta(), 100.0 / 2);
  EXPECT_LE(controller.current_delta(), 100.0 * 4);
}

TEST(DeltaController, NonAdaptiveStaysFixed) {
  DeltaController controller(100.0, /*adaptive=*/false);
  controller.record_bucket(1, 1);
  controller.record_bucket(100, 100000);
  controller.record_bucket(5, 3);
  EXPECT_DOUBLE_EQ(controller.current_delta(), 100.0);
}

TEST(DeltaController, ZeroCountsSafe) {
  DeltaController controller(50.0);
  controller.record_bucket(0, 0);
  controller.record_bucket(0, 0);
  controller.record_bucket(0, 0);
  EXPECT_DOUBLE_EQ(controller.current_delta(), 50.0);  // no NaN, no change
}

TEST(DeltaController, ZeroDenominatorGivesZeroEpsilon) {
  // Eq. (1) divides by C-sums and T-sums; either sum being zero must yield
  // ε = 0 exactly, not NaN/inf (header contract).
  DeltaController zero_converged(100.0);
  zero_converged.record_bucket(0, 1000);  // every C-sum window is zero
  zero_converged.record_bucket(0, 1);
  zero_converged.record_bucket(0, 999999);
  DeltaController zero_threads(100.0);
  zero_threads.record_bucket(500, 0);     // every T-sum window is zero
  zero_threads.record_bucket(1, 0);
  zero_threads.record_bucket(999999, 0);
  for (const DeltaController* c : {&zero_converged, &zero_threads}) {
    for (const graph::Weight eps : c->epsilon_history()) {
      EXPECT_DOUBLE_EQ(eps, 0.0);
    }
    EXPECT_DOUBLE_EQ(c->current_delta(), 100.0);
  }
}

TEST(DeltaController, AdversarialFeedbackNeverLeavesDocumentedRange) {
  // The documented contract (delta_controller.hpp / DESIGN.md): every step
  // |ε| ≤ Δ0/4 and Δ ∈ [Δ0/2, 4Δ0], for ANY feedback sequence. Drive the
  // controller with seeded random extremes — including zero counts, spikes
  // of six orders of magnitude, and constant runs — and check the bounds
  // after every single step, not just at the end.
  for (const graph::Weight delta0 : {0.1, 1.0, 100.0, 1e6}) {
    Xoshiro256 rng(0xadd5 + static_cast<std::uint64_t>(delta0));
    DeltaController controller(delta0);
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t magnitude = 1ull << rng.next_below(21);
      controller.record_bucket(rng.next_below(2) ? 0 : rng.next_below(magnitude + 1),
                               rng.next_below(2) ? 0 : rng.next_below(magnitude + 1));
      EXPECT_GE(controller.current_delta(), delta0 / 2) << "step " << step;
      EXPECT_LE(controller.current_delta(), delta0 * 4) << "step " << step;
      const graph::Weight eps = controller.epsilon_history().back();
      EXPECT_LE(std::abs(eps), delta0 / 4 + 1e-12) << "step " << step;
    }
  }
}

// --- engine correctness across the ablation space --------------------------

struct EngineParam {
  bool basyn, pro, adwl;
};

class EngineAblation : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineAblation, MatchesDijkstraOnPowerLaw) {
  const EngineParam p = GetParam();
  const Csr csr = random_powerlaw_graph(600, 4800, 55);

  GpuSsspOptions options;
  options.basyn = p.basyn;
  options.pro = p.pro;
  options.adwl = p.adwl;
  options.delta0 = 150.0;

  RdbsSolver solver(csr, gpusim::test_device(), options);
  const VertexId source = 4;
  const GpuRunResult result = solver.solve(source);
  const auto reference = sssp::dijkstra(csr, source);
  expect_distances_equal(result.sssp.distances, reference.distances);
  const auto verdict =
      sssp::validate_distances(csr, source, result.sssp.distances);
  EXPECT_FALSE(verdict.has_value()) << *verdict;
  EXPECT_GT(result.device_ms, 0.0);
  EXPECT_GE(result.sssp.work.total_updates, result.sssp.work.valid_updates);
}

TEST_P(EngineAblation, MatchesDijkstraOnGrid) {
  const EngineParam p = GetParam();
  const Csr csr = random_grid_graph(20, 57);
  GpuSsspOptions options;
  options.basyn = p.basyn;
  options.pro = p.pro;
  options.adwl = p.adwl;
  options.delta0 = 200.0;
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const GpuRunResult result = solver.solve(0);
  expect_distances_equal(result.sssp.distances,
                         sssp::dijkstra(csr, 0).distances);
}

TEST_P(EngineAblation, MatchesDijkstraOnFigure1) {
  const EngineParam p = GetParam();
  Csr csr = paper_figure1_graph();
  GpuSsspOptions options;
  options.basyn = p.basyn;
  options.pro = p.pro;
  options.adwl = p.adwl;
  options.delta0 = 3.0;  // the paper's example Δ
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const GpuRunResult result = solver.solve(0);
  expect_distances_equal(result.sssp.distances,
                         sssp::dijkstra(csr, 0).distances);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlagCombos, EngineAblation,
    ::testing::Values(EngineParam{false, false, false},  // BL
                      EngineParam{true, false, false},   // BASYN
                      EngineParam{true, true, false},    // BASYN+PRO
                      EngineParam{true, false, true},    // BASYN+ADWL
                      EngineParam{false, true, false},   // PRO sync
                      EngineParam{false, false, true},   // ADWL sync
                      EngineParam{false, true, true},    // PRO+ADWL sync
                      EngineParam{true, true, true}));   // RDBS full

TEST(Engine, DistanceGapJumpsBuckets) {
  // Two clusters joined by one enormous edge: the bucket walk must jump
  // the empty distance range rather than scanning thousands of buckets.
  graph::EdgeList edges;
  edges.num_vertices = 8;
  edges.add_edge(0, 1, 1.0);
  edges.add_edge(1, 2, 2.0);
  edges.add_edge(2, 3, 1.0);
  edges.add_edge(3, 4, 100000.0);
  edges.add_edge(4, 5, 1.0);
  edges.add_edge(5, 6, 2.0);
  edges.add_edge(6, 7, 1.0);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);
  GpuSsspOptions options;
  options.delta0 = 10.0;
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const GpuRunResult result = solver.solve(0);
  expect_distances_equal(result.sssp.distances,
                         sssp::dijkstra(csr, 0).distances);
  // Bucket count stays near the number of *occupied* buckets, nowhere near
  // 100000/10.
  EXPECT_LT(result.buckets.size(), 50u);
}

TEST(Engine, BucketStatsAreConsistent) {
  const Csr csr = random_powerlaw_graph(600, 4800, 63);
  GpuSsspOptions options;
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const GpuRunResult result = solver.solve(0);
  ASSERT_FALSE(result.buckets.empty());
  std::uint64_t converged_total = 0;
  for (const BucketStats& bs : result.buckets) {
    EXPECT_LE(bs.low, bs.high);
    EXPECT_GT(bs.delta, 0.0);
    converged_total += bs.converged;
  }
  // Every reached vertex settles in exactly one bucket.
  EXPECT_EQ(converged_total, result.sssp.reached_count());
}

TEST(Engine, AdaptiveDeltaActuallyChanges) {
  const Csr csr = random_powerlaw_graph(2000, 24000, 65);
  GpuSsspOptions options;
  options.basyn = true;
  options.delta0 = 100.0;
  RdbsSolver solver(csr, gpusim::test_device(), options);
  const GpuRunResult result = solver.solve(0);
  bool changed = false;
  for (const BucketStats& bs : result.buckets) {
    if (bs.delta != options.delta0) changed = true;
  }
  EXPECT_TRUE(changed);
}

// --- qualitative cost-model properties (the paper's claims) ----------------

TEST(EngineCost, SyncLaunchesMoreKernelsThanAsync) {
  const Csr csr = random_powerlaw_graph(1500, 18000, 67);
  GpuSsspOptions sync_options;
  sync_options.basyn = false;
  sync_options.pro = false;
  sync_options.adwl = false;
  GpuSsspOptions async_options = sync_options;
  async_options.basyn = true;

  RdbsSolver sync_solver(csr, gpusim::v100(), sync_options);
  RdbsSolver async_solver(csr, gpusim::v100(), async_options);
  const auto sync_result = sync_solver.solve(0);
  const auto async_result = async_solver.solve(0);
  EXPECT_GT(sync_result.counters.kernel_launches,
            async_result.counters.kernel_launches);
}

TEST(EngineCost, ProReducesPhase1Loads) {
  const Csr csr = random_powerlaw_graph(1500, 18000, 69);
  GpuSsspOptions base;
  base.basyn = true;
  base.pro = false;
  base.adwl = false;
  GpuSsspOptions with_pro = base;
  with_pro.pro = true;

  RdbsSolver plain(csr, gpusim::v100(), base);
  RdbsSolver pro(csr, gpusim::v100(), with_pro);
  const auto plain_result = plain.solve(0);
  const auto pro_result = pro.solve(0);
  // Phase 1 touches only light edges under PRO: fewer warp-level loads.
  EXPECT_LT(pro_result.counters.inst_executed_global_loads,
            plain_result.counters.inst_executed_global_loads);
}

TEST(EngineCost, AdwlBeatsPlainOnHubGraph) {
  // Kronecker-like graph with giant hubs: thread-per-vertex stalls warps.
  graph::KroneckerParams params;
  params.scale = 11;
  params.edgefactor = 12;
  params.seed = 71;
  graph::EdgeList edges = graph::generate_kronecker(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, 71);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);

  GpuSsspOptions base;
  base.basyn = true;
  base.pro = true;
  base.adwl = false;
  GpuSsspOptions with_adwl = base;
  with_adwl.adwl = true;

  RdbsSolver plain(csr, gpusim::v100(), base);
  RdbsSolver adwl(csr, gpusim::v100(), with_adwl);
  EXPECT_LT(adwl.solve(0).device_ms, plain.solve(0).device_ms);
}

TEST(EngineCost, FullRdbsBeatsBaselineOnPowerLaw) {
  const Csr csr = random_powerlaw_graph(3000, 36000, 73);
  GpuSsspOptions bl;
  bl.basyn = bl.pro = bl.adwl = false;
  GpuSsspOptions full;  // all on by default

  RdbsSolver baseline(csr, gpusim::v100(), bl);
  RdbsSolver rdbs(csr, gpusim::v100(), full);
  const auto bl_result = baseline.solve(0);
  const auto rdbs_result = rdbs.solve(0);
  EXPECT_LT(rdbs_result.device_ms, bl_result.device_ms);
  expect_distances_equal(rdbs_result.sssp.distances,
                         bl_result.sssp.distances);
}

TEST(EngineCost, V100FasterThanT4) {
  // The platform gap (paper Fig. 12) comes from compute throughput and
  // memory bandwidth, so the working set must exceed the L2 (4-6 MB) and
  // the per-bucket parallelism must exceed one warp per SM — otherwise the
  // run is launch/latency-bound, where the T4's higher clock legitimately
  // ties or wins (documented in EXPERIMENTS.md).
  const Csr csr = random_powerlaw_graph(300000, 4800000, 75);
  RdbsSolver v100_solver(csr, gpusim::v100());
  RdbsSolver t4_solver(csr, gpusim::tesla_t4());
  const double v100_ms = v100_solver.solve(0).device_ms;
  const double t4_ms = t4_solver.solve(0).device_ms;
  EXPECT_LT(v100_ms, t4_ms);
  // Paper Fig. 12: the gap is roughly 1.5-2.6x; allow slack since small
  // graphs are launch-bound on both platforms.
  EXPECT_LT(t4_ms / v100_ms, 5.0);
}

// --- ADDS comparator --------------------------------------------------------

TEST(AddsLike, RdbsBeatsAddsOnKronecker) {
  // The headline Table 2 effect: ADDS collapses on hub-heavy Kronecker
  // graphs (21x in the paper); RDBS must win clearly under the cost model.
  graph::KroneckerParams params;
  params.scale = 11;
  params.edgefactor = 12;
  params.seed = 83;
  graph::EdgeList edges = graph::generate_kronecker(params);
  graph::assign_weights(edges, graph::WeightScheme::kUniformInt1To1000, 83);
  graph::BuildOptions build;
  build.symmetrize = true;
  const Csr csr = graph::build_csr(edges, build);

  RdbsSolver rdbs(csr, gpusim::v100());
  AddsLike adds(gpusim::v100(), csr, {});
  const double rdbs_ms = rdbs.solve(0).device_ms;
  const double adds_ms = adds.run(0).device_ms;
  EXPECT_LT(rdbs_ms, adds_ms);
}

// --- facade ------------------------------------------------------------------

TEST(RdbsSolver, MapsDistancesBackToOriginalIds) {
  const Csr csr = random_powerlaw_graph(300, 2400, 85);
  RdbsSolver solver(csr, gpusim::test_device());  // PRO on: permuted inside
  const auto reference = sssp::dijkstra(csr, 9);
  const auto result = solver.solve(9);
  expect_distances_equal(result.sssp.distances, reference.distances);
}

TEST(RdbsSolver, ReportsPreprocessingTime) {
  const Csr csr = random_powerlaw_graph(300, 2400, 87);
  RdbsSolver solver(csr, gpusim::test_device());
  EXPECT_GE(solver.preprocessing_ms(), 0.0);
  EXPECT_TRUE(solver.engine_graph().has_heavy_offsets());
}

TEST(RdbsSolver, EveryVertexAsSourceOnSmallGraph) {
  const Csr csr = paper_figure1_graph();
  RdbsSolver solver(csr, gpusim::test_device());
  for (VertexId s = 0; s < csr.num_vertices(); ++s) {
    expect_distances_equal(solver.solve(s).sssp.distances,
                           sssp::dijkstra(csr, s).distances);
  }
}

}  // namespace
}  // namespace rdbs::core
