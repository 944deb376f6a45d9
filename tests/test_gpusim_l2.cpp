// Tests for the L2 level of the memory model and for the invariant-check
// (death) behavior of the containers.
#include <gtest/gtest.h>

#include <array>

#include "gpusim/sim.hpp"
#include "graph/csr.hpp"
#include "reorder/pro.hpp"

namespace rdbs {
namespace {

using gpusim::GpuSim;
using gpusim::Schedule;
using gpusim::WarpCtx;

TEST(L2, L1MissCanHitL2) {
  // Schedule::kStatic, one warp per block: task 0 runs on SM 0, task 1 on
  // SM 1, in that (canonical) order.
  GpuSim sim(gpusim::test_device());
  auto buf = sim.alloc<float>("x", 64);
  sim.run_kernel(Schedule::kStatic, 2, 1,
                 [&](WarpCtx& ctx, std::uint64_t) { ctx.load_one(buf, 0); });
  const auto& c = sim.counters();
  // SM 0's first touch misses both levels and pays one DRAM sector; SM 1
  // misses its own L1 but the shared L2 has the sector by then.
  EXPECT_EQ(c.l1_sector_hits, 0u);
  EXPECT_EQ(c.l2_sector_accesses, 2u);
  EXPECT_EQ(c.l2_sector_hits, 1u);
  EXPECT_EQ(c.dram_bytes, 32u);
}

TEST(L2, AtomicsShareL2WithLoads) {
  GpuSim sim(gpusim::test_device());
  auto buf = sim.alloc<std::uint32_t>("x", 64);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.load_one(buf, 0);  // load warms L2
    const std::uint64_t idx[1] = {0};
    ctx.atomic_touch(buf, idx);
  });
  const auto& c = sim.counters();
  EXPECT_EQ(c.l2_sector_hits, 1u);  // the atomic hits L2
  EXPECT_EQ(c.dram_bytes, 32u);     // only the load's cold miss went out
}

TEST(L2, RepeatedAtomicsStopPayingDram) {
  GpuSim sim(gpusim::test_device());
  auto buf = sim.alloc<double>("x", 8);
  buf[0] = 1e9;
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    for (int i = 0; i < 10; ++i) ctx.atomic_min_one(buf, 0, 100.0 - i);
  });
  // 10 atomic instructions but only the first paid a DRAM sector.
  EXPECT_EQ(sim.counters().inst_executed_atomics, 10u);
  EXPECT_EQ(sim.counters().dram_bytes, 32u);
  EXPECT_EQ(sim.counters().l2_sector_hits, 9u);
}

TEST(L2, CapacityEvictionReachesDram) {
  // testdev L2 = 64 KiB; stream 256 KiB of sectors twice: the second pass
  // must still miss (the working set does not fit).
  GpuSim sim(gpusim::test_device());
  auto buf = sim.alloc<double>("big", 1 << 16, 4);  // 256 KiB device bytes
  auto stream_once = [&]() {
    sim.run_kernel(Schedule::kStatic, (1 << 16) / 32, 8,
                   [&](WarpCtx& ctx, std::uint64_t w) {
                     std::array<std::uint64_t, 32> idx{};
                     std::array<double, 32> out{};
                     for (int i = 0; i < 32; ++i) idx[i] = w * 32 + i;
                     ctx.load(buf, std::span<const std::uint64_t>(idx),
                              std::span<double>(out));
                   });
  };
  stream_once();
  const std::uint64_t dram_first = sim.counters().dram_bytes;
  stream_once();
  const std::uint64_t dram_second = sim.counters().dram_bytes - dram_first;
  // Most of the second pass misses again.
  EXPECT_GT(dram_second, dram_first / 2);
}

TEST(L2, HitRateCounterConsistency) {
  GpuSim sim(gpusim::test_device());
  auto buf = sim.alloc<double>("x", 1024, 4);
  sim.run_kernel(Schedule::kStatic, 32, 8, [&](WarpCtx& ctx, std::uint64_t w) {
    std::array<std::uint64_t, 32> idx{};
    std::array<double, 32> out{};
    for (int i = 0; i < 32; ++i) idx[i] = (w * 32 + i) % 1024;
    ctx.load(buf, std::span<const std::uint64_t>(idx), std::span<double>(out));
  });
  const auto& c = sim.counters();
  EXPECT_LE(c.l2_sector_hits, c.l2_sector_accesses);
  // Every L1 miss probed the L2.
  EXPECT_EQ(c.l2_sector_accesses, c.l1_sector_accesses - c.l1_sector_hits);
  EXPECT_GE(c.l2_hit_rate(), 0.0);
  EXPECT_LE(c.l2_hit_rate(), 1.0);
}

// --- invariant death tests ----------------------------------------------------

using CsrDeath = ::testing::Test;

TEST(CsrDeathTest, RejectsNonMonotoneOffsets) {
  std::vector<graph::EdgeIndex> offsets{0, 3, 2};
  std::vector<graph::VertexId> adjacency{0, 0};
  std::vector<graph::Weight> weights{1, 1};
  EXPECT_DEATH(graph::Csr(std::move(offsets), std::move(adjacency),
                          std::move(weights)),
               "RDBS_CHECK");
}

TEST(CsrDeathTest, RejectsOutOfRangeNeighbor) {
  std::vector<graph::EdgeIndex> offsets{0, 1};
  std::vector<graph::VertexId> adjacency{5};  // only 1 vertex exists
  std::vector<graph::Weight> weights{1};
  EXPECT_DEATH(graph::Csr(std::move(offsets), std::move(adjacency),
                          std::move(weights)),
               "RDBS_CHECK");
}

TEST(CsrDeathTest, HeavyOffsetsRequireSortedWeights) {
  std::vector<graph::EdgeIndex> offsets{0, 2};
  std::vector<graph::VertexId> adjacency{0, 0};
  std::vector<graph::Weight> weights{5, 1};  // descending: unsorted
  graph::Csr csr(std::move(offsets), std::move(adjacency),
                 std::move(weights));
  EXPECT_DEATH(csr.recompute_heavy_offsets(3.0), "sorted");
}

TEST(PermutationDeathTest, RejectsDuplicateValues) {
  EXPECT_DEATH(reorder::Permutation({0, 0, 1}), "duplicate");
}

TEST(PermutationDeathTest, RejectsOutOfRangeValues) {
  EXPECT_DEATH(reorder::Permutation({0, 7}), "out of range");
}

}  // namespace
}  // namespace rdbs

namespace rdbs {
namespace {

TEST(Transfers, MemcpyCostsScaleWithBytes) {
  gpusim::GpuSim sim(gpusim::v100());
  const double small = sim.memcpy_ms(1 << 10);
  const double large = sim.memcpy_ms(1 << 30);
  EXPECT_GT(large, 50 * small);  // 1 GiB over PCIe ~ 90 ms >> setup cost
  EXPECT_GT(small, 0.0);         // even tiny copies pay the setup latency
  const double before = sim.elapsed_ms();
  sim.memcpy_h2d(1 << 20);
  sim.memcpy_d2h(1 << 20);
  EXPECT_NEAR(sim.elapsed_ms() - before, 2 * sim.memcpy_ms(1 << 20), 1e-12);
}

}  // namespace
}  // namespace rdbs
