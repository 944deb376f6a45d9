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
  sim.memcpy_h2d(1 << 20);
  EXPECT_NEAR(sim.elapsed_ms() - before, 2 * sim.memcpy_ms(1 << 20), 1e-12);
  // A D2H pays the same cost, on the copy queue instead of the clock.
  const double issued = sim.elapsed_ms();
  EXPECT_NEAR(sim.memcpy_d2h_async(1 << 20) - issued, sim.memcpy_ms(1 << 20),
              1e-12);
}

// Runs one small kernel on `stream`, so its clock is past zero.
void run_one_kernel(gpusim::GpuSim& sim, gpusim::StreamId stream) {
  sim.run_kernel(gpusim::Schedule::kStatic, 4, 1,
                 [](gpusim::WarpCtx& ctx, std::uint64_t) { ctx.alu(50); },
                 /*host_launch=*/true, stream);
}

TEST(Transfers, AsyncD2hLandsOneCopyLaterAndLeavesTheStreamClock) {
  gpusim::GpuSim sim(gpusim::test_device());
  run_one_kernel(sim, 0);
  const double issued = sim.stream_elapsed_ms(0);
  ASSERT_GT(issued, 0.0);
  const double landed = sim.memcpy_d2h_async(8192, 0);
  EXPECT_DOUBLE_EQ(landed, issued + sim.memcpy_ms(8192));
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(0), issued);
  EXPECT_DOUBLE_EQ(sim.d2h_queue_free_ms(0), landed);
  // The next kernel on the stream overlaps the copy instead of waiting.
  run_one_kernel(sim, 0);
  EXPECT_DOUBLE_EQ(sim.stream_elapsed_ms(0), 2 * issued);
  EXPECT_DOUBLE_EQ(sim.d2h_queue_free_ms(0), landed);
}

TEST(Transfers, CopiesOnOneStreamLandOneCopyApart) {
  gpusim::GpuSim sim(gpusim::test_device());
  run_one_kernel(sim, 0);
  const double first = sim.memcpy_d2h_async(8192, 0);
  const double second = sim.memcpy_d2h_async(8192, 0);
  EXPECT_DOUBLE_EQ(second - first, sim.memcpy_ms(8192));
}

TEST(Transfers, CopyQueuesOfTwoStreamsDoNotContend) {
  gpusim::GpuSim sim(gpusim::test_device());
  run_one_kernel(sim, 0);
  run_one_kernel(sim, 1);
  const double lane0 = sim.memcpy_d2h_async(8192, 0);
  const double lane1 = sim.memcpy_d2h_async(8192, 1);
  EXPECT_DOUBLE_EQ(lane0, sim.stream_elapsed_ms(0) + sim.memcpy_ms(8192));
  EXPECT_DOUBLE_EQ(lane1, sim.stream_elapsed_ms(1) + sim.memcpy_ms(8192));
}

TEST(Transfers, ResetTimeEmptiesTheCopyQueues) {
  gpusim::GpuSim sim(gpusim::test_device());
  run_one_kernel(sim, 0);
  sim.memcpy_d2h_async(8192, 0);
  sim.memcpy_d2h_async(8192, 2);
  sim.reset_time();
  EXPECT_EQ(sim.d2h_queue_free_ms(0), 0.0);
  EXPECT_EQ(sim.d2h_queue_free_ms(2), 0.0);
  EXPECT_DOUBLE_EQ(sim.memcpy_d2h_async(8192, 0), sim.memcpy_ms(8192));
}

}  // namespace
}  // namespace rdbs
