// Unit tests for the SIMT simulator: cache behaviour, coalescing, counter
// accounting, divergence, scheduling and the cost model's invariants. The
// cache and coalescing tests are the reference for the primitives every
// charge goes through (SectoredCache::access_line and coalesce_warp_lanes),
// checked against independent naive models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/sim.hpp"

namespace rdbs::gpusim {
namespace {

TEST(Cache, RepeatAccessHits) {
  SectoredCache cache(4096, 128, 4);
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(16));  // same 32B sector
}

TEST(Cache, SectorGranularity) {
  SectoredCache cache(4096, 128, 4);
  EXPECT_FALSE(cache.access(0));
  // Different sector of the same 128B line: still a (sector) miss.
  EXPECT_FALSE(cache.access(64));
  EXPECT_TRUE(cache.access(64));
}

TEST(Cache, LruEviction) {
  // 2 lines per set... capacity 2 lines total with 2 ways -> 1 set.
  SectoredCache cache(256, 128, 2);
  EXPECT_FALSE(cache.access(0));        // line A
  EXPECT_FALSE(cache.access(128));      // line B
  EXPECT_FALSE(cache.access(256));      // line C evicts A (LRU)
  EXPECT_FALSE(cache.access(0));        // A is gone
  EXPECT_TRUE(cache.access(256));       // C survived? (B was evicted by A)
}

TEST(Cache, ResetClears) {
  SectoredCache cache(4096, 128, 4);
  cache.access(0);
  EXPECT_TRUE(cache.access(0));
  cache.reset();
  EXPECT_FALSE(cache.access(0));
}

// access_line(line, mask) is the probe every replay path charges through;
// its contract is bit-for-bit equivalence with probing mask's sectors in
// ascending order through the scalar access(). A twin cache driven sector
// by sector is the reference. The caches are small against the line range,
// so most probes evict, and the hit masks must agree at every step (a
// diverged fill or LRU stamp surfaces as a later mismatch).
TEST(Cache, AccessLineMatchesPerSectorAccess) {
  struct Shape {
    std::size_t capacity_bytes;
    int ways;
  };
  // 8 sets (power of two, masked) and 6 sets (modulo, like the V100 L2).
  for (const Shape shape : {Shape{4096, 4}, Shape{3072, 4}}) {
    SectoredCache batched(shape.capacity_bytes, 128, shape.ways);
    SectoredCache reference(shape.capacity_bytes, 128, shape.ways);
    Xoshiro256 rng(99);
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t line = rng.next_below(96);
      const auto mask = static_cast<std::uint32_t>(1 + rng.next_below(15));
      std::uint32_t expected = 0;
      for (std::uint32_t s = 0; s < 4; ++s) {
        if (((mask >> s) & 1u) != 0 && reference.access(line * 128 + s * 32)) {
          expected |= 1u << s;
        }
      }
      ASSERT_EQ(batched.access_line(line, mask), expected)
          << "sets=" << batched.num_sets() << " step=" << step
          << " line=" << line << " mask=" << mask;
    }
  }
}

// coalesce_warp_lanes against a naive std::set model: distinct addresses,
// distinct 32B sectors, and the ascending (line, sector-mask) list, for
// 1-32 lanes over the access shapes engines issue. kAscending is scattered
// lanes that already ascend (the sort's early out). Afterwards the lanes
// must hold the same multiset in ascending order (gsan's trace takes its
// copy of the lanes before the charge sorts them).
TEST(Coalesce, MatchesNaiveSetModel) {
  enum Pattern { kUnitStride, kDuplicates, kScattered, kDescending,
                 kAscending };
  Xoshiro256 rng(7);
  for (const std::uint32_t spl_shift : {0u, 2u, 5u}) {
    for (const Pattern pattern : {kUnitStride, kDuplicates, kScattered,
                                  kDescending, kAscending}) {
      for (std::uint32_t lanes = 1; lanes <= 32; ++lanes) {
        const std::uint64_t base = 4096 + 4 * rng.next_below(1 << 16);
        std::array<std::uint64_t, 32> addrs{};
        for (std::uint32_t l = 0; l < lanes; ++l) {
          switch (pattern) {
            case kUnitStride: addrs[l] = base + 4 * l; break;
            case kDuplicates: addrs[l] = base + 4 * rng.next_below(3); break;
            case kScattered:
            case kAscending:
              addrs[l] = base + 4 * rng.next_below(1 << 20);
              break;
            case kDescending: addrs[l] = base + 8 * (lanes - 1 - l); break;
          }
        }
        if (pattern == kAscending) {
          std::sort(addrs.begin(), addrs.begin() + lanes);
        }
        std::vector<std::uint64_t> sorted_lanes(addrs.begin(),
                                                addrs.begin() + lanes);
        std::sort(sorted_lanes.begin(), sorted_lanes.end());

        const std::set<std::uint64_t> distinct(addrs.begin(),
                                               addrs.begin() + lanes);
        std::set<std::uint64_t> sectors;
        for (const std::uint64_t a : distinct) sectors.insert(a >> 5);
        std::map<std::uint64_t, std::uint32_t> line_masks;
        for (const std::uint64_t sector : sectors) {
          line_masks[sector >> spl_shift] |=
              1u << (sector & ((1u << spl_shift) - 1));
        }

        std::array<WarpLineRef, 32> lines{};
        const CoalesceResult co =
            coalesce_warp_lanes(addrs.data(), lanes, spl_shift, lines.data());
        const std::string where = "pattern=" + std::to_string(pattern) +
                                  " lanes=" + std::to_string(lanes) +
                                  " spl_shift=" + std::to_string(spl_shift);
        ASSERT_TRUE(std::equal(sorted_lanes.begin(), sorted_lanes.end(),
                               addrs.begin()))
            << where;
        ASSERT_EQ(co.distinct_addrs, distinct.size()) << where;
        ASSERT_EQ(co.sectors, sectors.size()) << where;
        ASSERT_EQ(co.lines, line_masks.size()) << where;
        std::uint32_t i = 0;
        for (const auto& [line, mask] : line_masks) {
          ASSERT_EQ(lines[i].line, line) << where << " entry=" << i;
          ASSERT_EQ(lines[i].mask, mask) << where << " entry=" << i;
          ++i;
        }
      }
    }
  }
}

// WarpCtx::load_range's closed form against the lane path, on twin
// simulators: one calls load_range, the other load() with the same
// ascending indices. Both launches run fused, so this pits
// coalesce_contiguous_lanes against coalesce_warp_lanes through the same
// cache charge. Each range starts from cold caches and is followed by
// single-lane probes of every sector from a line before the range to a
// line after it on the same SM: a closed form that fills one sector too
// many or too few moves their hits even where the range load's own
// counters agree.
template <typename T>
void expect_load_range_matches_lanes(std::uint32_t elem_bytes) {
  constexpr std::uint64_t kElems = 2048;
  GpuSim ranged(test_device());
  GpuSim laned(test_device());
  auto buf_r = ranged.alloc<T>("x", kElems, elem_bytes);
  auto buf_l = laned.alloc<T>("x", kElems, elem_bytes);
  for (std::uint64_t i = 0; i < kElems; ++i) {
    buf_r[i] = buf_l[i] = static_cast<T>(i % 251);
  }

  // Starts at a line start, one element past it, and so that the range
  // ends exactly on a line boundary or straddles one; then seeded ones.
  struct Range {
    std::uint64_t first;
    std::uint32_t lanes;
  };
  const std::uint64_t per_line = 128 / elem_bytes;
  std::vector<Range> ranges;
  for (const std::uint32_t lanes : {1u, 32u}) {
    for (const std::uint64_t line : {2ull, 7ull}) {
      const std::uint64_t start = line * per_line;
      ranges.push_back({start, lanes});
      ranges.push_back({start + 1, lanes});
      ranges.push_back({start + per_line - lanes % per_line, lanes});
      ranges.push_back({start + per_line - lanes / 2, lanes});
    }
  }
  Xoshiro256 rng(elem_bytes);
  for (int i = 0; i < 40; ++i) {
    const auto lanes = static_cast<std::uint32_t>(1 + rng.next_below(32));
    ranges.push_back(
        {per_line + rng.next_below(kElems - 5 * per_line - 32), lanes});
  }

  for (const Range& range : ranges) {
    const std::string where = "elem_bytes=" + std::to_string(elem_bytes) +
                              " first=" + std::to_string(range.first) +
                              " lanes=" + std::to_string(range.lanes);
    ranged.reset_all();
    laned.reset_all();
    std::array<T, 32> got_r{};
    std::array<T, 32> got_l{};
    const LaunchResult r = ranged.run_kernel(
        Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
          ctx.load_range(buf_r, range.first,
                         std::span<T>(got_r.data(), range.lanes));
        });
    const LaunchResult l = laned.run_kernel(
        Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
          std::array<std::uint64_t, 32> idx{};
          for (std::uint32_t i = 0; i < range.lanes; ++i) {
            idx[i] = range.first + i;
          }
          ctx.load(buf_l,
                   std::span<const std::uint64_t>(idx.data(), range.lanes),
                   std::span<T>(got_l.data(), range.lanes));
        });
    ASSERT_EQ(r.ms, l.ms) << where;
    ASSERT_TRUE(ranged.counters() == laned.counters()) << where;
    ASSERT_EQ(got_r, got_l) << where;
    ASSERT_EQ(ranged.trace_stats().fused_launches,
              ranged.trace_stats().launches);

    const std::uint64_t per_sector = 32 / elem_bytes;
    const std::uint64_t last_line = (range.first + range.lanes - 1) / per_line;
    const std::uint64_t probe_begin = (range.first / per_line - 1) * per_line;
    const std::uint64_t probe_end = (last_line + 2) * per_line;
    for (std::uint64_t e = probe_begin; e < probe_end; e += per_sector) {
      const std::uint64_t hits_r = ranged.counters().l1_sector_hits;
      const std::uint64_t hits_l = laned.counters().l1_sector_hits;
      ranged.run_kernel(Schedule::kStatic, 1, 1,
                        [&](WarpCtx& ctx, std::uint64_t) {
                          (void)ctx.load_one(buf_r, e);
                        });
      laned.run_kernel(Schedule::kStatic, 1, 1,
                       [&](WarpCtx& ctx, std::uint64_t) {
                         (void)ctx.load_one(buf_l, e);
                       });
      ASSERT_EQ(ranged.counters().l1_sector_hits - hits_r,
                laned.counters().l1_sector_hits - hits_l)
          << where << " probe=" << e;
    }
  }
}

TEST(Coalesce, LoadRangeMatchesLanePath) {
  expect_load_range_matches_lanes<std::uint8_t>(1);
  expect_load_range_matches_lanes<float>(4);
  expect_load_range_matches_lanes<double>(8);
}

// One-launch memory-hierarchy facts, read off the counters. Schedule::kStatic
// with one warp per block places task t on SM t (the test device has 4).
TEST(Memory, CoalescedAccessIsOneTransactionPerSector) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<float>("x", 64);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    // 8 consecutive 4-byte elements = 32 bytes = 1 sector.
    std::array<std::uint64_t, 8> idx{};
    for (int i = 0; i < 8; ++i) idx[i] = i;
    std::array<float, 8> out{};
    ctx.load(buf, std::span<const std::uint64_t>(idx), std::span<float>(out));
  });
  EXPECT_EQ(sim.counters().memory_transactions, 1u);
}

TEST(Memory, ScatteredAccessIsOneTransactionPerLane) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<float>("x", 8 * 1024);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    std::array<std::uint64_t, 8> idx{};
    for (int i = 0; i < 8; ++i) idx[i] = i * 1024;  // 4 KiB apart
    std::array<float, 8> out{};
    ctx.load(buf, std::span<const std::uint64_t>(idx), std::span<float>(out));
  });
  EXPECT_EQ(sim.counters().memory_transactions, 8u);
}

TEST(Memory, PerSmCachesAreIndependent) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<float>("x", 64);
  sim.run_kernel(Schedule::kStatic, 2, 1, [&](WarpCtx& ctx, std::uint64_t t) {
    ctx.load_one(buf, 0);
    if (t == 0) ctx.load_one(buf, 0);  // SM 0 re-reads its own L1 line
  });
  const Counters& c = sim.counters();
  EXPECT_EQ(c.l1_sector_accesses, 3u);
  // Only SM 0's second load hits; SM 1's L1 never saw the sector (its
  // miss is served by the shared L2 instead).
  EXPECT_EQ(c.l1_sector_hits, 1u);
  EXPECT_EQ(c.l2_sector_hits, 1u);
}

TEST(Memory, UncachedAccessNeverHits) {
  GpuSim sim(test_device());
  auto buf = sim.alloc<std::uint32_t>("x", 64);
  sim.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.load_one(buf, 0);  // warm L1
    const std::uint64_t idx[1] = {0};
    ctx.atomic_touch(buf, idx);
  });
  const Counters& c = sim.counters();
  // The atomic bypasses the warm L1: only the load probed it, and missed.
  EXPECT_EQ(c.l1_sector_accesses, 1u);
  EXPECT_EQ(c.l1_sector_hits, 0u);
  EXPECT_EQ(c.memory_transactions, 2u);
}

TEST(Memory, AllocationsAreAlignedAndDisjoint) {
  MemorySim memory(test_device());
  const std::uint64_t a = memory.allocate(100);
  const std::uint64_t b = memory.allocate(100);
  EXPECT_EQ(a % 128, 0u);
  EXPECT_EQ(b % 128, 0u);
  EXPECT_GE(b, a + 100);
}

class SimTest : public ::testing::Test {
 protected:
  GpuSim sim_{test_device()};
};

TEST_F(SimTest, LoadStoreRoundTrip) {
  auto buf = sim_.alloc<double>("x", 64);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.store_one(buf, 7, 3.5);
    EXPECT_DOUBLE_EQ(ctx.load_one(buf, 7), 3.5);
  });
  EXPECT_DOUBLE_EQ(buf[7], 3.5);
}

TEST_F(SimTest, CountersTrackInstructionKinds) {
  auto buf = sim_.alloc<double>("x", 64);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.store_one(buf, 0, 1.0);
    ctx.load_one(buf, 0);
    ctx.load_one(buf, 1);
    ctx.atomic_min_one(buf, 0, 0.5);
    ctx.alu(3);
  });
  const Counters& c = sim_.counters();
  EXPECT_EQ(c.inst_executed_global_stores, 1u);
  EXPECT_EQ(c.inst_executed_global_loads, 2u);
  EXPECT_EQ(c.inst_executed_atomics, 1u);
  EXPECT_EQ(c.alu_instructions, 3u);
  EXPECT_EQ(c.kernel_launches, 1u);
}

TEST_F(SimTest, HitRateReflectsLocality) {
  auto buf = sim_.alloc<double>("x", 8);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    for (int rep = 0; rep < 10; ++rep) ctx.load_one(buf, 0);
  });
  // 1 cold miss, 9 hits.
  EXPECT_NEAR(sim_.counters().global_hit_rate(), 0.9, 1e-9);
}

TEST_F(SimTest, AtomicMinSemantics) {
  auto buf = sim_.alloc<double>("x", 4);
  buf[2] = 10.0;
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    EXPECT_TRUE(ctx.atomic_min_one(buf, 2, 5.0));
    EXPECT_FALSE(ctx.atomic_min_one(buf, 2, 7.0));
    EXPECT_TRUE(ctx.atomic_min_one(buf, 2, 1.0));
  });
  EXPECT_DOUBLE_EQ(buf[2], 1.0);
}

TEST_F(SimTest, WarpAtomicConflictDetection) {
  auto buf = sim_.alloc<double>("x", 4);
  buf[0] = 100.0;
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    // 4 lanes all hammer element 0: 3 conflicts, min wins.
    const std::array<std::uint64_t, 4> idx{0, 0, 0, 0};
    const std::array<double, 4> val{9, 7, 8, 7.5};
    std::array<std::uint8_t, 4> improved{};
    ctx.atomic_min(buf, idx, std::span<const double>(val),
                   std::span<std::uint8_t>(improved));
    EXPECT_EQ(improved[0], 1);  // 9 < 100
    EXPECT_EQ(improved[1], 1);  // 7 < 9
    EXPECT_EQ(improved[2], 0);  // 8 >= 7
    EXPECT_EQ(improved[3], 0);  // 7.5 >= 7
  });
  EXPECT_DOUBLE_EQ(buf[0], 7.0);
  EXPECT_EQ(sim_.counters().atomic_conflicts, 3u);
}

TEST_F(SimTest, DivergenceLowersLaneEfficiency) {
  GpuSim full(test_device());
  GpuSim divergent(test_device());
  full.run_kernel(Schedule::kStatic, 4, 1,
                  [&](WarpCtx& ctx, std::uint64_t) { ctx.alu(10, 32); });
  divergent.run_kernel(Schedule::kStatic, 4, 1,
                       [&](WarpCtx& ctx, std::uint64_t) { ctx.alu(10, 4); });
  EXPECT_DOUBLE_EQ(full.counters().lane_efficiency(), 1.0);
  EXPECT_NEAR(divergent.counters().lane_efficiency(), 4.0 / 32, 1e-12);
}

TEST_F(SimTest, KernelTimeIncludesLaunchOverhead) {
  const auto result = sim_.run_kernel(Schedule::kStatic, 1, 1,
                                      [](WarpCtx&, std::uint64_t) {});
  EXPECT_GE(result.ms, sim_.spec().kernel_launch_us * 1e-3);
}

TEST_F(SimTest, ChildLaunchIsCheaperThanHostLaunch) {
  GpuSim a(test_device());
  GpuSim b(test_device());
  // a: one host kernel whose warp spawns a child; b: two host kernels.
  a.run_kernel(Schedule::kStatic, 1, 1,
               [](WarpCtx& ctx, std::uint64_t) { ctx.child_launch(); });
  b.run_kernel(Schedule::kStatic, 1, 1, [](WarpCtx&, std::uint64_t) {});
  b.run_kernel(Schedule::kStatic, 1, 1, [](WarpCtx&, std::uint64_t) {});
  EXPECT_LT(a.elapsed_ms(), b.elapsed_ms());
  EXPECT_EQ(a.counters().child_launches, 1u);
  EXPECT_EQ(a.counters().kernel_launches, 1u);
}

TEST_F(SimTest, StaticImbalanceCostsMoreThanDynamic) {
  // 4-SM device; 16 blocks where every 4th is 100x heavier. Static
  // round-robin pins all four heavy blocks onto SM 0 (4 x 10000 cycles,
  // beyond what its 2 schedulers can hide); dynamic spreads them out.
  auto heavy_task = [](WarpCtx& ctx, std::uint64_t t) {
    ctx.alu(t % 4 == 0 ? 10000 : 100, 32);
  };
  GpuSim stat(test_device());
  GpuSim dyn(test_device());
  const auto rs = stat.run_kernel(Schedule::kStatic, 16, 1, heavy_task);
  const auto rd = dyn.run_kernel(Schedule::kDynamic, 16, 1, heavy_task);
  EXPECT_GT(rs.ms, rd.ms);
  EXPECT_DOUBLE_EQ(rs.busy_cycles, rd.busy_cycles);  // same total work
}

TEST_F(SimTest, SingleLongWarpBoundsKernelTime) {
  // One warp with N cycles cannot finish faster than N cycles even with
  // idle SMs (no intra-warp parallelism).
  const auto result = sim_.run_kernel(
      Schedule::kDynamic, 1, 1,
      [](WarpCtx& ctx, std::uint64_t) { ctx.alu(100000, 32); });
  const double min_ms = sim_.spec().cycles_to_ms(100000);
  EXPECT_GE(result.ms, min_ms);
}

TEST_F(SimTest, BandwidthFloorKicksIn) {
  // Stream a large buffer once: time must be at least bytes / bandwidth.
  auto buf = sim_.alloc<double>("big", 1 << 18, 4);
  const std::uint64_t n = 1 << 18;
  const auto result = sim_.run_kernel(
      Schedule::kStatic, (n + 31) / 32, 8, [&](WarpCtx& ctx, std::uint64_t w) {
        std::array<std::uint64_t, 32> idx{};
        for (int i = 0; i < 32; ++i) idx[i] = w * 32 + i;
        std::array<double, 32> out{};
        ctx.load(buf, std::span<const std::uint64_t>(idx),
                 std::span<double>(out));
      });
  const double bytes = static_cast<double>(n) * 4;
  EXPECT_GE(result.ms + 1e-12, sim_.spec().bytes_to_ms(bytes));
}

TEST_F(SimTest, HitPlusMissEqualsAccesses) {
  auto buf = sim_.alloc<double>("x", 4096, 4);
  sim_.run_kernel(Schedule::kStatic, 64, 8, [&](WarpCtx& ctx, std::uint64_t w) {
    std::array<std::uint64_t, 32> idx{};
    for (int i = 0; i < 32; ++i) idx[i] = (w * 37 + i * 13) % 4096;
    std::array<double, 32> out{};
    ctx.load(buf, std::span<const std::uint64_t>(idx),
             std::span<double>(out));
  });
  const Counters& c = sim_.counters();
  EXPECT_LE(c.l1_sector_hits, c.l1_sector_accesses);
  EXPECT_GE(c.l1_sector_accesses, 64u);
}

TEST_F(SimTest, ResetAllClearsState) {
  auto buf = sim_.alloc<double>("x", 64);
  sim_.run_kernel(Schedule::kStatic, 1, 1, [&](WarpCtx& ctx, std::uint64_t) {
    ctx.load_one(buf, 0);
  });
  EXPECT_GT(sim_.elapsed_ms(), 0.0);
  sim_.reset_all();
  EXPECT_DOUBLE_EQ(sim_.elapsed_ms(), 0.0);
  EXPECT_EQ(sim_.counters().inst_executed_global_loads, 0u);
}

// A persistent kernel consumes its task list in order while workers grow it.
TEST_F(SimTest, PersistentScopeConsumesGrowingQueue) {
  std::vector<int> tasks{0, 0, 0};
  int executed = 0;
  KernelScope kernel(sim_, Schedule::kDynamic, true, /*warps_per_block=*/1);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    WarpCtx ctx = kernel.make_warp();
    ctx.alu(1);
    ++executed;
    if (i == 0) tasks.push_back(0);  // grow while running
    kernel.commit(ctx);
  }
  EXPECT_EQ(kernel.finish().tasks, 4u);
  EXPECT_EQ(executed, 4);
}

TEST(DeviceSpecs, PaperPlatformRatios) {
  const DeviceSpec v = v100();
  const DeviceSpec t = tesla_t4();
  EXPECT_EQ(v.num_sms, 80);
  EXPECT_EQ(t.num_sms, 40);
  EXPECT_NEAR(v.mem_bandwidth_gbps / t.mem_bandwidth_gbps, 900.0 / 320.0,
              1e-9);
}

TEST(KernelScopeTest, ManualLifecycleMatchesRunKernel) {
  GpuSim a(test_device());
  GpuSim b(test_device());
  a.run_kernel(Schedule::kDynamic, 3, 1,
               [](WarpCtx& ctx, std::uint64_t) { ctx.alu(10); });
  {
    KernelScope scope(b, Schedule::kDynamic);
    for (int i = 0; i < 3; ++i) {
      WarpCtx ctx = scope.make_warp();
      ctx.alu(10);
      scope.commit(ctx);
    }
    scope.finish();
  }
  EXPECT_DOUBLE_EQ(a.elapsed_ms(), b.elapsed_ms());
  EXPECT_EQ(a.counters().alu_instructions, b.counters().alu_instructions);
}

// Static placement, through both launch forms: warp i runs on SM
// (i / warps_per_block) % num_sms. Each launch covers three full rotations
// of the SMs and ends part-way into a block.
TEST(KernelScopeTest, StaticPlacementRotatesBlocksOverSms) {
  for (const DeviceSpec& device : {test_device(), v100()}) {
    GpuSim sim(device);
    const auto sms = static_cast<std::uint64_t>(device.num_sms);
    for (const int wpb : {1, 3, 8}) {
      const auto per_block = static_cast<std::uint64_t>(wpb);
      const std::uint64_t warps = 3 * sms * per_block + per_block / 2 + 1;
      const std::string where =
          "sms=" + std::to_string(sms) + " wpb=" + std::to_string(wpb);
      std::uint64_t checked = 0;
      sim.run_kernel(Schedule::kStatic, warps, wpb,
                     [&](WarpCtx& ctx, std::uint64_t i) {
                       EXPECT_EQ(static_cast<std::uint64_t>(ctx.sm_id()),
                                 (i / per_block) % sms)
                           << "run_kernel " << where << " warp=" << i;
                       ++checked;
                     });
      KernelScope scope(sim, Schedule::kStatic, true, wpb);
      for (std::uint64_t i = 0; i < warps; ++i) {
        WarpCtx ctx = scope.make_warp();
        EXPECT_EQ(static_cast<std::uint64_t>(ctx.sm_id()),
                  (i / per_block) % sms)
            << "make_warp " << where << " warp=" << i;
        scope.commit(ctx);
        ++checked;
      }
      EXPECT_EQ(scope.finish().tasks, warps);
      EXPECT_EQ(checked, 2 * warps);
    }
  }
}

}  // namespace
}  // namespace rdbs::gpusim
