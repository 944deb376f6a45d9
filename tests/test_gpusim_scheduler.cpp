// Placement and conflict-count tests for gpusim: the heap-based dynamic
// scheduler must reproduce the linear-argmin placement, and the sorted
// conflict scan must count exactly what the O(n^2) reference counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/sim.hpp"

namespace rdbs::gpusim {
namespace {

// --- heap-based dynamic scheduler vs. linear argmin ------------------------

// Reference model of kDynamic placement: least-loaded SM under the record-
// time weight metric, strict-< argmin so ties break toward the lowest SM
// index — exactly what the pre-heap linear scan computed.
void check_dynamic_placement(const DeviceSpec& spec, std::uint64_t seed) {
  GpuSim sim(spec);
  Xoshiro256 rng(seed);
  constexpr int kTasks = 2000;
  std::vector<std::uint32_t> weights(kTasks);
  for (auto& w : weights) {
    w = 1 + static_cast<std::uint32_t>(rng.next_below(50));
  }

  std::vector<int> assigned;
  assigned.reserve(kTasks);
  KernelScope scope(sim, Schedule::kDynamic);
  for (int t = 0; t < kTasks; ++t) {
    WarpCtx ctx = scope.make_warp();
    assigned.push_back(ctx.sm_id());
    ctx.alu(weights[t]);  // task weight == alu instruction count
    scope.commit(ctx);
  }
  scope.finish();

  std::vector<std::uint64_t> load(static_cast<std::size_t>(spec.num_sms), 0);
  for (int t = 0; t < kTasks; ++t) {
    int argmin = 0;
    for (int sm = 1; sm < spec.num_sms; ++sm) {
      if (load[sm] < load[argmin]) argmin = sm;
    }
    ASSERT_EQ(assigned[t], argmin) << "task " << t;
    load[argmin] += weights[t];
  }
}

TEST(GpusimScheduler, DynamicSchedulerMatchesLinearArgminTestDevice) {
  check_dynamic_placement(test_device(), /*seed=*/7);
}

TEST(GpusimScheduler, DynamicSchedulerMatchesLinearArgminV100) {
  check_dynamic_placement(v100(), /*seed=*/11);
}

// --- sorted conflict scan vs. O(n^2) reference -----------------------------

TEST(GpusimScheduler, AtomicConflictCountMatchesQuadraticReference) {
  GpuSim sim(test_device());
  Buffer<std::uint32_t> buf = sim.alloc<std::uint32_t>("buf", 512);
  Xoshiro256 rng(13);
  std::uint64_t expected_conflicts = 0;
  sim.run_kernel(
      Schedule::kDynamic, /*num_tasks=*/200, /*warps_per_block=*/1,
      [&](WarpCtx& ctx, std::uint64_t) {
        const std::uint32_t lanes =
            1 + static_cast<std::uint32_t>(rng.next_below(32));
        std::array<std::uint64_t, 32> idx;
        for (std::uint32_t i = 0; i < lanes; ++i) {
          // Small modulus: heavy duplication, the worst case for the scan.
          idx[i] = rng.next_below(1 + rng.next_below(40));
        }
        // Reference: conflicts = lanes - distinct element addresses.
        std::uint32_t distinct = 0;
        for (std::uint32_t i = 0; i < lanes; ++i) {
          bool seen = false;
          for (std::uint32_t j = 0; j < i; ++j) {
            if (idx[j] == idx[i]) {
              seen = true;
              break;
            }
          }
          if (!seen) ++distinct;
        }
        expected_conflicts += lanes - distinct;
        ctx.atomic_touch(buf,
                         std::span<const std::uint64_t>(idx.data(), lanes));
      });
  EXPECT_EQ(sim.counters().atomic_conflicts, expected_conflicts);
}

}  // namespace
}  // namespace rdbs::gpusim
