// gsan — the device-memory sanitizer & race detector (gpusim/sanitizer.hpp).
//
// Two halves, both load-bearing:
//
//   1. Seeded-bug kernels: four deliberately broken kernels (out-of-bounds
//      index, uninitialized read, non-atomic racy store, mixed plain-store/
//      atomic access) plus use-after-free and read-only-write, each asserted
//      against its EXACT report line — the reports are part of the tool's
//      contract (deterministic, rank-stable, diffable in CI).
//
//   2. Cross-launch checkers: seeded cross-stream races (write/write,
//      read/write, atomic-vs-plain) caught by the vector-clock happens-before
//      detector, and seeded no-progress bugs (spins on queue slots no writer
//      ever publishes) caught by the termination checker — again asserted
//      against EXACT report lines, plus negatives proving barriers, memcpys
//      and satisfied waits stay silent.
//
//   3. Clean sweeps: every engine family runs its full SSSP pipeline under
//      the sanitizer and must produce an empty report while still matching
//      Dijkstra — the sanitizer only observes; it never changes results.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/device_graph.hpp"
#include "core/engine.hpp"
#include "core/query_server.hpp"
#include "core/rdbs.hpp"
#include "gpusim/device.hpp"
#include "gpusim/sanitizer.hpp"
#include "gpusim/sim.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace rdbs {
namespace {

using graph::Csr;
using graph::VertexId;
using gpusim::GpuSim;
using gpusim::SanitizeMode;

std::string report_of(GpuSim& sim) {
  const gpusim::Sanitizer* san = sim.sanitizer();
  return san ? san->report() : std::string("<sanitizer off>");
}

// --- seeded-bug kernels -----------------------------------------------------

TEST(GsanSeededBugs, OutOfBoundsIndexDetectedAndClamped) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  sim.label_next_launch("oob_kernel");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 100, 7u);  // buffer has 8 elements
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] out-of-bounds: kernel=oob_kernel buffer=data elem=100 "
            "warp=0\n");
  // The functional access was clamped into bounds: host memory is intact
  // and the nearest valid element took the write.
  EXPECT_EQ(data[7], 7u);
}

TEST(GsanSeededBugs, UninitializedReadDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 64);  // never initialized

  sim.label_next_launch("uninit_kernel");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   (void)ctx.load_one(data, 5);
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] uninit-read: kernel=uninit_kernel buffer=data elem=5 "
            "warp=0\n");
}

TEST(GsanSeededBugs, UninitializedReadClearedByDeviceStoreOrHostUpload) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto stored = sim.alloc<std::uint32_t>("stored", 64);
  auto uploaded = sim.alloc<std::uint32_t>("uploaded", 64);
  sim.mark_initialized(uploaded);  // cudaMemcpy H2D

  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(stored, 9, 1u);
                 });
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   (void)ctx.load_one(stored, 9);
                   (void)ctx.load_one(uploaded, 31);
                 });
  EXPECT_EQ(report_of(sim), "");
}

TEST(GsanSeededBugs, NonAtomicRacyStoreDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  // Two warps of one launch plain-store the same element: write/write race.
  sim.label_next_launch("racy_store");
  sim.run_kernel(gpusim::Schedule::kStatic, 2, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                   ctx.store_one(data, 3, static_cast<std::uint32_t>(w));
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] race-ww: kernel=racy_store buffer=data elem=3 "
            "warp=0/1\n");
}

TEST(GsanSeededBugs, PlainStoreVsLoadRaceDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  sim.label_next_launch("racy_readers");
  sim.run_kernel(gpusim::Schedule::kStatic, 2, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                   if (w == 0) {
                     ctx.store_one(data, 2, 1u);
                   } else {
                     (void)ctx.load_one(data, 2);
                   }
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] race-rw: kernel=racy_readers buffer=data elem=2 "
            "warp=0/1\n");
}

TEST(GsanSeededBugs, PlainStoreAtomicMinMixDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto dist = sim.alloc<float>("dist", 8);
  sim.mark_initialized(dist);

  // The BASYN atomicity-violation class: one warp assumes exclusive
  // ownership (plain store), the other synchronizes (atomicMin).
  sim.label_next_launch("mixed_relax");
  sim.run_kernel(gpusim::Schedule::kStatic, 2, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                   if (w == 0) {
                     ctx.store_one(dist, 4, 1.0f);
                   } else {
                     ctx.atomic_min_one(dist, 4, 2.0f);
                   }
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] atomic-mix: kernel=mixed_relax buffer=dist elem=4 "
            "warp=0/1\n");
}

TEST(GsanSeededBugs, AtomicsAndVolatilesPairSafely) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto flags = sim.alloc<std::uint32_t>("flags", 8);
  sim.mark_initialized(flags);

  sim.run_kernel(gpusim::Schedule::kStatic, 3, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                   const std::uint64_t idx[1] = {1};
                   if (w == 0) {
                     ctx.atomic_touch(flags, std::span<const std::uint64_t>(
                                                 idx, 1));
                   } else {
                     ctx.volatile_touch(flags, std::span<const std::uint64_t>(
                                                   idx, 1),
                                        /*is_store=*/w == 1);
                   }
                 });
  EXPECT_EQ(report_of(sim), "");
}

TEST(GsanSeededBugs, UseAfterFreeDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);
  sim.free_buffer(data);  // cudaFree; addresses are never reused

  sim.label_next_launch("stale_access");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 0, 1u);
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] use-after-free: kernel=stale_access buffer=data elem=0 "
            "warp=0\n");
}

TEST(GsanSeededBugs, ReadOnlyWriteDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto csr = sim.alloc<std::uint32_t>("row_offsets", 8);
  sim.mark_initialized(csr);
  sim.mark_read_only(csr);  // shared across QueryBatch streams

  sim.label_next_launch("graph_scribbler");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(csr, 6, 0u);
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] read-only-write: kernel=graph_scribbler "
            "buffer=row_offsets elem=6 warp=0\n");
}

TEST(GsanSeededBugs, DuplicateHazardsFoldWithCounts) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);

  sim.label_next_launch("uninit_loop");
  sim.run_kernel(gpusim::Schedule::kStatic, 3, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   (void)ctx.load_one(data, 0);
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] uninit-read: kernel=uninit_loop buffer=data elem=0 "
            "warp=0 x3\n");
}

// Identical hazardous programs produce byte-identical reports on every
// rerun — reports are rank-stable, so CI can diff them.
TEST(GsanSeededBugs, ReportsAreDeterministicAcrossReruns) {
  auto run_hazards = [] {
    GpuSim sim(gpusim::test_device());
    sim.enable_sanitizer(SanitizeMode::kOn);
    auto a = sim.alloc<std::uint32_t>("a", 32);
    auto b = sim.alloc<std::uint32_t>("b", 32);
    sim.mark_initialized(b);
    sim.label_next_launch("hazard_soup");
    sim.run_kernel(gpusim::Schedule::kStatic, 4, 2,
                   [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                     ctx.store_one(b, 1, static_cast<std::uint32_t>(w));
                     (void)ctx.load_one(a, w);
                     ctx.store_one(a, 40 + w, 0u);
                   });
    return report_of(sim);
  };
  const std::string first = run_hazards();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_hazards());
}

// --- cross-stream happens-before races --------------------------------------

TEST(GsanCrossStream, WriteWriteRaceOnUnorderedStreamsDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  // Two launches on distinct streams plain-store the same buffer with no
  // ordering event between them: host issue order alone does NOT order
  // streams, so this is a cross-stream write/write race.
  sim.label_next_launch("writer_a");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 3, 1u);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  sim.label_next_launch("writer_b");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 3, 2u);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim),
            "[gsan] cross-stream-race: kernel=writer_b buffer=data elem=3 "
            "stream=0/1\n");
}

TEST(GsanCrossStream, ReadOfConcurrentWriterDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  sim.label_next_launch("producer");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 2, 1u);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  sim.label_next_launch("consumer");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   (void)ctx.load_one(data, 2);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim),
            "[gsan] cross-stream-race: kernel=consumer buffer=data elem=2 "
            "stream=0/1\n");
}

TEST(GsanCrossStream, AtomicAgainstConcurrentPlainWriteDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto dist = sim.alloc<float>("dist", 8);
  sim.mark_initialized(dist);

  // Even a synchronized access races with a concurrent PLAIN write on
  // another stream — the atomic orders nothing the plain store respects.
  sim.label_next_launch("plain_relax");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(dist, 4, 1.0f);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  sim.label_next_launch("atomic_relax");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.atomic_min_one(dist, 4, 2.0f);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim),
            "[gsan] cross-stream-race: kernel=atomic_relax buffer=dist "
            "elem=4 stream=0/1\n");
}

TEST(GsanCrossStream, HostBarrierOrdersTheStreams) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 3, 1u);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  // cudaStreamSynchronize(0): the host clock joins stream 0, and the next
  // launch on stream 1 inherits that — same element, no race.
  sim.host_barrier(0);
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 3, 2u);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim), "");
}

TEST(GsanCrossStream, SynchronousMemcpyOrdersTheStreams) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto data = sim.alloc<std::uint32_t>("data", 8);
  sim.mark_initialized(data);

  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 5, 1u);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  // A synchronous D2H readback orders host after stream 0's writes; the
  // stream-1 writer launched after it is therefore ordered too.
  sim.memcpy_d2h(data.size() * sizeof(std::uint32_t), /*stream=*/0);
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(data, 5, 2u);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim), "");
}

TEST(GsanCrossStream, AtomicsAndVolatilesPairSafelyAcrossStreams) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto flags = sim.alloc<std::uint32_t>("flags", 8);
  sim.mark_initialized(flags);

  // The QueryBatch ctrl-cell pattern: synchronized accesses from unordered
  // streams are the intended protocol, never a race.
  const std::uint64_t idx[1] = {1};
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.volatile_touch(flags,
                                      std::span<const std::uint64_t>(idx, 1),
                                      /*is_store=*/true);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.atomic_touch(flags,
                                    std::span<const std::uint64_t>(idx, 1));
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim), "");
}

// --- no-progress (termination) checker --------------------------------------

TEST(GsanNoProgress, SpinOnNeverPublishedSlotDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto queue = sim.alloc<std::uint32_t>("queue", 64);

  // A persistent-kernel pop spins on a queue slot that no host upload and
  // no device store ever published: it can never make progress.
  sim.label_next_launch("stuck_pop");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.spin_wait(queue, 9);
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] no-progress: kernel=stuck_pop buffer=queue elem=9 "
            "stream=0 warp=0\n");
}

TEST(GsanNoProgress, LostWakeupWriterAfterWaiterDetected) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto queue = sim.alloc<std::uint32_t>("queue", 64);

  // Lost wakeup: the producer's publish launches on another stream only
  // AFTER the consumer's spin — at spin time no unordered writer could
  // satisfy the slot (the sim is functionally host-serial, so any value
  // the spin could consume must already have been produced).
  sim.label_next_launch("early_pop");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.spin_wait(queue, 2);
                 },
                 /*host_launch=*/true, /*stream=*/0);
  sim.label_next_launch("late_push");
  const std::uint64_t idx[1] = {2};
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.volatile_touch(queue,
                                      std::span<const std::uint64_t>(idx, 1),
                                      /*is_store=*/true);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  EXPECT_EQ(report_of(sim),
            "[gsan] no-progress: kernel=early_pop buffer=queue elem=2 "
            "stream=0 warp=0\n");
}

TEST(GsanNoProgress, SatisfiedWaitsStaySilent) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto queue = sim.alloc<std::uint32_t>("queue", 64);
  auto seeded = sim.alloc<std::uint32_t>("seeded", 64);
  sim.mark_initialized(seeded);  // host H2D upload of the source seed

  // Publish-then-pop across launches, publish-then-pop within one launch,
  // and a pop of a host-seeded slot: all legitimate, all silent.
  const std::uint64_t pub[1] = {2};
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.volatile_touch(queue,
                                      std::span<const std::uint64_t>(pub, 1),
                                      /*is_store=*/true);
                 },
                 /*host_launch=*/true, /*stream=*/1);
  sim.run_kernel(gpusim::Schedule::kStatic, 2, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                   if (w == 0) {
                     ctx.spin_wait(queue, 2);    // earlier launch's publish
                     ctx.spin_wait(seeded, 40);  // host seed
                   } else {
                     const std::uint64_t own[1] = {33};
                     ctx.volatile_touch(
                         queue, std::span<const std::uint64_t>(own, 1),
                         /*is_store=*/true);
                     ctx.spin_wait(queue, 33);   // same-launch publish
                   }
                 },
                 /*host_launch=*/true, /*stream=*/0);
  EXPECT_EQ(report_of(sim), "");
}

TEST(GsanNoProgress, DeviceQueuePopsAreAnnotated) {
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto slots = sim.alloc<std::uint32_t>("work_queue", 64);
  const auto ctrl = sim.alloc<std::uint32_t>("work_ctrl", 2);
  sim.mark_initialized(ctrl);
  core::DeviceQueue queue;
  queue.bind(sim, std::move(slots), ctrl, /*tail_cell=*/0, /*head_cell=*/1,
             sim.alloc<std::uint8_t>("work_flags", 64, 1));
  queue.reset();
  queue.seed(5);
  queue.publish();

  // Popping the host-seeded slot is satisfied by the upload.
  sim.label_next_launch("seeded_pop");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   std::array<VertexId, 32> lanes{};
                   const std::uint32_t count = queue.take_front(lanes);
                   queue.charge_pop(
                       ctx, std::span<const VertexId>(lanes.data(), count));
                 });
  EXPECT_EQ(report_of(sim), "");

  // One slot past the published tail: nothing ever writes it, so the spin
  // never ends (and its ld.cg reads undefined memory).
  sim.label_next_launch("overrun_pop");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   const VertexId phantom[1] = {7};
                   queue.charge_pop(ctx, phantom);
                 });
  EXPECT_EQ(report_of(sim),
            "[gsan] uninit-read: kernel=overrun_pop buffer=work_queue elem=1 "
            "warp=0\n"
            "[gsan] no-progress: kernel=overrun_pop buffer=work_queue elem=1 "
            "stream=0 warp=0\n");
}

// Entries cross the end of a 64-slot ring three times, pushed by device
// warps in one launch and popped in the next. The first lap reaches slots
// nothing has written yet, so a push and a pop that disagree on a slot
// leave a spin no store satisfies, and a slot past the ring is an
// out-of-bounds access: either shows up in the report.
TEST(GsanNoProgress, DeviceQueueWrapsTheRingCleanly) {
  constexpr VertexId kRing = 64;
  constexpr VertexId kPerRound = 40;
  GpuSim sim(gpusim::test_device());
  sim.enable_sanitizer(SanitizeMode::kOn);
  auto slots = sim.alloc<std::uint32_t>("work_queue", kRing);
  const auto ctrl = sim.alloc<std::uint32_t>("work_ctrl", 2);
  sim.mark_initialized(ctrl);
  core::DeviceQueue queue;
  queue.bind(sim, std::move(slots), ctrl, /*tail_cell=*/0, /*head_cell=*/1,
             sim.alloc<std::uint8_t>("work_flags", kRing, 1));
  queue.reset();
  for (VertexId v = 0; v < kPerRound; ++v) queue.seed(v);
  queue.publish();

  VertexId next = kPerRound;    // next vertex to push (ids cycle mod kRing)
  VertexId expected = 0;        // next vertex a pop must see
  for (int round = 0; round < 5; ++round) {
    sim.label_next_launch("pop");
    sim.run_kernel(gpusim::Schedule::kStatic, (kPerRound + 31) / 32, 1,
                   [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                     std::array<VertexId, 32> lanes{};
                     const std::uint32_t count = queue.take_front(lanes);
                     for (std::uint32_t i = 0; i < count; ++i) {
                       EXPECT_EQ(lanes[i], expected++ % kRing);
                     }
                     queue.charge_pop(
                         ctx, std::span<const VertexId>(lanes.data(), count));
                   });
    EXPECT_TRUE(queue.empty());
    sim.label_next_launch("push");
    sim.run_kernel(gpusim::Schedule::kStatic, (kPerRound + 31) / 32, 1,
                   [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                     const VertexId lanes = std::min<VertexId>(
                         32, kPerRound - static_cast<VertexId>(w) * 32);
                     for (VertexId i = 0; i < lanes; ++i) {
                       EXPECT_TRUE(queue.offer(next++ % kRing));
                     }
                     queue.charge_push(ctx);
                   });
    EXPECT_EQ(queue.window_begin(), (round + 1) * std::uint64_t{kPerRound});
    EXPECT_EQ(report_of(sim), "") << "round " << round;
  }
  // 240 ring positions: the pushes crossed the end at positions 64, 128
  // and 192.
  EXPECT_EQ(next, 6 * kPerRound);
}

// Hazard reports are byte-identical across reruns for every stream count
// (streams {1,4}).
TEST(GsanCrossStream, ReportsAreIdenticalAcrossRerunsAndStreams) {
  auto run_case = [](int streams) {
    GpuSim sim(gpusim::test_device());
    sim.enable_sanitizer(SanitizeMode::kOn);
    auto data = sim.alloc<std::uint32_t>("data", 64);
    auto ctrl = sim.alloc<std::uint32_t>("ctrl", 8);
    sim.mark_initialized(data);
    for (int round = 0; round < 6; ++round) {
      sim.label_next_launch("mix");
      sim.run_kernel(gpusim::Schedule::kStatic, 2, 1,
                     [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
                       ctx.store_one(data, 3,
                                     static_cast<std::uint32_t>(round));
                       (void)ctx.load_one(data, 8 + w);
                       if (round == 4 && w == 0) ctx.spin_wait(ctrl, 2);
                     },
                     /*host_launch=*/true, /*stream=*/round % streams);
    }
    return report_of(sim);
  };
  for (const int streams : {1, 4}) {
    const std::string first = run_case(streams);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, run_case(streams));
  }
  // Single stream = program order: the only hazard left is the dead spin.
  EXPECT_EQ(run_case(1).find("cross-stream-race"), std::string::npos);
  EXPECT_NE(run_case(4).find("cross-stream-race"), std::string::npos);
}

// --- clean sweeps across every engine family --------------------------------

Csr sweep_graph() { return test::random_powerlaw_graph(300, 2200, 913); }

// Every registered engine (core/engine.hpp) at Δ = 100.
class GsanCleanSweep
    : public ::testing::TestWithParam<core::GpuEngineEntry> {};

TEST_P(GsanCleanSweep, EngineRunsCleanAndExact) {
  const Csr csr = sweep_graph();
  core::EngineOptions options;
  options.sanitize = SanitizeMode::kOn;
  const core::GpuRunResult result =
      GetParam().make(gpusim::test_device(), csr, options, /*delta=*/100.0)
          ->run(0);
  EXPECT_EQ(result.sanitizer_report, "");
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, GsanCleanSweep,
                         ::testing::ValuesIn(core::gpu_engines()),
                         ::testing::PrintToStringParamName());

// Bucketed Δ-stepping with all three optimizations off: the registry's
// baseline is BL, which has no buckets.
TEST(GsanCleanSweep, RdbsEngineSynchronousBaseline) {
  const Csr csr = sweep_graph();
  core::GpuSsspOptions options;
  options.basyn = false;
  options.pro = false;
  options.adwl = false;
  options.sanitize = SanitizeMode::kOn;
  core::RdbsSolver solver(csr, gpusim::test_device(), options);
  const core::GpuRunResult result = solver.solve(0);
  EXPECT_EQ(result.sanitizer_report, "");
  EXPECT_EQ(result.sssp.distances, sssp::dijkstra(csr, 0).distances);
}

// Cross-stream hazard check: four lanes share one simulator and the
// read-only CSR buffers; a full batch must report zero hazards and stay
// bit-identical to sequential runs.
TEST(GsanCleanSweep, QueryBatchFourStreams) {
  const Csr csr = sweep_graph();
  const std::vector<VertexId> sources = {0, 13, 77, 150, 299};
  core::QueryServerOptions options;
  options.batch.streams = 4;
  options.batch.gpu.sanitize = SanitizeMode::kOn;
  core::QueryServer server(csr, gpusim::test_device(), options);
  const core::StreamResult result =
      server.run_stream(core::batch_schedule(sources));
  const gpusim::Sanitizer* sanitizer = server.batch().sim().sanitizer();
  ASSERT_NE(sanitizer, nullptr);
  EXPECT_EQ(sanitizer->report(), "");
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(result.queries[i].sssp.distances,
              sssp::dijkstra(csr, sources[i]).distances);
  }
}

// Sanitizing must not change functional results or simulated time.
TEST(GsanCleanSweep, SanitizerOnlyObserves) {
  const Csr csr = sweep_graph();
  core::GpuSsspOptions off;
  core::GpuSsspOptions on;
  on.sanitize = SanitizeMode::kOn;
  core::RdbsSolver solver_off(csr, gpusim::test_device(), off);
  core::RdbsSolver solver_on(csr, gpusim::test_device(), on);
  const core::GpuRunResult r_off = solver_off.solve(7);
  const core::GpuRunResult r_on = solver_on.solve(7);
  EXPECT_EQ(r_off.sssp.distances, r_on.sssp.distances);
  EXPECT_EQ(r_off.device_ms, r_on.device_ms);
  EXPECT_EQ(r_off.counters, r_on.counters);
}

}  // namespace
}  // namespace rdbs
