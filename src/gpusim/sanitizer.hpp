// gsan — opt-in device-memory sanitizer & race detector for GpuSim.
//
// Every device access already flows through WarpCtx::load/store/atomic_min/
// atomic_touch/volatile_*, which under gsan also hand it to check_op as it
// is issued; gsan exploits that single choke point to run its hazard
// analyses without a second execution mode:
//
//   * out-of-bounds — checked while the lane addresses are formed, against
//     Buffer::size() (the only place the element index and buffer extent
//     are both known; an address alone cannot distinguish "one past the
//     end" from "first element of the neighboring 128-byte-aligned
//     region"). The offending index is clamped so the functional access
//     stays memory-safe.
//   * use-after-free — the bump allocator never reuses addresses, so any
//     access landing in a region freed via GpuSim::free_buffer is exact.
//   * uninitialized read — per-32-byte-sector shadow state; device stores,
//     atomics and volatile stores mark sectors written, host transfers are
//     recorded in MemorySim's allocation table (mark_initialized), and a
//     load touching an unmarked sector is flagged. Sector granularity can
//     hide a read of an uninitialized element whose neighbor was written
//     (false negative), but never flags initialized data (no false
//     positives).
//   * intra-kernel races — within one launch (no intervening barrier),
//     a plain (non-atomic, non-volatile) store to an address paired with
//     ANY access to the same address from a different warp task is a
//     hazard: plain store + plain store (write/write race), plain store +
//     plain load (read/write race), plain store + atomic or volatile
//     access (the BASYN atomicity-violation class — one party assumed
//     exclusive ownership, the other assumed synchronized access).
//     Atomic/volatile accesses pair safely with each other by design.
//   * read-only violations — any write-kind access to a region marked
//     read-only (the CSR arrays shared across QueryBatch streams). A
//     stream scribbling on the shared graph would corrupt every other
//     stream's queries.
//   * cross-stream races — gsan v2. The sanitizer keeps one vector clock
//     per stream plus a host clock, advanced by the events GpuSim reports:
//     a launch on stream S joins the host clock into S's clock and opens a
//     new epoch (tick on component S); host_barrier joins S into the host
//     clock (cudaStreamSynchronize); memcpys and charged host waits join
//     both ways; revive_device is a full fence; a stream-stall fault opens
//     a fresh epoch on the stalled stream. Two launches are ordered iff
//     the later one's clock has seen the earlier one's epoch — plain host
//     issue order alone does NOT order distinct streams. Per touched
//     buffer (region) the sanitizer keeps the last plain-write /
//     plain-read / synced-access epoch per stream; a conflicting pair
//     (plain write vs. anything, in either direction) on two streams not
//     ordered by happens-before is a cross-stream-race hazard. Atomics
//     and volatiles pair safely with each other across streams, exactly as
//     within a launch. Granularity is the buffer, not the element —
//     concurrent streams must not share a writable buffer at all (the
//     QueryBatch contract); partitioned or handed-off buffers stay clean
//     because the hand-off points (barrier, memcpy) order the clocks.
//   * no-progress — gsan v2. Persistent-kernel queue protocols declare
//     the slot a warp spins on via WarpCtx::spin_wait (a pure annotation:
//     no memory op, no cycles). Because functional execution is host-serial,
//     any value a spin ever consumes must already have been produced by
//     the time the launch ends — so a waited-on cell that no same-launch
//     write, no earlier launch's write and no host transfer has touched
//     can never be satisfied: the lost-wakeup / deadlock class, reported
//     instead of silently burning watchdog budget.
//
// Reports are deterministic and rank-stable: hazards are deduplicated by
// (kind, kernel label, buffer, element, stream pair) in canonical discovery
// order — warp tasks issue their ops one at a time in task order, and the
// end-of-launch passes walk what those ops touched in first-touch order —
// so two runs produce byte-identical reports and CI diffs are meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gpusim/memory.hpp"

namespace rdbs::gpusim {

// Plumbed through engine options; kOff leaves the simulator hot path with a
// single never-taken branch per warp memory instruction.
enum class SanitizeMode : std::uint8_t {
  kOff = 0,
  kOn = 1,
};

struct HazardRecord {
  enum class Kind : std::uint8_t {
    kOutOfBounds = 0,
    kUseAfterFree,
    kUninitRead,
    kRaceWW,      // plain store vs. plain store, different warp tasks
    kRaceRW,      // plain store vs. plain load, different warp tasks
    kAtomicMix,   // plain store vs. atomic/volatile access (BASYN class)
    kReadOnlyWrite,
    kCrossStreamRace,  // conflicting pair on two streams, unordered by
                       // the happens-before relation (gsan v2)
    kNoProgress,       // spin-wait no write can ever satisfy (gsan v2)
  };

  Kind kind = Kind::kOutOfBounds;
  std::string kernel;        // launch label, or "kernel@<ordinal>"
  std::string buffer;        // region name ("?" when unmapped)
  std::uint64_t element = 0; // element index within the buffer
  // Offending warp tasks (canonical task indices within the launch).
  // second_task is kNoTask for the single-site hazard kinds.
  std::uint32_t first_task = kNoTask;
  std::uint32_t second_task = kNoTask;
  // Streams involved. Cross-stream-race: first = the prior (epoch) stream,
  // second = the stream of the launch that closed the race. No-progress:
  // first = the spinning launch's stream. kNoStream for the per-launch
  // hazard kinds, whose reports are stream-agnostic.
  int first_stream = kNoStream;
  int second_stream = kNoStream;
  std::uint64_t count = 1;   // occurrences folded into this record

  static constexpr std::uint32_t kNoTask = ~0u;
  static constexpr int kNoStream = -1;
};

const char* hazard_kind_name(HazardRecord::Kind kind);

class Sanitizer {
 public:
  explicit Sanitizer(MemorySim& memory) : memory_(&memory) {}

  // --- hooks called by GpuSim / WarpCtx ------------------------------------
  // Names the launch about to run (`label` may be empty — reports then use
  // "kernel@<ordinal>"), resets the per-launch state and advances the
  // happens-before clocks: the launch joins the host clock into `stream`'s
  // clock and opens a new epoch on it. The snapshot taken here is the
  // launch's vector clock for every cross-stream check in the matching
  // end_launch.
  void begin_launch(std::string_view label, std::uint64_t ordinal,
                    int stream);
  // cudaStreamSynchronize-style event: the host has observed everything on
  // `stream` (GpuSim::host_barrier).
  void host_sync(int stream);
  // Host<->device transfer on `stream` (GpuSim::memcpy_h2d/d2h): the host
  // and the stream synchronize both ways.
  void host_transfer(int stream);
  // Host-side delay charged to `stream` (GpuSim::charge_host_ms — retry
  // backoffs, breaker cooldowns): host and stream synchronize both ways.
  void host_wait(int stream);
  // Device-wide fence: every stream and the host agree on one clock
  // (GpuSim::revive_device — the recovery path after device loss).
  void full_fence();
  // A stream-stall fault delayed `stream`; open a fresh epoch on it so
  // post-stall work is distinguishable from the stalled launch.
  void stream_stall(int stream);
  // WarpCtx::spin_wait annotation: `task` of the open launch spins on
  // device address `addr` until another party writes it. Checked by
  // end_launch (see the no-progress bullet above).
  void note_wait(std::uint32_t task, std::uint64_t addr);
  // Record-time bounds check: returns `index` when in bounds, otherwise
  // reports an out-of-bounds hazard and returns the nearest valid index so
  // the functional access stays memory-safe.
  std::uint64_t checked_index(const std::string& buffer_name,
                              std::uint64_t index, std::uint64_t size,
                              std::uint32_t task);
  // One warp memory instruction of `task` in the open launch, as it is
  // issued: `addrs[0, lanes)` in original lane order, so reports follow
  // first-touch order. Checks use-after-free, read-only writes and
  // uninitialized reads per lane, marks the sectors a write covers, and
  // notes each address and region for end_launch.
  void check_op(std::uint32_t task, std::uint8_t kind, std::uint32_t lanes,
                const std::uint64_t* addrs);
  // Closes the launch: the intra-launch race pass over its addresses in
  // first-touch order, then the cross-stream and no-progress passes.
  void end_launch();

  // --- results -------------------------------------------------------------
  const std::vector<HazardRecord>& hazards() const { return hazards_; }
  // Human- and diff-friendly report, one line per deduplicated hazard in
  // discovery order; empty string when clean.
  std::string report() const;
  void clear();

 private:
  using VectorClock = std::vector<std::uint32_t>;

  // First two distinct warp tasks that issued accesses of one kind group to
  // an address within the current launch.
  struct TaskPair {
    std::uint32_t t1 = HazardRecord::kNoTask;
    std::uint32_t t2 = HazardRecord::kNoTask;
    void add(std::uint32_t task) {
      if (t1 == HazardRecord::kNoTask) {
        t1 = task;
      } else if (t1 != task && t2 == HazardRecord::kNoTask) {
        t2 = task;
      }
    }
  };
  struct AddressState {
    TaskPair plain_store;
    TaskPair plain_load;
    TaskPair synced;  // atomics + volatile accesses
  };
  // Last access of one conflict class by one stream to one region: the
  // epoch (that stream's clock component at the accessing launch) plus the
  // first element the launch touched, for the report.
  struct StreamEpoch {
    std::uint32_t clock = 0;  // 0 = never accessed
    std::uint64_t element = 0;
  };
  // Per-region epoch shadow, each vector indexed by stream.
  struct RegionEpochs {
    std::vector<StreamEpoch> writes;  // plain stores
    std::vector<StreamEpoch> reads;   // plain loads
    std::vector<StreamEpoch> syncs;   // atomics + volatiles
  };
  // What the open launch did to one region (first element per class).
  struct RegionUse {
    bool plain_write = false;
    bool plain_read = false;
    bool has_sync = false;
    std::uint64_t write_elem = 0;
    std::uint64_t read_elem = 0;
    std::uint64_t sync_elem = 0;
  };
  struct PendingWait {
    std::uint32_t task = 0;
    std::uint64_t addr = 0;
  };

  void report_hazard(HazardRecord::Kind kind, const std::string& buffer,
                     std::uint64_t element, std::uint32_t first_task,
                     std::uint32_t second_task,
                     int first_stream = HazardRecord::kNoStream,
                     int second_stream = HazardRecord::kNoStream);
  // Shadow bitvector (one bit per 32-byte sector) for region `index`,
  // created on demand — regions may be allocated before or after the
  // sanitizer is enabled.
  std::vector<std::uint64_t>& shadow_for(std::size_t region_index);
  void races_for_address(std::uint64_t addr, const AddressState& state);
  // Cross-stream happens-before pass over the launch's touched regions
  // (called by end_launch, before the epochs are updated with this launch's
  // accesses).
  void cross_stream_scan();
  // No-progress pass over the launch's spin_wait annotations (called last:
  // the launch's own writes have already marked the sector shadow).
  void check_no_progress();
  VectorClock& clock_for(int stream);
  static void join(VectorClock& into, const VectorClock& from);

  MemorySim* memory_;
  std::string current_kernel_ = "kernel@0";
  std::vector<HazardRecord> hazards_;
  // Dedup key -> index into hazards_
  // (string key: kind|kernel|buffer|elem|stream|stream).
  std::unordered_map<std::string, std::size_t> dedup_;
  // Device-store shadow, parallel to MemorySim::regions().
  std::vector<std::vector<std::uint64_t>> shadow_;
  // Per-launch race bookkeeping (cleared by begin_launch; capacity reused),
  // and its addresses in first-touch order, so the race pass (and therefore
  // the report) is independent of the hash map's iteration order.
  std::unordered_map<std::uint64_t, AddressState> launch_state_;
  std::vector<std::uint64_t> launch_addrs_;

  // --- gsan v2: happens-before state ---------------------------------------
  // One vector clock per stream plus the host clock. Monotone across
  // reset_time()/reset_all() — simulated-time resets do not reorder memory.
  std::vector<VectorClock> stream_clocks_;
  VectorClock host_clock_;
  int launch_stream_ = 0;
  VectorClock launch_vc_;  // snapshot of the open launch's clock
  // Cross-launch epoch shadow, keyed by region index (never reused).
  std::unordered_map<std::size_t, RegionEpochs> epochs_;
  // Per-launch region-use bookkeeping, in canonical discovery order.
  std::unordered_map<std::size_t, RegionUse> launch_regions_;
  std::vector<std::size_t> touched_regions_;
  // spin_wait annotations of the open launch, in record order.
  std::vector<PendingWait> launch_waits_;
};

}  // namespace rdbs::gpusim
