// Device-resident state the GPU engines share the shape of: the read-only
// CSR arrays, the per-query distance initialization, and the work-queue
// protocol of their persistent kernels.
//
// The graph topology (row offsets, adjacency, weights) is immutable during
// SSSP, so one uploaded copy can back any number of engines running on the
// same simulator — the batch query engine's "shared caching": every
// stream's loads touch the same simulated device addresses, so a hot graph
// region cached by one query serves the next. Mutable per-query state
// (distances, queues, heavy-offset mirrors) stays per engine.
#pragma once

#include <array>
#include <deque>
#include <span>
#include <vector>

#include "common/macros.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"

namespace rdbs::core {

// Bytes of one device word. The engines model the 32-bit CUDA layout: row
// offsets, vertex ids, weights, distances and queue cursors are allocated,
// and distance transfers costed, at this width.
inline constexpr std::uint32_t kDeviceWord = 4;

struct DeviceCsrBuffers {
  gpusim::Buffer<graph::EdgeIndex> row_offsets;
  gpusim::Buffer<graph::VertexId> adjacency;
  gpusim::Buffer<graph::Weight> weights;

  // Allocates the three arrays on `sim` and copies `csr` in (uncosted: the
  // paper's timings exclude H2D transfer). `csr` need not outlive the result.
  static DeviceCsrBuffers upload(gpusim::GpuSim& sim, const graph::Csr& csr);
};

// The "init_distances" kernel on `stream`: one warp per 32 vertices stores
// ∞ into `dist` and, when `flags` is given, 0 into the queue flags.
void init_distances(gpusim::GpuSim& sim, gpusim::StreamId stream,
                    gpusim::Buffer<graph::Distance>& dist,
                    gpusim::Buffer<std::uint8_t>* flags = nullptr);
// The one-thread "seed_source" kernel on `stream`: dist[source] = 0.
void seed_source(gpusim::GpuSim& sim, gpusim::StreamId stream,
                 gpusim::Buffer<graph::Distance>& dist, graph::VertexId source);

// One device work queue (paper §4.3): a ring of vertex ids that persistent
// kernels' warps push and pop with immediately visible st.cg/ld.cg traffic,
// cursors in cells of a control buffer claimed by warp-aggregated atomics,
// and optional per-vertex membership flags. The functional state (the FIFO
// mirror the engine drains, cursors, slot and flag contents) lives
// host-side; each charge_* call issues one warp's share of the protocol.
//
// The engine allocates the buffers (names, sizes and allocation order fix
// the simulated address layout) and hands them to bind(). Gunrock's
// double-buffered frontier (core/gunrock_like.hpp) is not one of these
// queues: its operators compact-store with plain stores between
// bulk-synchronous launches, and nothing pushes into a persistent kernel's
// ring with st.cg.
class DeviceQueue {
 public:
  static constexpr std::uint64_t kNoCell = ~std::uint64_t{0};  // no pops

  // Takes over the ring `slots` and, unless empty, the `flags` that
  // deduplicate offer(). `ctrl` is only charged, never read, so queues may
  // share it. With `charge_flags` false the flags are host bookkeeping only:
  // no flag atomics on push or pop, no flag upload on seed (Davidson).
  void bind(gpusim::GpuSim& sim, gpusim::Buffer<graph::VertexId> slots,
            const gpusim::Buffer<std::uint32_t>& ctrl, std::uint64_t tail_cell,
            std::uint64_t head_cell, gpusim::Buffer<std::uint8_t> flags = {},
            bool charge_flags = true);

  // --- host side ------------------------------------------------------------
  // Per attempt: empties the mirror, rewinds the cursors, clears the flags.
  void reset();
  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  const std::deque<graph::VertexId>& pending() const { return pending_; }
  gpusim::Buffer<std::uint8_t>* flags() {
    return has_flags_ ? &flags_ : nullptr;
  }
  // The pending entries occupy ring positions [window_begin(), tail).
  std::uint64_t window_begin() const { return tail_ - pending_.size(); }

  // Flag-deduplicated append; false (nothing queued) if v is already in.
  bool offer(graph::VertexId v) {
    if (flags_[v]) return false;
    flags_[v] = 1;
    append(v);
    return true;
  }
  // Plain append: duplicates allowed (a far pile's lazy deletion).
  void append(graph::VertexId v) {
    slots_[tail_slot_] = v;
    tail_slot_ = next_slot(tail_slot_);
    ++tail_;
    pending_.push_back(v);
  }
  // Host seed (H2D upload): offer(), or append() without flags, marking the
  // uploaded flag initialized. publish() then uploads the slots.
  void seed(graph::VertexId v);
  // Marks the slots of the unflushed appends (those since the last
  // charge_push, publish, reset or drop_pending) host-written: the upload
  // of a host-built window.
  void publish();
  // Retires every pending entry without a device pop (a pull sweep that
  // rescans all vertices): flags clear, the head jumps to the tail.
  void drop_pending();
  // Moves up to out.size() entries off the mirror's front.
  std::uint32_t take_front(std::span<graph::VertexId> out);
  // Moves the whole mirror out (a frozen frontier, a split's input); flags
  // stay set until the entries are popped or read.
  std::vector<graph::VertexId> take_all();

  // --- warp charges ---------------------------------------------------------
  // Push of the unflushed appends (at most a warp's 32): one tail atomic,
  // an atomicExch per flag, one st.cg into the claimed slots (volatile:
  // warps of the same persistent kernel pop them concurrently).
  void charge_push(gpusim::WarpCtx& ctx) {
    const auto lanes = static_cast<std::uint32_t>(tail_ - flushed_);
    if (lanes == 0) return;
    RDBS_DCHECK(lanes <= 32);
    std::array<std::uint64_t, 32> slot{};
    std::array<std::uint64_t, 32> flag{};
    std::size_t s = slot_of(flushed_);
    for (std::uint32_t i = 0; i < lanes; ++i, s = next_slot(s)) {
      slot[i] = s;
      flag[i] = slots_[s];  // the vertex id the append put there
    }
    flushed_ = tail_;
    ctx.atomic_touch(ctrl_, std::span<const std::uint64_t>(&tail_cell_, 1));
    if (charge_flags_) {
      ctx.atomic_touch(flags_,
                       std::span<const std::uint64_t>(flag.data(), lanes));
    }
    ctx.volatile_touch(slots_,
                       std::span<const std::uint64_t>(slot.data(), lanes),
                       /*is_store=*/true);
  }

  // Pop of `lanes` at the head: a spin on each slot until its st.cg lands
  // (gsan no-progress: a push or host seed must publish it), one head
  // atomic, one ld.cg, and an atomicExch per flag clearing it.
  void charge_pop(gpusim::WarpCtx& ctx,
                  std::span<const graph::VertexId> lanes) {
    RDBS_DCHECK(head_cell_ != kNoCell);
    const std::size_t count = lanes.size();
    const std::array<std::uint64_t, 32> slot = spin_on(ctx, head_, count);
    head_ += count;
    ctx.atomic_touch(ctrl_, std::span<const std::uint64_t>(&head_cell_, 1));
    consume(ctx, slot, lanes);
    if (charge_flags_) {
      std::array<std::uint64_t, 32> flag{};
      for (std::size_t i = 0; i < count; ++i) flag[i] = lanes[i];
      ctx.atomic_touch(flags_,
                       std::span<const std::uint64_t>(flag.data(), count));
    }
  }

  // Window read of `lanes` at ring positions [first, first + lanes.size())
  // without the head cursor (a far split, Davidson's workfront): the spins
  // and one ld.cg. Their flags clear uncharged.
  void charge_read(gpusim::WarpCtx& ctx, std::uint64_t first,
                   std::span<const graph::VertexId> lanes) {
    consume(ctx, spin_on(ctx, first, lanes.size()), lanes);
  }

 private:
  std::array<std::uint64_t, 32> spin_on(gpusim::WarpCtx& ctx,
                                        std::uint64_t first,
                                        std::size_t count) const {
    RDBS_DCHECK(count <= 32);
    std::array<std::uint64_t, 32> slot{};
    if (count == 0) return slot;
    for (std::size_t i = 0, s = slot_of(first); i < count;
         ++i, s = next_slot(s)) {
      slot[i] = s;
      ctx.spin_wait(slots_, s);
    }
    return slot;
  }
  // Ring slot of cursor position `pos`: one division per warp charge, then
  // next_slot steps and wraps (the ring holds max(n, 64) slots, which is
  // rarely a power of two).
  std::size_t slot_of(std::uint64_t pos) const { return pos % slots_.size(); }
  std::size_t next_slot(std::size_t slot) const {
    return slot + 1 == slots_.size() ? 0 : slot + 1;
  }
  // The ld.cg of claimed slots; the entries leave the queue host-side.
  void consume(gpusim::WarpCtx& ctx, const std::array<std::uint64_t, 32>& slot,
               std::span<const graph::VertexId> lanes) {
    ctx.volatile_touch(
        slots_, std::span<const std::uint64_t>(slot.data(), lanes.size()),
        /*is_store=*/false);
    if (!has_flags_) return;
    for (const graph::VertexId v : lanes) flags_[v] = 0;
  }

  gpusim::GpuSim* sim_ = nullptr;
  gpusim::Buffer<graph::VertexId> slots_;
  gpusim::Buffer<std::uint32_t> ctrl_;
  gpusim::Buffer<std::uint8_t> flags_;
  std::uint64_t tail_cell_ = 0;
  std::uint64_t head_cell_ = kNoCell;
  bool has_flags_ = false;
  bool charge_flags_ = false;

  std::deque<graph::VertexId> pending_;
  std::uint64_t tail_ = 0;     // ring cursor of the next push
  std::size_t tail_slot_ = 0;  // tail_'s ring slot
  std::uint64_t head_ = 0;     // ring cursor of the next pop
  std::uint64_t flushed_ = 0;  // appends before it were pushed or published
};

}  // namespace rdbs::core
