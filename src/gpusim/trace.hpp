// Per-launch memory trace shared between the simulator core (sim.cpp
// records it) and the sanitizer (sanitizer.cpp scans it when the launch
// ends). One launch at a time: the trace is cleared by begin_launch and
// consumed by end_launch. Only gsan launches record it; every launch
// charges the caches inline either way (gpusim/sim.hpp).
//
// The ordinal of an op in this trace is also the memory-op ordinal in the
// fault injector's counter key (gpusim/fault.hpp). The simulator counts ops
// itself (GpuSim::launch_ops_), so fault plans are identical with gsan on
// or off.
//
// Storage is structure-of-arrays: one kind byte per op, one lane-count
// byte per op, and a shared byte stream of zigzag-varint address deltas.
// The delta chain resets at every task boundary (TaskRecord::addr_begin is
// the task's byte offset), so each task decodes from its own record. Warp
// access patterns are overwhelmingly small-stride (consecutive lanes touch
// consecutive elements), so most deltas fit in one byte: on warp-local ops
// the encoded trace is >= 4x smaller than an array-of-structs one (per op,
// an 8-byte header plus one u64 per lane).
//
// gsan decodes through OpCursor. Lane addresses are recorded and decoded
// in original lane order — sanitizer reports depend on first-touch
// discovery order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace rdbs::gpusim {

// Kinds of one warp-level memory instruction, shared by the charge path
// and the sanitizer:
//   0  plain load        (L1-cached)
//   1  plain store       (write-through L1)
//   2  atomic            (L1 bypass, resolves at L2, conflict serialization)
//   3  volatile load     (L1 bypass — "updates immediately visible")
//   4  volatile store    (L1 bypass)
//
// Volatile accesses model the paper's `volatile` / st.cg queue traffic:
// they skip the L1 like atomics (no stale-line reuse, every access reaches
// the coherence point) but carry no same-address serialization cost.
struct TraceOp {
  static constexpr std::uint8_t kLoad = 0;
  static constexpr std::uint8_t kStore = 1;
  static constexpr std::uint8_t kAtomic = 2;
  static constexpr std::uint8_t kVolatileLoad = 3;
  static constexpr std::uint8_t kVolatileStore = 4;

  static constexpr bool kind_is_read(std::uint8_t k) {
    return k == kLoad || k == kVolatileLoad;
  }
  static constexpr bool kind_is_write(std::uint8_t k) {
    return k == kStore || k == kAtomic || k == kVolatileStore;
  }
  static constexpr bool kind_is_volatile(std::uint8_t k) {
    return k == kVolatileLoad || k == kVolatileStore;
  }
  // Synchronized accesses — atomics and volatiles — resolve at the
  // coherence point and pair safely with each other under the sanitizer's
  // race rules (intra-launch and cross-stream alike); only plain accesses
  // conflict.
  static constexpr bool kind_is_synced(std::uint8_t k) {
    return k == kAtomic || kind_is_volatile(k);
  }
};

// Per-task record: trace extent, placement, charged cycles and the
// scheduling weight. `addr_begin` is the address stream's byte offset at
// op_begin.
struct TaskRecord {
  std::uint32_t op_begin = 0;
  std::uint32_t op_end = 0;
  std::int32_t sm = 0;
  std::uint64_t weight = 0;  // cache-independent load estimate (scheduling)
  std::uint64_t cycles = 0;  // true cycles: ALU, child launches, memory
  std::uint64_t addr_begin = 0;
};

class LaunchTrace {
 public:
  void clear() {
    op_kinds_.clear();
    op_lanes_.clear();
    addr_bytes_.clear();
    prev_addr_ = 0;
  }

  std::size_t num_ops() const { return op_kinds_.size(); }
  // Byte offset of the address stream's write head — snapshot into
  // TaskRecord::addr_begin at task start.
  std::uint64_t addr_stream_offset() const { return addr_bytes_.size(); }

  // Current encoded footprint of this launch's trace.
  std::uint64_t bytes_in_use() const {
    return op_kinds_.size() + op_lanes_.size() + addr_bytes_.size();
  }

  // --- record API -------------------------------------------------------------
  // Appends one warp op whose lane addresses are `addrs[0, lanes)`, in lane
  // order.
  void append_op(std::uint8_t kind, std::uint32_t lanes,
                 const std::uint64_t* addrs) {
    // Encode the lane addresses as zigzag-varint deltas against the running
    // chain (previous lane of this task, across op boundaries).
    for (std::uint32_t l = 0; l < lanes; ++l) {
      const std::uint64_t addr = addrs[l];
      const auto delta =
          static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(prev_addr_);
      put_varint(zigzag(delta));
      prev_addr_ = addr;
    }
    op_kinds_.push_back(kind);
    op_lanes_.push_back(static_cast<std::uint8_t>(lanes));
  }

  // Resets the delta chain so the next op encodes its first lane against
  // base 0 — called at every task boundary, making tasks independently
  // decodable.
  void begin_task() { prev_addr_ = 0; }

  // --- decode API ------------------------------------------------------------
  struct OpView {
    std::uint8_t kind = 0;
    std::uint8_t lanes = 0;
    // Lane addresses in original lane order, valid until the next next().
    const std::uint64_t* addrs = nullptr;

    bool is_plain_store() const { return kind == TraceOp::kStore; }
    bool is_write() const { return TraceOp::kind_is_write(kind); }
  };

  // Sequential decoder over one task's ops [op_begin, op_end). Decodes each
  // op's lane addresses into an internal 32-slot buffer.
  class OpCursor {
   public:
    bool next(OpView& view) {
      if (op_ == op_end_) return false;
      const std::uint8_t kind = trace_->op_kinds_[op_];
      const std::uint8_t lanes = trace_->op_lanes_[op_];
      const std::uint8_t* p = trace_->addr_bytes_.data() + byte_;
      for (std::uint32_t l = 0; l < lanes; ++l) {
        std::uint64_t z = 0;
        std::uint32_t shift = 0;
        std::uint8_t b;
        do {
          b = *p++;
          z |= static_cast<std::uint64_t>(b & 0x7f) << shift;
          shift += 7;
        } while (b & 0x80);
        prev_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(prev_) + unzigzag(z));
        buf_[l] = prev_;
      }
      byte_ = static_cast<std::uint64_t>(p - trace_->addr_bytes_.data());
      view.kind = kind;
      view.lanes = lanes;
      view.addrs = buf_.data();
      ++op_;
      return true;
    }

   private:
    friend class LaunchTrace;
    OpCursor(const LaunchTrace& trace, std::uint32_t op_begin,
             std::uint32_t op_end, std::uint64_t addr_byte_begin)
        : trace_(&trace),
          op_(op_begin),
          op_end_(op_end),
          byte_(addr_byte_begin) {}

    const LaunchTrace* trace_;
    std::uint32_t op_;
    std::uint32_t op_end_;
    std::uint64_t byte_;  // address stream position
    std::uint64_t prev_ = 0;
    std::array<std::uint64_t, 32> buf_{};
  };

  OpCursor task_cursor(const TaskRecord& rec) const {
    return OpCursor(*this, rec.op_begin, rec.op_end, rec.addr_begin);
  }

 private:
  static std::uint64_t zigzag(std::int64_t d) {
    return (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
  }
  static std::int64_t unzigzag(std::uint64_t z) {
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
  }
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      addr_bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    addr_bytes_.push_back(static_cast<std::uint8_t>(v));
  }

  // SoA op arrays + shared delta stream + encoder state.
  std::vector<std::uint8_t> op_kinds_;
  std::vector<std::uint8_t> op_lanes_;
  std::vector<std::uint8_t> addr_bytes_;
  std::uint64_t prev_addr_ = 0;
};

}  // namespace rdbs::gpusim
