// GpuSim — a deterministic SIMT execution and cost simulator.
//
// This is the substrate that stands in for the paper's V100/T4 GPUs (see
// DESIGN.md). Algorithms are written as *warp tasks*: callables that receive
// a WarpCtx and perform warp-level instructions (ALU, coalesced loads/
// stores, atomics) on simulated device Buffers. The simulator
//
//   * executes the task functionally (real data moves, so results are
//     bit-exact and checkable against Dijkstra),
//   * records the nvprof-style counters of Fig. 10 (warp-level load/store/
//     atomic instruction counts, L1 sector hit rate), and
//   * charges cycles that capture the three effects the paper optimizes:
//     SIMT divergence (a warp pays for its slowest lane), memory coalescing
//     (cost per 32B sector, DRAM bandwidth floor), and load imbalance
//     (static block->SM assignment vs. dynamic work distribution).
//
// Kernel time = max over SMs of (per-SM issued cycles / warp schedulers,
// floored by the SM's longest single warp), then floored again by the DRAM
// bandwidth bound, plus a fixed launch overhead for host-side launches.
// Dynamic-parallelism child launches charge the cheaper child cost to the
// launching warp and their work is scheduled like any other dynamic task
// (Hyper-Q overlap).
//
// Launches carry a StreamId (default 0). Kernels on distinct streams overlap
// in simulated time under an m-slot Hyper-Q admission model
// (DeviceSpec::max_concurrent_kernels) with an aggregate device-throughput
// floor; see docs/costmodel.md, "Streams & concurrent kernels".
//
// Execution pipeline (see docs/costmodel.md, "Replay pipeline"): task
// bodies run serially in canonical task order on the host thread, and all
// functional effects (loads, stores, atomics with their `improved` flags)
// happen there. Each warp memory instruction charges the caches inline as
// it is issued: its SM's L1, then the shared L2, which therefore sees one
// canonical-order request stream. Counters, per-launch ms and distances are
// bit-identical across reruns. Under gsan the sanitizer also checks each op
// as it is issued and closes the launch with its race passes; checking
// charges nothing, so results are identical with gsan on or off.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/macros.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/sanitizer.hpp"

namespace rdbs::gpusim {

class GpuSim;
class KernelScope;

// Identifies a CUDA-style stream on the simulated device. Work on one stream
// is ordered; work on different streams may overlap in simulated time
// (Hyper-Q), bounded by DeviceSpec::max_concurrent_kernels and the device's
// aggregate compute/DRAM throughput. Stream 0 is the default stream; all
// pre-existing single-query call sites use it implicitly and see exactly the
// old single-timeline accounting. Streams partition *time accounting only* —
// functional execution stays serial in host call order, so results remain
// bit-identical across reruns and for any stream assignment.
using StreamId = int;

// A typed region of simulated device memory. Host code initializes and
// reads back through data(); device code (warp tasks) must go through
// WarpCtx so the access is costed. The *device* element size may be
// narrower than the host type (e.g. distances held as double on the host
// for exact checking but costed as 4-byte floats, matching the CUDA code).
template <typename T>
class Buffer {
 public:
  Buffer() = default;
  Buffer(std::string name, std::size_t count, std::uint32_t device_elem_bytes,
         std::uint64_t base_address)
      : name_(std::move(name)),
        data_(count),
        elem_bytes_(device_elem_bytes),
        base_(base_address) {}

  std::size_t size() const { return data_.size(); }
  std::uint64_t address_of(std::uint64_t index) const {
    return base_ + index * elem_bytes_;
  }
  std::uint32_t elem_bytes() const { return elem_bytes_; }
  const std::string& name() const { return name_; }

  // Host-side (uncosted) access for initialization and readback.
  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::string name_;
  std::vector<T> data_;
  std::uint32_t elem_bytes_ = sizeof(T);
  std::uint64_t base_ = 0;
};

// Execution context of one warp inside a kernel. Functional effects are
// applied immediately (in canonical task order) and so is the memory-cost
// side; under gsan the sanitizer also checks each memory instruction as it
// is issued.
class WarpCtx {
 public:
  int sm_id() const { return sm_id_; }

  // `instructions` warp-wide ALU/control instructions with `active_lanes`
  // lanes enabled (divergence: disabled lanes still occupy issue slots).
  void alu(std::uint32_t instructions = 1, std::uint32_t active_lanes = 32);

  // --- warp memory instructions -------------------------------------------
  // Each call is ONE warp-level instruction; `indices` lists the element
  // index accessed by each *active* lane (size <= 32; inactive lanes are
  // implicitly disabled and counted as divergence waste).
  template <typename T>
  void load(const Buffer<T>& buf, std::span<const std::uint64_t> indices,
            std::span<T> out) {
    RDBS_DCHECK(indices.size() == out.size());
    record_addresses(buf, indices);
    record_mem(MemOp::kLoad, static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i = 0; i < indices.size(); ++i) {
      out[i] = buf.data()[functional_index(buf, indices[i])];
    }
    if (fault_) maybe_flip(buf, out);
  }

  // One warp load of the contiguous elements [first, first + out.size()):
  // lane i reads element first + i. It charges exactly what load() charges
  // for those ascending indices. The device element must be no wider than
  // a 32-byte sector, so the lanes touch one unbroken run of sectors and
  // the charge builds the (line, sector-mask) list from the run's two ends
  // instead of coalescing 32 lane addresses. Under gsan it goes through
  // load() itself, so gsan's checks and reports match load()'s.
  template <typename T>
  void load_range(const Buffer<T>& buf, std::uint64_t first,
                  std::span<T> out) {
    const auto lanes = static_cast<std::uint32_t>(out.size());
    RDBS_DCHECK(lanes <= 32);
    if (sanitize_) {
      std::array<std::uint64_t, 32> idx;
      for (std::uint32_t i = 0; i < lanes; ++i) idx[i] = first + i;
      load(buf, std::span<const std::uint64_t>(idx.data(), lanes), out);
      return;
    }
    RDBS_DCHECK(first + lanes <= buf.size());
    record_load_range(buf.address_of(first), buf.elem_bytes(), lanes);
    std::copy_n(buf.data().begin() + static_cast<std::ptrdiff_t>(first),
                lanes, out.begin());
    if (fault_) maybe_flip(buf, out);
  }

  // Single-lane convenience load (a warp instruction with one active lane).
  template <typename T>
  T load_one(const Buffer<T>& buf, std::uint64_t index) {
    T value;
    const std::uint64_t idx[1] = {index};
    load(buf, idx, std::span<T>(&value, 1));
    return value;
  }

  template <typename T>
  void store(Buffer<T>& buf, std::span<const std::uint64_t> indices,
             std::span<const T> values) {
    RDBS_DCHECK(indices.size() == values.size());
    record_addresses(buf, indices);
    record_mem(MemOp::kStore, static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i = 0; i < indices.size(); ++i) {
      buf.data()[functional_index(buf, indices[i])] = values[i];
    }
  }

  template <typename T>
  void store_one(Buffer<T>& buf, std::uint64_t index, T value) {
    const std::uint64_t idx[1] = {index};
    const T val[1] = {value};
    store(buf, idx, std::span<const T>(val, 1));
  }

  // Warp-level atomicMin: lane i performs atomicMin(buf[indices[i]],
  // values[i]). Returns per-lane "improved" flags. Lanes hitting the same
  // element serialize (conflict cycles). Applied in lane order, which is a
  // legal (and deterministic) serialization of the hardware's.
  template <typename T>
  void atomic_min(Buffer<T>& buf, std::span<const std::uint64_t> indices,
                  std::span<const T> values, std::span<std::uint8_t> improved) {
    RDBS_DCHECK(indices.size() == values.size());
    RDBS_DCHECK(indices.size() == improved.size());
    record_addresses(buf, indices);
    record_mem(MemOp::kAtomic, static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i = 0; i < indices.size(); ++i) {
      T& cell = buf.data()[functional_index(buf, indices[i])];
      if (values[i] < cell) {
        cell = values[i];
        improved[i] = 1;
      } else {
        improved[i] = 0;
      }
    }
  }

  // Charges one warp atomic instruction (RMW of any flavor: exch, add, CAS)
  // on the given elements without modifying buffer contents — used when the
  // functional side effect is maintained elsewhere (queue tails, flags).
  template <typename T>
  void atomic_touch(const Buffer<T>& buf,
                    std::span<const std::uint64_t> indices) {
    record_addresses(buf, indices);
    record_mem(MemOp::kAtomic, static_cast<std::uint32_t>(indices.size()));
  }

  // --- volatile accesses ----------------------------------------------------
  // Model the paper's `volatile` / st.cg queue traffic ("updates
  // immediately visible"): like atomics they bypass the L1 and resolve at
  // the coherence point (the shared L2), but carry no same-address
  // serialization cost. Under the sanitizer they pair safely with atomics
  // and with each other, while a *plain* store to the same address from
  // another warp is still flagged (mixed-visibility hazard).
  template <typename T>
  void volatile_load(const Buffer<T>& buf,
                     std::span<const std::uint64_t> indices,
                     std::span<T> out) {
    RDBS_DCHECK(indices.size() == out.size());
    record_addresses(buf, indices);
    record_mem(MemOp::kVolatileLoad,
               static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i = 0; i < indices.size(); ++i) {
      out[i] = buf.data()[functional_index(buf, indices[i])];
    }
    if (fault_) maybe_flip(buf, out);
  }

  template <typename T>
  void volatile_store(Buffer<T>& buf, std::span<const std::uint64_t> indices,
                      std::span<const T> values) {
    RDBS_DCHECK(indices.size() == values.size());
    record_addresses(buf, indices);
    record_mem(MemOp::kVolatileStore,
               static_cast<std::uint32_t>(indices.size()));
    for (std::size_t i = 0; i < indices.size(); ++i) {
      buf.data()[functional_index(buf, indices[i])] = values[i];
    }
  }

  // Charges one volatile warp load/store on the given elements without a
  // data effect — the volatile counterpart of atomic_touch, for queue slot
  // traffic whose functional side is maintained host-side.
  template <typename T>
  void volatile_touch(const Buffer<T>& buf,
                      std::span<const std::uint64_t> indices, bool is_store) {
    record_addresses(buf, indices);
    record_mem(is_store ? MemOp::kVolatileStore : MemOp::kVolatileLoad,
               static_cast<std::uint32_t>(indices.size()));
  }

  template <typename T>
  bool atomic_min_one(Buffer<T>& buf, std::uint64_t index, T value) {
    const std::uint64_t idx[1] = {index};
    const T val[1] = {value};
    std::uint8_t flag[1] = {0};
    atomic_min(buf, idx, std::span<const T>(val, 1),
               std::span<std::uint8_t>(flag, 1));
    return flag[0] != 0;
  }

  // Charges a device-side (dynamic parallelism) child kernel launch to this
  // warp; the child's work itself is enqueued by the caller as more tasks.
  void child_launch();

  // gsan annotation (no cost, no memory op, no counters): declares that this
  // warp spin-waits on buf[index] — a persistent-kernel queue protocol
  // consuming a slot another party must publish. The sanitizer flags waits
  // no host transfer and no device write (this launch's, or any earlier
  // launch's on any stream) can ever satisfy as `[gsan] no-progress` — the
  // lost-wakeup / deadlock class. Free when the sanitizer is off; timing
  // and counters are identical either way. Defined after GpuSim.
  template <typename T>
  void spin_wait(const Buffer<T>& buf, std::uint64_t index);

 private:
  friend class GpuSim;
  friend class KernelScope;

  WarpCtx(GpuSim& sim, int sm_id, std::uint32_t task_index, bool sanitize,
          bool fault)
      : sim_(sim),
        sm_id_(sm_id),
        task_(task_index),
        sanitize_(sanitize),
        fault_(fault) {}

  // Translates lane element indices to device addresses into the
  // simulator's 32-slot staging buffer (no per-call allocation), in lane
  // order. Under the sanitizer, out-of-bounds indices are reported and
  // clamped; the sanitizer-off hot path keeps the single debug assertion.
  template <typename T>
  void record_addresses(const Buffer<T>& buf,
                        std::span<const std::uint64_t> indices) {
    RDBS_DCHECK(indices.size() <= 32);
    std::uint64_t* slots = lane_slots();
    if (sanitize_) {
      for (std::size_t i = 0; i < indices.size(); ++i) {
        slots[i] = buf.address_of(
            checked_index_slow(buf.name(), indices[i], buf.size()));
      }
    } else {
      for (std::size_t i = 0; i < indices.size(); ++i) {
        RDBS_DCHECK(indices[i] < buf.size());
        slots[i] = buf.address_of(indices[i]);
      }
    }
  }

  // Clamp applied to the *functional* access so a reported out-of-bounds
  // index cannot corrupt host memory. No-op (one predicted branch) when the
  // sanitizer is off.
  template <typename T>
  std::uint64_t functional_index(const Buffer<T>& buf,
                                 std::uint64_t index) const {
    if (!sanitize_ || index < buf.size()) return index;
    return buf.size() == 0 ? 0 : buf.size() - 1;
  }

  // gfi hook: asks the owning simulator's fault injector whether this load
  // instruction takes a transient flip (defined after GpuSim below; called
  // only when the injector is enabled).
  template <typename T>
  void maybe_flip(const Buffer<T>& buf, std::span<T> out);

  std::uint64_t* lane_slots();
  // Counters, op ordinal and scheduling weight of one warp memory
  // instruction — the part both recording paths share.
  void count_mem(std::uint8_t kind, std::uint32_t lanes);
  void record_mem(std::uint8_t kind, std::uint32_t lanes);
  // Record of load_range without gsan: `lanes` elements of `elem_bytes`
  // each, starting at device address `first_addr`.
  void record_load_range(std::uint64_t first_addr, std::uint32_t elem_bytes,
                         std::uint32_t lanes);
  std::uint64_t checked_index_slow(const std::string& buffer_name,
                                   std::uint64_t index, std::uint64_t size);
  bool active_task_valid() const;

  GpuSim& sim_;
  int sm_id_;
  std::uint32_t task_;
  bool sanitize_;  // gsan on: the sanitizer also checks each op
  bool fault_;     // fault injector enabled on the owning simulator
};

// How blocks map to SMs.
enum class Schedule {
  kStatic,   // block b -> SM (b mod num_sms): the fixed assignment of a
             // conventional grid launch; imbalance shows up as idle SMs
  kDynamic,  // each task goes to the currently least-loaded SM: models
             // persistent worker threads / dynamic parallelism + Hyper-Q
};

struct LaunchResult {
  double ms = 0;             // kernel wall time under the cost model
  double busy_cycles = 0;    // sum of all warp cycles
  std::uint64_t tasks = 0;   // warp tasks executed
};

// Cumulative launch statistics (diagnostics; never reset).
struct TraceStats {
  std::uint64_t launches = 0;        // total launches ended
  std::uint64_t fused_launches = 0;  // of which ran without gsan
};

class GpuSim {
 public:
  explicit GpuSim(DeviceSpec spec);

  const DeviceSpec& spec() const { return spec_; }
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  MemorySim& memory() { return memory_; }

  // --- sanitizer (gsan) -----------------------------------------------------
  // Opt-in hazard analysis of every warp memory op; see gpusim/sanitizer.hpp
  // and docs/sanitizer.md. Enable before running kernels. When off (the
  // default) the only cost is one never-taken branch per warp memory
  // instruction.
  void enable_sanitizer(SanitizeMode mode);
  Sanitizer* sanitizer() { return sanitizer_.get(); }
  const Sanitizer* sanitizer() const { return sanitizer_.get(); }
  // Names the next launch in sanitizer reports (no-op when the sanitizer is
  // off). Labels make hazard reports self-describing and diffable.
  void label_next_launch(std::string_view label) {
    if (sanitizer_) pending_label_.assign(label);
  }
  // gsan hook behind WarpCtx::spin_wait: records that `task` of the open
  // launch spins on device address `addr`. Pure annotation — touches no
  // timing or counter state.
  void note_spin_wait(std::uint32_t task, std::uint64_t addr) {
    if (sanitizer_) sanitizer_->note_wait(task, addr);
  }

  // --- fault injection (gfi) ------------------------------------------------
  // Deterministic seeded fault plans over the launch/record pipeline; see
  // gpusim/fault.hpp and docs/fault_injection.md. Enable before running
  // kernels; when off (the default) the only cost is one never-taken branch
  // per warp load instruction. Passing a config with enabled == false
  // removes a previously installed injector.
  void enable_fault_injection(const FaultConfig& config);
  const FaultInjector* fault_injector() const { return fault_.get(); }
  // Every event the injector placed, in canonical (record-phase) order —
  // byte-identical across reruns. Engines snapshot size() before an
  // attempt and scan the tail to classify it (core/recovery.hpp).
  const std::vector<GpuFault>& fault_log() const { return fault_log_; }
  // Latched by a kDeviceLoss fault; while set, no further faults are drawn
  // (the device is already gone) and every attempt counts as poisoned.
  bool device_lost() const { return device_lost_; }
  // Simulated cudaDeviceReset: clears the lost-device latch and the fault
  // log/budget. A real service would tear the process down instead; tests
  // use this to stage multi-phase chaos scenarios. A device-wide reset is a
  // full fence, so the sanitizer's happens-before clocks all join.
  void revive_device() {
    device_lost_ = false;
    fault_log_.clear();
    if (sanitizer_) sanitizer_->full_fence();
  }
  // Checkpoint poison hooks (core/checkpoint.hpp): engines snapshot a
  // distance buffer only while its backing region is clean, and clear the
  // stale mark when a retry re-initializes the buffer from scratch (the
  // bulk clear in recovery only fires when read-only data was also hit).
  template <typename T>
  bool buffer_poisoned(const Buffer<T>& buf) const {
    return memory_.region_poisoned(buf.address_of(0));
  }
  template <typename T>
  void clear_buffer_poison(const Buffer<T>& buf) {
    memory_.clear_region_poison(buf.address_of(0));
  }
  // Charges a host-side delay (e.g. a retry backoff) to one stream's
  // simulated timeline. The host is interacting with this stream's work, so
  // the sanitizer treats it as a two-way synchronization point.
  void charge_host_ms(double ms, StreamId stream = 0) {
    if (sanitizer_) sanitizer_->host_wait(stream);
    stream_state(stream).time_ms += ms;
  }

  // --- per-stream deadlines (serving layer; core/query_server.hpp) ----------
  // An absolute point on the stream's simulated clock after which its work
  // is late. The simulator never aborts anything itself — cancellation is
  // cooperative (engines poll core::CancelToken at their loop boundaries) —
  // but every launch *completion* past the deadline is counted, so the
  // serving layer can see exactly how many kernels a query still charged
  // after going over. Negative = no deadline (the default). Cleared by
  // reset_time()/reset_all() along with the stream clocks.
  void set_stream_deadline(StreamId stream, double deadline_ms) {
    stream_state(stream).deadline_ms = deadline_ms;
  }
  void clear_stream_deadline(StreamId stream) {
    stream_state(stream).deadline_ms = -1.0;
  }
  // Kernels on `stream` that COMPLETED after its deadline had passed — the
  // device time a cooperatively cancelled query still charged between its
  // cancellation points (0 when no deadline was ever set).
  std::uint64_t stream_overrun_kernels(StreamId stream) const {
    const StreamState* state = stream_state_if(stream);
    return state ? state->overrun_kernels : 0;
  }

  // Applies one flip decision to a just-loaded value vector. Called from
  // WarpCtx::maybe_flip as the load executes; all state touched here (log,
  // counters, budget) is host-serial, so fault plans are deterministic.
  template <typename T>
  void inject_load_fault(std::uint32_t task, const Buffer<T>& buf,
                         std::span<T> out) {
    if (!fault_ || out.empty() || device_lost_) return;
    if (fault_log_.size() >= fault_->config().max_faults) return;
    // The op ordinal comes from the simulator's own memory-op counter, so
    // fault plans are identical with gsan on or off.
    const std::uint64_t op_ordinal = launch_ops_ == 0 ? 0 : launch_ops_ - 1;
    const FaultInjector::FlipDecision d = fault_->load_fault(
        launch_stream_, current_stream_launch_, task, op_ordinal);
    if (!d.inject) return;
    GpuFault fault;
    fault.stream = launch_stream_;
    fault.launch = current_stream_launch_;
    fault.task = task;
    fault.op = op_ordinal;
    fault.buffer = buf.name();
    ++counters_.faults_injected;
    if (d.correctable) {
      // ECC caught and fixed the flip in flight: the loaded value is
      // correct, the event is only logged.
      fault.cls = FaultClass::kBitFlipCorrectable;
      ++counters_.ecc_corrected;
    } else {
      fault.cls = FaultClass::kBitFlipUncorrectable;
      memory_.mark_poisoned(buf.address_of(0));
      // Corrupt only finite floating-point values, and only mantissa bits:
      // the value stays finite, same-signed and within its binade, so the
      // poisoned attempt still terminates (see fault.hpp header comment).
      // Integer loads are reported but not value-corrupted — a flipped
      // vertex id would escape the simulation as an OOB host access.
      if constexpr (std::is_floating_point_v<T>) {
        T& value = out[d.lane % out.size()];
        if (std::isfinite(value)) {
          if constexpr (sizeof(T) == 8) {
            fault.bit = d.bit % 52;
            std::uint64_t bits;
            std::memcpy(&bits, &value, sizeof bits);
            bits ^= std::uint64_t{1} << fault.bit;
            std::memcpy(&value, &bits, sizeof bits);
          } else {
            fault.bit = d.bit % 23;
            std::uint32_t bits;
            std::memcpy(&bits, &value, sizeof bits);
            bits ^= std::uint32_t{1} << fault.bit;
            std::memcpy(&value, &bits, sizeof bits);
          }
        }
      }
    }
    fault_log_.push_back(std::move(fault));
  }

  // --- allocation-table maintenance ----------------------------------------
  // Records a host-side transfer/memset into `buf` (whole buffer or the
  // element range [first, first+count)) so the sanitizer's uninitialized-
  // read check knows the data is defined. Cheap and always tracked, so
  // engines may call it regardless of sanitize mode or enable order.
  template <typename T>
  void mark_initialized(const Buffer<T>& buf) {
    if (buf.size() == 0) return;
    memory_.mark_host_initialized(buf.address_of(0),
                                  buf.address_of(buf.size()));
  }
  template <typename T>
  void mark_initialized(const Buffer<T>& buf, std::uint64_t first,
                        std::uint64_t count) {
    memory_.mark_host_initialized(buf.address_of(first),
                                  buf.address_of(first + count));
  }
  // Marks `buf` immutable from device code; any store/atomic to it becomes
  // a read-only-write hazard (shared DeviceCsrBuffers across streams).
  template <typename T>
  void mark_read_only(const Buffer<T>& buf) {
    if (buf.size() == 0) return;  // empty region: nothing to protect
    memory_.mark_read_only(buf.address_of(0));
  }
  // Simulated cudaFree: later device accesses to the region are
  // use-after-free hazards (addresses are never reused). The host-side
  // vector in `buf` stays alive, so even un-sanitized code cannot corrupt
  // host memory through a stale Buffer.
  template <typename T>
  void free_buffer(const Buffer<T>& buf) {
    memory_.free_region(buf.address_of(0));
  }

  const TraceStats& trace_stats() const { return stats_; }

  template <typename T>
  Buffer<T> alloc(std::string name, std::size_t count,
                  std::uint32_t device_elem_bytes = sizeof(T)) {
    const std::uint64_t base = memory_.allocate(
        static_cast<std::uint64_t>(count) * device_elem_bytes, name,
        device_elem_bytes);
    return Buffer<T>(std::move(name), count, device_elem_bytes, base);
  }

  // --- kernel execution -----------------------------------------------------
  // Runs warp tasks 0..num_tasks-1. `run(ctx, task_index)` performs the
  // task's work through ctx. Tasks are grouped into blocks of
  // `warps_per_block` consecutive tasks for SM assignment. A KernelScope
  // over a counted loop (defined after KernelScope).
  template <typename F>
  LaunchResult run_kernel(Schedule schedule, std::uint64_t num_tasks,
                          int warps_per_block, F&& run,
                          bool host_launch = true, StreamId stream = 0);

  // Manual kernel control for engines whose task structure is not a simple
  // fixed-size grid (heterogeneous persistent kernels, dynamic parallelism
  // with growing work queues). Usage:
  //   KernelScope k(sim, Schedule::kDynamic);
  //   while (work) { WarpCtx ctx = k.make_warp(); ...; k.commit(ctx); }
  //   LaunchResult r = k.finish();
  // See KernelScope below.

  // Adds a fixed host-side overhead (e.g. a stream synchronize between
  // dependent kernels in synchronous mode) to one stream's timeline. For
  // the sanitizer this is cudaStreamSynchronize: the host clock joins the
  // stream's — later launches on ANY stream are ordered after this one.
  void host_barrier(StreamId stream = 0) {
    if (sanitizer_) sanitizer_->host_sync(stream);
    stream_state(stream).time_ms += spec_.kernel_launch_us * 1e-3 * 0.5;
  }

  // Host<->device transfer over PCIe (the paper's timings EXCLUDE these, as
  // do the engines here; exposed for end-to-end accounting in user code).
  // Cost: fixed setup latency plus bytes over pcie_bandwidth_gbps.
  double memcpy_ms(std::uint64_t bytes) const {
    constexpr double kPcieBandwidthGbps = 12.0;  // PCIe 3.0 x16 effective
    constexpr double kSetupUs = 10.0;
    return kSetupUs * 1e-3 + static_cast<double>(bytes) /
                                 (kPcieBandwidthGbps * 1e6);
  }
  // Charges a host-to-device transfer onto the simulated timeline of one
  // stream. A (synchronous) memcpy orders the host and the stream both
  // ways, so the sanitizer joins their happens-before clocks.
  void memcpy_h2d(std::uint64_t bytes, StreamId stream = 0) {
    if (sanitizer_) sanitizer_->host_transfer(stream);
    stream_state(stream).time_ms += memcpy_ms(bytes);
  }
  // Device-to-host transfer on the stream's copy queue (cudaMemcpyAsync on
  // a copy engine). Each stream has one D2H queue; queues of different
  // streams do not contend, just as memcpy_h2d charges per stream. The
  // copy starts once the stream's work issued so far and the queue's
  // previous copy are both done, lands memcpy_ms(bytes) later, and the
  // landing time is returned. The stream clock does not move: later work
  // on the stream overlaps the copy. Issuing it synchronizes nothing, so
  // the sanitizer orders nothing by it.
  double memcpy_d2h_async(std::uint64_t bytes, StreamId stream = 0) {
    StreamState& state = stream_state(stream);
    state.d2h_free_ms =
        std::max(state.time_ms, state.d2h_free_ms) + memcpy_ms(bytes);
    return state.d2h_free_ms;
  }
  // When `stream`'s D2H queue drains: the landing time of its last copy
  // (0 when it has none since reset_time()).
  double d2h_queue_free_ms(StreamId stream) const {
    const StreamState* state = stream_state_if(stream);
    return state ? state->d2h_free_ms : 0.0;
  }

  // --- simulated time -------------------------------------------------------
  // Device wall time: the latest stream clock, floored by the aggregate
  // device-throughput bound (total busy cycles across all launches cannot
  // retire faster than every SM issuing flat out, nor can total DRAM traffic
  // beat peak bandwidth). With a single stream this equals the old
  // accumulate-every-launch timeline exactly.
  double elapsed_ms() const;
  // Per-stream clock: completion time of the last operation on `stream`.
  double stream_elapsed_ms(StreamId stream) const;
  // Time kernels on `stream` spent waiting for one of the device's
  // max_concurrent_kernels slots (Hyper-Q admission queue).
  double stream_queue_wait_ms(StreamId stream) const;
  // Kernels admitted on `stream` (host launches and device-side scopes).
  std::uint64_t stream_kernels(StreamId stream) const;
  // Aggregate-throughput lower bound on elapsed_ms (diagnostic).
  double device_busy_floor_ms() const { return device_work_ms_; }

  // reset_time() drops every stream (clock, deadline, D2H queue) and the
  // device-wide kernel slots and busy floor; reset_all() also clears the
  // counters and caches.
  void reset_time();
  void reset_all();

 private:
  friend class WarpCtx;
  friend class KernelScope;

  // One warp task of the open launch: placement, charged cycles and the
  // scheduling weight.
  struct TaskRecord {
    int sm = 0;
    std::uint64_t weight = 0;  // cache-independent load estimate (scheduling)
    std::uint64_t cycles = 0;  // true cycles: ALU, child launches, memory
  };

  void begin_launch(bool host_launch, StreamId stream, Schedule schedule);
  // The least-loaded SM of a dynamic launch (static placement is
  // KernelScope's).
  int pick_dynamic_sm();
  WarpCtx begin_task(int sm);
  void commit_task(const WarpCtx& ctx);
  LaunchResult end_launch(std::uint64_t tasks, bool host_launch);

  // Charges one warp memory instruction whose lane addresses are staged in
  // lane_addrs_. Coalescing sorts them in place, so the sanitizer's check
  // must come first.
  void charge_op(std::uint8_t kind, std::uint32_t lanes, std::uint32_t task);
  // The same charge for a load_range: the (line, sector-mask) list comes
  // from coalesce_contiguous_lanes instead of the staged lane addresses.
  void charge_range(std::uint64_t first_addr, std::uint32_t elem_bytes,
                    std::uint32_t lanes, std::uint32_t task);
  // The cache side both charges share: transactions, atomic conflicts, then
  // the L1 probe (loads/stores) or the direct L2 probe (atomics/volatiles)
  // of each coalesced line.
  void charge_lines(std::uint8_t kind, std::uint32_t lanes,
                    const CoalesceResult& co, const WarpLineRef* lines,
                    std::uint32_t task);
  // Probes the masked sectors of one line in the shared L2, updating the
  // L2/DRAM counters; returns the replay cycles to charge. `cached` marks
  // the load/store path (L2 hits cost kL2ReplayCycles; atomic/volatile hits
  // are free — they already paid their sector transactions).
  std::uint64_t charge_l2(std::uint64_t line, std::uint32_t mask, bool cached);

  // gfi: applies the pending launch-level fault (and the cost-clock
  // watchdog) to a finished launch. Returns false when the kernel never
  // ran (a launch failure). Defined in sim.cpp.
  bool apply_launch_fault(LaunchResult& result);

  // --- stream timelines (Hyper-Q admission model) --------------------------
  // Each stream carries its own clock. A kernel "arrives" at its stream's
  // current clock; admission retires every in-flight kernel that ended by
  // then, and if all max_concurrent_kernels slots are still held the kernel
  // starts when the earliest in-flight kernel ends (FCFS, m identical
  // slots). The gap is the stream's queue wait. All arithmetic is serial
  // host-side doubles, so it is deterministic.
  struct StreamState {
    double time_ms = 0;
    double queue_wait_ms = 0;
    std::uint64_t kernels = 0;
    // Serving-layer deadline on this stream's clock (negative = none) and
    // the count of kernels that completed past it; see set_stream_deadline.
    double deadline_ms = -1.0;
    std::uint64_t overrun_kernels = 0;
    // Landing time of the last copy on the stream's D2H queue.
    double d2h_free_ms = 0;
  };
  StreamState& stream_state(StreamId stream);
  const StreamState* stream_state_if(StreamId stream) const;
  // Charges `duration_ms` as one kernel on `stream`; returns its start time.
  double admit_kernel(StreamId stream, double duration_ms);

  DeviceSpec spec_;
  MemorySim memory_;
  Counters counters_;
  std::vector<StreamState> streams_;
  std::vector<double> inflight_end_ms_;  // end times of resident kernels
  double device_work_ms_ = 0;            // aggregate-throughput floor

  // gsan state (null when off). pending_label_ names the next launch;
  // launch_ordinal_ is a monotone id for unlabeled launches.
  std::unique_ptr<Sanitizer> sanitizer_;
  std::string pending_label_;
  std::uint64_t launch_ordinal_ = 0;

  // gfi state (null when off). Launch ordinals are tracked per stream so
  // fault keys are stable under any interleaving of other streams' work;
  // the log, latch and budget survive reset_all() (a device does not heal
  // because the host reran a query) — revive_device() clears them.
  std::unique_ptr<FaultInjector> fault_;
  std::vector<GpuFault> fault_log_;
  std::vector<std::uint64_t> stream_launch_ordinals_;
  std::uint64_t current_stream_launch_ = 0;  // ordinal of the open launch
  std::optional<FaultClass> pending_launch_fault_;
  bool device_lost_ = false;

  // --- per-launch state (one launch at a time) ------------------------------
  static constexpr std::uint32_t kNoTask = ~0u;
  std::vector<TaskRecord> task_records_;
  std::uint32_t active_task_ = kNoTask;
  // Memory-op ordinal counter for the open launch: the fault injector's op
  // key.
  std::uint32_t launch_ops_ = 0;
  bool launch_open_ = false;
  // The open launch places tasks with Schedule::kDynamic — the only
  // reader of sm_load_ and load_heap_.
  bool dynamic_launch_ = false;
  StreamId launch_stream_ = 0;
  std::uint32_t spl_shift_ = 2;  // log2(sectors per line), from MemorySim
  // Staging for one warp op's lane addresses (WarpCtx::lane_slots).
  std::array<std::uint64_t, 32> lane_addrs_{};
  TraceStats stats_;

  // Dynamic scheduling: per-SM weight plus a lazy min-heap over
  // (weight, sm) so pick_dynamic_sm is O(log num_sms) instead of a linear
  // argmin.
  std::vector<std::uint64_t> sm_load_;
  std::vector<std::pair<std::uint64_t, int>> load_heap_;

  // Per-launch aggregation scratch.
  std::vector<double> sm_cycles_;
  std::vector<std::uint64_t> sm_longest_task_;
  std::uint64_t launch_dram_bytes_ = 0;
  std::uint64_t launch_child_launches_ = 0;
};

template <typename T>
void WarpCtx::maybe_flip(const Buffer<T>& buf, std::span<T> out) {
  sim_.inject_load_fault(task_, buf, out);
}

template <typename T>
void WarpCtx::spin_wait(const Buffer<T>& buf, std::uint64_t index) {
  if (!sanitize_) return;
  sim_.note_spin_wait(task_,
                      buf.address_of(functional_index(buf, index)));
}

// RAII handle over one kernel launch whose warp tasks are produced on the
// fly by the caller (the engine's persistent / dynamic-parallelism kernels).
// Exactly one finish() per scope; destruction without finish() aborts in
// debug builds (a silently-untimed kernel would corrupt the experiment).
class KernelScope {
 public:
  KernelScope(GpuSim& sim, Schedule schedule, bool host_launch = true,
              int warps_per_block = 8, StreamId stream = 0)
      : sim_(sim),
        schedule_(schedule),
        host_launch_(host_launch),
        warps_per_block_(std::max(1, warps_per_block)) {
    sim_.begin_launch(host_launch_, stream, schedule_);
  }

  ~KernelScope() { RDBS_DCHECK(finished_); }

  // Creates the next warp's execution context (assigns it to an SM).
  // Static placement puts warp i on SM (i / warps_per_block) % num_sms,
  // tracked by stepping the block's SM instead of dividing per warp.
  WarpCtx make_warp() {
    ++task_index_;
    if (schedule_ == Schedule::kDynamic) {
      return sim_.begin_task(sim_.pick_dynamic_sm());
    }
    const int sm = static_sm_;
    if (++warp_in_block_ == warps_per_block_) {
      warp_in_block_ = 0;
      if (++static_sm_ == sim_.spec().num_sms) static_sm_ = 0;
    }
    return sim_.begin_task(sm);
  }

  // Closes a completed warp's task record and feeds its weight back into the
  // dynamic scheduler.
  void commit(const WarpCtx& ctx) { sim_.commit_task(ctx); }

  LaunchResult finish() {
    RDBS_DCHECK(!finished_);
    finished_ = true;
    return sim_.end_launch(task_index_, host_launch_);
  }

 private:
  GpuSim& sim_;
  Schedule schedule_;
  bool host_launch_;
  int warps_per_block_;
  std::uint64_t task_index_ = 0;
  int static_sm_ = 0;      // SM of the current static block
  int warp_in_block_ = 0;  // warps of that block made so far
  bool finished_ = false;
};

template <typename F>
LaunchResult GpuSim::run_kernel(Schedule schedule, std::uint64_t num_tasks,
                                int warps_per_block, F&& run,
                                bool host_launch, StreamId stream) {
  KernelScope kernel(*this, schedule, host_launch, warps_per_block, stream);
  for (std::uint64_t t = 0; t < num_tasks; ++t) {
    WarpCtx ctx = kernel.make_warp();
    run(ctx, t);
    kernel.commit(ctx);
  }
  return kernel.finish();
}

}  // namespace rdbs::gpusim
