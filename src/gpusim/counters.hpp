// Profiling counters matching the nvprof metrics the paper reports in
// Fig. 10, plus the internal quantities the cost model aggregates.
#pragma once

#include <cstdint>

namespace rdbs::gpusim {

struct Counters {
  // --- nvprof-named metrics (paper Fig. 10) -------------------------------
  std::uint64_t inst_executed_global_loads = 0;   // warp-level load instrs
  std::uint64_t inst_executed_global_stores = 0;  // warp-level store instrs
  std::uint64_t inst_executed_atomics = 0;        // warp-level atom/red/CAS
  std::uint64_t l1_sector_accesses = 0;           // 32B sector probes
  std::uint64_t l1_sector_hits = 0;
  std::uint64_t l2_sector_accesses = 0;           // L1-miss / atomic probes
  std::uint64_t l2_sector_hits = 0;

  // --- cost-model internals ------------------------------------------------
  std::uint64_t alu_instructions = 0;   // warp-level non-memory instrs
  std::uint64_t memory_transactions = 0;  // 32B sectors moved L1<->warp
  std::uint64_t dram_bytes = 0;           // bytes fetched on L1 misses
  std::uint64_t atomic_conflicts = 0;     // same-address lane collisions
  std::uint64_t kernel_launches = 0;      // host-side launches
  std::uint64_t child_launches = 0;       // dynamic-parallelism launches
  std::uint64_t active_lane_ops = 0;      // lanes doing useful work
  std::uint64_t issued_lane_ops = 0;      // lanes occupied (incl. disabled)
  // Volatile (L1-bypassing) loads/stores. These also count into the
  // inst_executed_global_* totals above; this tracks how much of the
  // traffic took the "updates immediately visible" path the paper's
  // asynchronous queues rely on.
  std::uint64_t volatile_accesses = 0;

  // --- fault injection (gfi; see gpusim/fault.hpp) -------------------------
  // Events the injector placed on this simulator (all classes, including
  // ECC-corrected flips and watchdog-detected runaways).
  std::uint64_t faults_injected = 0;
  // The subset of faults_injected that ECC corrected in place (benign).
  std::uint64_t ecc_corrected = 0;

  double l2_hit_rate() const {
    return l2_sector_accesses == 0
               ? 0.0
               : static_cast<double>(l2_sector_hits) /
                     static_cast<double>(l2_sector_accesses);
  }
  double global_hit_rate() const {
    return l1_sector_accesses == 0
               ? 0.0
               : static_cast<double>(l1_sector_hits) /
                     static_cast<double>(l1_sector_accesses);
  }
  // Total warp-level instructions issued (ALU + loads + stores + atomics) —
  // the numerator of the MWIPS throughput metric.
  std::uint64_t warp_instructions() const {
    return alu_instructions + inst_executed_global_loads +
           inst_executed_global_stores + inst_executed_atomics;
  }
  // SIMT lane utilization: 1.0 means no divergence waste.
  double lane_efficiency() const {
    return issued_lane_ops == 0
               ? 1.0
               : static_cast<double>(active_lane_ops) /
                     static_cast<double>(issued_lane_ops);
  }

  Counters& operator+=(const Counters& other);
  // Per-query counter deltas: batch engines snapshot the shared simulator's
  // counters before a query and subtract after. All counters are monotone
  // within a simulator lifetime, so the subtraction never underflows.
  Counters operator-(const Counters& other) const;
  // Exact (bitwise) comparison — the determinism tests assert that every
  // counter is identical across reruns and with gsan on or off.
  bool operator==(const Counters& other) const;
};

}  // namespace rdbs::gpusim
