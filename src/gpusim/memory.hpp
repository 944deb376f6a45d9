// Global-memory model: a flat simulated address space plus one sectored L1
// cache per SM. Warp-level accesses are coalesced into 32-byte sector
// transactions exactly as the hardware's LSU would: lanes touching the same
// sector share one transaction.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/device.hpp"

namespace rdbs::gpusim {

// One cache line touched by a warp memory instruction: line index
// (= address / line_bytes) plus the mask of 32B sectors requested within
// it. GpuSim probes these through SectoredCache::access_line, which
// amortizes the set's way scan over every sector of the line.
struct WarpLineRef {
  std::uint64_t line = 0;
  std::uint32_t mask = 0;
};

struct CoalesceResult {
  std::uint32_t distinct_addrs = 0;  // distinct lane addresses (conflicts)
  std::uint32_t sectors = 0;         // distinct 32B sectors (transactions)
  std::uint32_t lines = 0;           // entries written to line_out
};

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
struct MemOp {
  static constexpr std::uint8_t kLoad = 0;
  static constexpr std::uint8_t kStore = 1;
  static constexpr std::uint8_t kAtomic = 2;
  static constexpr std::uint8_t kVolatileLoad = 3;
  static constexpr std::uint8_t kVolatileStore = 4;

  static constexpr bool kind_is_write(std::uint8_t k) {
    return k == kStore || k == kAtomic || k == kVolatileStore;
  }
  static constexpr bool kind_is_volatile(std::uint8_t k) {
    return k == kVolatileLoad || k == kVolatileStore;
  }
};

namespace detail {

// Batcher's odd-even merge sort, depth first: sort each half, then merge
// them. Calls f(i, j), i < j, for every compare-exchange of the network on
// [lo, lo + n), n = 2^k, in an order that respects its dependencies.
// Depth first, each small block is sorted while it fits in registers; the
// layer-by-layer order of the same network measured slower.
template <typename F>
constexpr void batcher_merge(std::size_t lo, std::size_t n, std::size_t r,
                             F& f) {
  const std::size_t step = 2 * r;
  if (step < n) {
    batcher_merge(lo, n, step, f);
    batcher_merge(lo + r, n, step, f);
    for (std::size_t i = lo + r; i + r < lo + n; i += step) f(i, i + r);
  } else {
    f(lo, lo + r);
  }
}

template <typename F>
constexpr void batcher_sort(std::size_t lo, std::size_t n, F& f) {
  if (n < 2) return;
  batcher_sort(lo, n / 2, f);
  batcher_sort(lo + n / 2, n / 2, f);
  batcher_merge(lo, n, 1, f);
}

template <std::size_t N>
inline constexpr std::size_t kBatcherSize = [] {
  std::size_t count = 0;
  auto tally = [&](std::size_t, std::size_t) { ++count; };
  batcher_sort(0, N, tally);
  return count;
}();

template <std::size_t N>
inline constexpr auto kBatcherPairs = [] {
  std::array<std::array<std::uint8_t, 2>, kBatcherSize<N>> pairs{};
  std::size_t next = 0;
  auto record = [&](std::size_t i, std::size_t j) {
    pairs[next++] = {static_cast<std::uint8_t>(i),
                     static_cast<std::uint8_t>(j)};
  };
  batcher_sort(0, N, record);
  return pairs;
}();

static_assert(kBatcherSize<8> == 19 && kBatcherSize<16> == 63 &&
              kBatcherSize<32> == 191);

// Compare-exchange written as two selects on one comparison, which GCC
// compiles to conditional moves (std::min/std::max got a branch each).
inline void compare_exchange(std::uint64_t& a, std::uint64_t& b) {
  const std::uint64_t x = a;
  const std::uint64_t y = b;
  const bool swap = y < x;
  a = swap ? y : x;
  b = swap ? x : y;
}

template <std::size_t N, std::size_t... I>
inline void run_batcher(std::uint64_t* v, std::index_sequence<I...>) {
  (compare_exchange(v[kBatcherPairs<N>[I][0]], v[kBatcherPairs<N>[I][1]]),
   ...);
}

// Sorts `lanes` <= N addresses in place through the fully unrolled
// N-input network; the unused inputs are padded with ~0, which sort last.
template <std::size_t N>
inline void sort_lanes_network(std::uint64_t* lane_addrs,
                               std::uint32_t lanes) {
  std::array<std::uint64_t, N> v;
  std::copy_n(lane_addrs, lanes, v.begin());
  std::fill(v.begin() + lanes, v.end(), ~0ull);
  run_batcher<N>(v.data(), std::make_index_sequence<kBatcherSize<N>>{});
  std::copy_n(v.begin(), lanes, lane_addrs);
}

}  // namespace detail

// Sorts 2-32 lane addresses ascending in place. Lanes that already ascend
// (unit-stride warps, phase 2's heavy-edge loads) cost one compare each.
// Otherwise an unrolled network is branch-free, so the random orders of
// scattered gathers do not mispredict as insertion sort's inner loop does;
// below four lanes insertion sort is cheaper than padding to eight.
inline void sort_warp_lanes(std::uint64_t* lane_addrs, std::uint32_t lanes) {
  bool ascending = true;
  for (std::uint32_t i = 1; i < lanes; ++i) {
    ascending &= lane_addrs[i - 1] <= lane_addrs[i];
  }
  if (ascending) return;
  if (lanes < 4) {
    for (std::uint32_t i = 1; i < lanes; ++i) {
      const std::uint64_t key = lane_addrs[i];
      std::uint32_t j = i;
      for (; j > 0 && lane_addrs[j - 1] > key; --j) {
        lane_addrs[j] = lane_addrs[j - 1];
      }
      lane_addrs[j] = key;
    }
  } else if (lanes <= 8) {
    detail::sort_lanes_network<8>(lane_addrs, lanes);
  } else if (lanes <= 16) {
    detail::sort_lanes_network<16>(lane_addrs, lanes);
  } else {
    detail::sort_lanes_network<32>(lane_addrs, lanes);
  }
}

// The coalescing primitive every warp memory instruction is charged
// through (WarpCtx::load_range excepted): sorts the lane
// addresses in place (one pass when they already ascend — the common
// small-stride warp pattern), then a single pass yields the distinct-address count (atomic-conflict serialization), the
// distinct-sector count (transactions) and the ascending (line,
// sector-mask) list. `spl_shift` = log2(sectors per line). `line_out` must
// hold 32 entries.
inline CoalesceResult coalesce_warp_lanes(std::uint64_t* lane_addrs,
                                          std::uint32_t lanes,
                                          std::uint32_t spl_shift,
                                          WarpLineRef* line_out) {
  constexpr std::uint32_t kSectorShift = 5;  // SectoredCache::kSectorBytes
  if (lanes == 1) {
    const std::uint64_t sector = lane_addrs[0] >> kSectorShift;
    line_out[0] = {sector >> spl_shift,
                   1u << (sector & ((1u << spl_shift) - 1))};
    return {1, 1, 1};
  }
  sort_warp_lanes(lane_addrs, lanes);
  CoalesceResult r;
  const std::uint32_t sector_in_line_mask = (1u << spl_shift) - 1;
  std::uint64_t prev_addr = ~0ull;
  std::uint64_t prev_sector = ~0ull;
  std::uint64_t prev_line = ~0ull;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    const std::uint64_t addr = lane_addrs[l];
    if (addr == prev_addr) continue;
    prev_addr = addr;
    ++r.distinct_addrs;
    const std::uint64_t sector = addr >> kSectorShift;
    if (sector == prev_sector) continue;
    prev_sector = sector;
    ++r.sectors;
    const std::uint64_t line = sector >> spl_shift;
    const std::uint32_t bit =
        1u << (static_cast<std::uint32_t>(sector) & sector_in_line_mask);
    if (line == prev_line) {
      line_out[r.lines - 1].mask |= bit;
    } else {
      line_out[r.lines++] = {line, bit};
      prev_line = line;
    }
  }
  return r;
}

// Closed form of coalesce_warp_lanes for the lane addresses first_addr +
// i * elem_bytes, i < lanes (WarpCtx::load_range). With elem_bytes <= 32
// consecutive lanes never skip a sector, so the warp touches every sector
// from the first lane's to the last lane's, and the line list follows from
// those two ends: full masks between them, clipped masks at either end.
inline CoalesceResult coalesce_contiguous_lanes(std::uint64_t first_addr,
                                                std::uint32_t elem_bytes,
                                                std::uint32_t lanes,
                                                std::uint32_t spl_shift,
                                                WarpLineRef* line_out) {
  constexpr std::uint32_t kSectorShift = 5;  // SectoredCache::kSectorBytes
  RDBS_DCHECK(elem_bytes >= 1 && elem_bytes <= (1u << kSectorShift));
  if (lanes == 0) return {};
  const std::uint64_t first_sector = first_addr >> kSectorShift;
  const std::uint64_t last_sector =
      (first_addr + static_cast<std::uint64_t>(lanes - 1) * elem_bytes) >>
      kSectorShift;
  const std::uint32_t spl = 1u << spl_shift;
  const std::uint32_t full = ~0u >> (32 - spl);
  const std::uint64_t first_line = first_sector >> spl_shift;
  const std::uint64_t last_line = last_sector >> spl_shift;
  CoalesceResult r;
  r.distinct_addrs = lanes;
  r.sectors = static_cast<std::uint32_t>(last_sector - first_sector + 1);
  const std::uint32_t first_in_line =
      static_cast<std::uint32_t>(first_sector) & (spl - 1);
  const std::uint32_t last_in_line =
      static_cast<std::uint32_t>(last_sector) & (spl - 1);
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    const std::uint32_t lo = line == first_line ? first_in_line : 0;
    const std::uint32_t hi = line == last_line ? last_in_line : spl - 1;
    line_out[r.lines++] = {line, (full << lo) & (full >> (spl - 1 - hi))};
  }
  return r;
}

class MemorySim {
 public:
  explicit MemorySim(const DeviceSpec& spec);

  // One entry of the allocation table. The bump allocator never reuses
  // addresses, so a freed region keeps its entry with live = false — a
  // later access to its address range is an exact use-after-free.
  // Host-initialization marks (cudaMemcpy/cudaMemset modeling) are kept
  // here rather than in the sanitizer so that engines may mark buffers in
  // their constructors regardless of when (or whether) the sanitizer is
  // enabled on the owning GpuSim.
  struct Region {
    std::uint64_t base = 0;
    std::uint64_t bytes = 0;
    std::uint32_t elem_bytes = 1;
    std::string name;
    bool live = true;
    bool read_only = false;
    bool fully_host_init = false;
    // Set when an uncorrectable injected bit-flip hit this region (gfi);
    // recovery charges a re-upload for poisoned read-only data and clears
    // the mark (see core/recovery.hpp).
    bool poisoned = false;
    // Host-initialized byte ranges [begin, end), absolute addresses,
    // deduplicated on insert (engines re-mark the same seed slot per run).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> host_init;

    std::uint64_t end() const { return base + bytes; }
    std::uint64_t element_of(std::uint64_t addr) const {
      return (addr - base) / (elem_bytes ? elem_bytes : 1);
    }
    bool host_initialized(std::uint64_t begin_addr,
                          std::uint64_t end_addr) const;
  };

  // Reserves a 128-byte-aligned region of the simulated address space and
  // records it in the allocation table.
  std::uint64_t allocate(std::uint64_t bytes, std::string name = {},
                         std::uint32_t elem_bytes = 1);

  // --- allocation-table maintenance (sanitizer support) --------------------
  // Marks the region at `base` dead (simulated cudaFree). Host storage and
  // the address range stay reserved, so stale accesses are detectable.
  void free_region(std::uint64_t base);
  // Marks the region at `base` immutable from device code (e.g. the CSR
  // arrays shared read-only across QueryBatch streams).
  void mark_read_only(std::uint64_t base, bool read_only = true);
  // Records [begin_addr, end_addr) as initialized by a host transfer.
  void mark_host_initialized(std::uint64_t begin_addr, std::uint64_t end_addr);
  // --- fault-injection poison tracking (gfi) -------------------------------
  // Marks the region containing `addr` as hit by an uncorrectable flip.
  void mark_poisoned(std::uint64_t addr);
  // Bytes of live read-only regions currently poisoned: the data a retry
  // must re-upload (mutable buffers are re-initialized by the attempt).
  std::uint64_t poisoned_read_only_bytes() const;
  // Clears every poison mark (after the re-upload has been charged).
  void clear_poison();
  // True when the region containing `addr` is flagged poisoned. Checkpoint
  // snapshots consult this (core/checkpoint.hpp) so a corrupt bound never
  // leaks into a resume.
  bool region_poisoned(std::uint64_t addr) const;
  // Clears one region's mark: a retry attempt re-initializes its mutable
  // buffers from scratch, so their stale poison (which the bulk
  // clear_poison() above only reaches when read-only data was also hit)
  // must not taint the fresh attempt's checkpoints.
  void clear_region_poison(std::uint64_t addr);
  // Region containing `addr`, or nullptr. Regions are base-sorted by
  // construction (bump allocation), so this is a binary search.
  const Region* find_region(std::uint64_t addr) const;
  // Index variant for shadow-state bookkeeping; returns npos when unmapped.
  static constexpr std::size_t kNoRegion = ~static_cast<std::size_t>(0);
  std::size_t find_region_index(std::uint64_t addr) const;
  const std::vector<Region>& regions() const { return regions_; }

  // Direct handles for GpuSim's charge path: each SM's L1 is private
  // state; the L2 is shared and is probed in canonical task order.
  SectoredCache& l1(int sm_id);
  SectoredCache& l2_cache() { return l2_; }

  // log2(sectors per cache line) of the device's caches — the grouping
  // shift coalesce_warp_lanes needs. L1s and the L2 share one line size.
  std::uint32_t spl_shift() const { return spl_shift_; }

  void reset_caches();

 private:
  std::uint64_t next_address_ = 4096;
  std::uint32_t spl_shift_ = 2;
  std::vector<SectoredCache> l1_;
  SectoredCache l2_;
  std::vector<Region> regions_;
};

}  // namespace rdbs::gpusim
