// Set-associative, sectored L1 cache model.
//
// Tags are kept at cache-line granularity (128B) with a per-sector valid
// mask (4 x 32B sectors per line), matching how Volta's unified L1 counts
// the nvprof `global_hit_rate` metric: a probe hits iff the 32B sector is
// present. Replacement is LRU within a set. Fully deterministic.
//
// Two probe entry points:
//   access(address)          — one sector, the original scalar probe.
//   access_line(line, mask)  — every requested sector of ONE line in a
//     single tag lookup. Bit-for-bit equivalent to probing the sectors of
//     `mask` in ascending order through access(): the LRU victim choice
//     depends only on the other lines' stamps (unchanged during the
//     batch), the final stamp equals the final tick either way, and the
//     hit mask is computed against the pre-probe sector mask. The charge
//     path coalesces warp accesses into (line, sector-mask) pairs, so this
//     amortizes the per-set way scan over up to sectors-per-line probes.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace rdbs::gpusim {

class SectoredCache {
 public:
  // capacity_bytes / line_bytes lines, organized into `ways`-way sets.
  SectoredCache(std::size_t capacity_bytes, int line_bytes, int ways);

  // Probes the sector containing `address`. On miss, fills the sector
  // (allocating / evicting a line as needed). Returns true on hit.
  bool access(std::uint64_t address) {
    const std::uint64_t line_addr = line_of(address);
    const auto sector = static_cast<std::uint32_t>(
        (address >> kSectorShift) &
        static_cast<std::uint64_t>(sectors_per_line_ - 1));
    return access_line(line_addr, 1u << sector) != 0;
  }

  // Probes the sectors of `mask` (bit i = sector i) within the line with
  // index `line_addr` (= address / line_bytes). Returns the mask of sectors
  // that hit; misses are filled. See header comment for the equivalence to
  // per-sector access() calls. Defined inline: this is the innermost loop
  // of the simulator's charge path (tens of millions of probes per engine
  // run).
  std::uint32_t access_line(std::uint64_t line_addr, std::uint32_t mask) {
    const std::size_t set = set_of_line(line_addr);
    const std::size_t base = set * static_cast<std::size_t>(ways_);
    std::uint64_t* tags = tags_.data() + base;
    tick_ += static_cast<std::uint64_t>(std::popcount(mask));

    // Hit path: tag present; sectors of `mask` already valid are hits, the
    // rest fill within the resident line. The tag scan walks a contiguous
    // 8B-per-way array (a 16-way set is two host cache lines), touching the
    // mask/stamp columns only for the one way that hits.
    for (int w = 0; w < ways_; ++w) {
      if (tags[w] == line_addr) {
        const std::size_t slot = base + static_cast<std::size_t>(w);
        const std::uint32_t hits = sector_masks_[slot] & mask;
        sector_masks_[slot] |= mask;
        lru_stamps_[slot] = tick_;
        return hits;
      }
    }

    // Miss: evict the LRU way and fill just the requested sectors.
    const std::uint64_t* stamps = lru_stamps_.data() + base;
    int victim = 0;
    for (int w = 1; w < ways_; ++w) {
      if (stamps[w] < stamps[victim]) victim = w;
    }
    const std::size_t slot = base + static_cast<std::size_t>(victim);
    tags_[slot] = line_addr;
    sector_masks_[slot] = mask;
    lru_stamps_[slot] = tick_;
    return 0;
  }

  void reset();

  std::uint64_t line_of(std::uint64_t address) const {
    return address >> line_shift_;
  }
  std::size_t num_sets() const { return num_sets_; }
  // The set a line maps to.
  std::size_t set_of_line(std::uint64_t line_addr) const {
    if (sets_pow2_) {
      return static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
    }
    return static_cast<std::size_t>(line_addr) % num_sets_;
  }

  static constexpr int kSectorBytes = 32;
  static constexpr int kSectorShift = 5;

 private:
  int line_bytes_;
  int ways_;
  std::size_t num_sets_;
  int sectors_per_line_;
  int line_shift_;       // log2(line_bytes); line size must be a power of 2
  bool sets_pow2_;       // num_sets is a power of 2 (L1 yes; V100 L2 no)
  std::uint64_t tick_ = 0;
  // Structure-of-arrays line metadata, num_sets_ * ways_ entries each,
  // set-major. Split by column so the hit-path tag scan streams through
  // contiguous tags without dragging masks and stamps into the host cache —
  // with tens of millions of probes against a megabyte-scale L2 table, the
  // layout is worth ~20% of charge-path wall time. An empty way carries tag
  // ~0ull (no valid line index reaches it: addresses are < 2^63).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> sector_masks_;  // which sectors are present
  std::vector<std::uint64_t> lru_stamps_;
};

}  // namespace rdbs::gpusim
