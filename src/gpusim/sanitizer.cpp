#include "gpusim/sanitizer.hpp"

#include <algorithm>

#include "common/macros.hpp"
#include "gpusim/cache.hpp"

namespace rdbs::gpusim {

namespace {

constexpr std::uint64_t kSectorBytes = SectoredCache::kSectorBytes;

// Returns a task from `pair` different from `task`, or kNoTask.
std::uint32_t other_than(std::uint32_t t1, std::uint32_t t2,
                         std::uint32_t task) {
  if (t1 != HazardRecord::kNoTask && t1 != task) return t1;
  if (t2 != HazardRecord::kNoTask && t2 != task) return t2;
  return HazardRecord::kNoTask;
}

}  // namespace

const char* hazard_kind_name(HazardRecord::Kind kind) {
  switch (kind) {
    case HazardRecord::Kind::kOutOfBounds: return "out-of-bounds";
    case HazardRecord::Kind::kUseAfterFree: return "use-after-free";
    case HazardRecord::Kind::kUninitRead: return "uninit-read";
    case HazardRecord::Kind::kRaceWW: return "race-ww";
    case HazardRecord::Kind::kRaceRW: return "race-rw";
    case HazardRecord::Kind::kAtomicMix: return "atomic-mix";
    case HazardRecord::Kind::kReadOnlyWrite: return "read-only-write";
    case HazardRecord::Kind::kCrossStreamRace: return "cross-stream-race";
    case HazardRecord::Kind::kNoProgress: return "no-progress";
  }
  return "unknown";
}

Sanitizer::VectorClock& Sanitizer::clock_for(int stream) {
  const auto index = static_cast<std::size_t>(stream < 0 ? 0 : stream);
  if (stream_clocks_.size() <= index) stream_clocks_.resize(index + 1);
  return stream_clocks_[index];
}

void Sanitizer::join(VectorClock& into, const VectorClock& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

void Sanitizer::begin_launch(std::string_view label, std::uint64_t ordinal,
                             int stream) {
  if (label.empty()) {
    current_kernel_ = "kernel@" + std::to_string(ordinal);
  } else {
    current_kernel_.assign(label);
  }
  launch_stream_ = stream;
  // The async launch happens-after everything the host has observed so far
  // (join), then opens a new epoch on its own stream (tick). Host issue
  // order alone does NOT order two streams: the host clock only advances at
  // sync points (host_sync / host_transfer / host_wait / full_fence).
  VectorClock& clock = clock_for(stream);
  join(clock, host_clock_);
  const auto self = static_cast<std::size_t>(stream < 0 ? 0 : stream);
  if (clock.size() <= self) clock.resize(self + 1, 0);
  ++clock[self];
  launch_vc_ = clock;
  launch_state_.clear();
  launch_addrs_.clear();
  launch_regions_.clear();
  touched_regions_.clear();
  launch_waits_.clear();
}

void Sanitizer::host_sync(int stream) {
  join(host_clock_, clock_for(stream));
}

void Sanitizer::host_transfer(int stream) {
  VectorClock& clock = clock_for(stream);
  join(clock, host_clock_);
  join(host_clock_, clock);
}

void Sanitizer::host_wait(int stream) {
  VectorClock& clock = clock_for(stream);
  join(clock, host_clock_);
  join(host_clock_, clock);
}

void Sanitizer::full_fence() {
  for (VectorClock& clock : stream_clocks_) join(host_clock_, clock);
  for (VectorClock& clock : stream_clocks_) join(clock, host_clock_);
}

void Sanitizer::stream_stall(int stream) {
  VectorClock& clock = clock_for(stream);
  const auto self = static_cast<std::size_t>(stream < 0 ? 0 : stream);
  if (clock.size() <= self) clock.resize(self + 1, 0);
  ++clock[self];
}

void Sanitizer::note_wait(std::uint32_t task, std::uint64_t addr) {
  launch_waits_.push_back(PendingWait{task, addr});
}

void Sanitizer::report_hazard(HazardRecord::Kind kind,
                              const std::string& buffer, std::uint64_t element,
                              std::uint32_t first_task,
                              std::uint32_t second_task, int first_stream,
                              int second_stream) {
  std::string key;
  key.reserve(current_kernel_.size() + buffer.size() + 32);
  key += static_cast<char>('0' + static_cast<int>(kind));
  key += '|';
  key += current_kernel_;
  key += '|';
  key += buffer;
  key += '|';
  key += std::to_string(element);
  key += '|';
  key += std::to_string(first_stream);
  key += '|';
  key += std::to_string(second_stream);
  const auto [it, inserted] = dedup_.emplace(std::move(key), hazards_.size());
  if (!inserted) {
    ++hazards_[it->second].count;
    return;
  }
  HazardRecord record;
  record.kind = kind;
  record.kernel = current_kernel_;
  record.buffer = buffer;
  record.element = element;
  record.first_task = first_task;
  record.second_task = second_task;
  record.first_stream = first_stream;
  record.second_stream = second_stream;
  hazards_.push_back(std::move(record));
}

std::uint64_t Sanitizer::checked_index(const std::string& buffer_name,
                                       std::uint64_t index,
                                       std::uint64_t size,
                                       std::uint32_t task) {
  if (index < size) return index;
  report_hazard(HazardRecord::Kind::kOutOfBounds, buffer_name, index, task,
                HazardRecord::kNoTask);
  return size == 0 ? 0 : size - 1;
}

std::vector<std::uint64_t>& Sanitizer::shadow_for(std::size_t region_index) {
  if (shadow_.size() <= region_index) shadow_.resize(region_index + 1);
  std::vector<std::uint64_t>& bits = shadow_[region_index];
  if (bits.empty()) {
    const std::uint64_t sectors =
        (memory_->regions()[region_index].bytes + kSectorBytes - 1) /
        kSectorBytes;
    bits.assign(static_cast<std::size_t>((sectors + 63) / 64), 0);
  }
  return bits;
}

void Sanitizer::races_for_address(std::uint64_t addr,
                                  const AddressState& state) {
  // Only plain stores create hazards; see header. The pairs hold the first
  // two distinct tasks per kind group in canonical order, which is enough
  // to always exhibit one cross-task pair when it exists.
  const TaskPair& ps = state.plain_store;
  if (ps.t1 == HazardRecord::kNoTask) return;
  const MemorySim::Region* region = memory_->find_region(addr);
  static const std::string kUnknown = "?";
  const std::string& buffer = region ? region->name : kUnknown;
  const std::uint64_t element = region ? region->element_of(addr) : addr;
  if (ps.t2 != HazardRecord::kNoTask) {
    report_hazard(HazardRecord::Kind::kRaceWW, buffer, element, ps.t1, ps.t2);
  }
  const std::uint32_t loader = other_than(state.plain_load.t1,
                                          state.plain_load.t2, ps.t1);
  if (loader != HazardRecord::kNoTask) {
    report_hazard(HazardRecord::Kind::kRaceRW, buffer, element, ps.t1, loader);
  }
  const std::uint32_t synced = other_than(state.synced.t1, state.synced.t2,
                                          ps.t1);
  if (synced != HazardRecord::kNoTask) {
    report_hazard(HazardRecord::Kind::kAtomicMix, buffer, element, ps.t1,
                  synced);
  }
}

void Sanitizer::cross_stream_scan() {
  const auto self = static_cast<std::size_t>(
      launch_stream_ < 0 ? 0 : launch_stream_);
  // A prior access on stream T at epoch c is ordered before this launch iff
  // the launch's clock has seen it (launch_vc_[T] >= c); a newer epoch is
  // concurrent. Same-stream accesses are always ordered (program order).
  const auto unordered = [&](const std::vector<StreamEpoch>& epochs,
                             std::size_t t) {
    if (t == self || t >= epochs.size() || epochs[t].clock == 0) return false;
    const std::uint32_t seen =
        t < launch_vc_.size() ? launch_vc_[t] : 0;
    return epochs[t].clock > seen;
  };
  for (const std::size_t region_index : touched_regions_) {
    const RegionUse& use = launch_regions_[region_index];
    RegionEpochs& eps = epochs_[region_index];
    const std::string& name = memory_->regions()[region_index].name;
    const std::size_t streams = std::max(
        {eps.writes.size(), eps.reads.size(), eps.syncs.size()});
    for (std::size_t t = 0; t < streams; ++t) {
      if (t == self) continue;
      // Conflicts require a plain write on one side; atomics and volatiles
      // pair safely with each other across streams, as within a launch.
      if (use.plain_write) {
        if (unordered(eps.writes, t)) {
          report_hazard(HazardRecord::Kind::kCrossStreamRace, name,
                        use.write_elem, HazardRecord::kNoTask,
                        HazardRecord::kNoTask, static_cast<int>(t),
                        launch_stream_);
        }
        if (unordered(eps.reads, t)) {
          report_hazard(HazardRecord::Kind::kCrossStreamRace, name,
                        use.write_elem, HazardRecord::kNoTask,
                        HazardRecord::kNoTask, static_cast<int>(t),
                        launch_stream_);
        }
        if (unordered(eps.syncs, t)) {
          report_hazard(HazardRecord::Kind::kCrossStreamRace, name,
                        use.write_elem, HazardRecord::kNoTask,
                        HazardRecord::kNoTask, static_cast<int>(t),
                        launch_stream_);
        }
      }
      if (use.plain_read && unordered(eps.writes, t)) {
        report_hazard(HazardRecord::Kind::kCrossStreamRace, name,
                      use.read_elem, HazardRecord::kNoTask,
                      HazardRecord::kNoTask, static_cast<int>(t),
                      launch_stream_);
      }
      if (use.has_sync && unordered(eps.writes, t)) {
        report_hazard(HazardRecord::Kind::kCrossStreamRace, name,
                      use.sync_elem, HazardRecord::kNoTask,
                      HazardRecord::kNoTask, static_cast<int>(t),
                      launch_stream_);
      }
    }
    // Fold this launch into the epoch shadow (after the checks: a launch
    // does not race with itself).
    const std::uint32_t epoch =
        self < launch_vc_.size() ? launch_vc_[self] : 0;
    const auto touch = [&](std::vector<StreamEpoch>& epochs,
                           std::uint64_t element) {
      if (epochs.size() <= self) epochs.resize(self + 1);
      epochs[self].clock = epoch;
      epochs[self].element = element;
    };
    if (use.plain_write) touch(eps.writes, use.write_elem);
    if (use.plain_read) touch(eps.reads, use.read_elem);
    if (use.has_sync) touch(eps.syncs, use.sync_elem);
  }
}

void Sanitizer::check_no_progress() {
  static const std::string kUnknown = "?";
  for (const PendingWait& wait : launch_waits_) {
    const std::size_t region_index = memory_->find_region_index(wait.addr);
    if (region_index == MemorySim::kNoRegion) {
      report_hazard(HazardRecord::Kind::kNoProgress, kUnknown, wait.addr,
                    wait.task, HazardRecord::kNoTask, launch_stream_);
      continue;
    }
    const MemorySim::Region& region = memory_->regions()[region_index];
    const std::uint64_t element = region.element_of(wait.addr);
    const std::uint64_t end_addr =
        std::min(wait.addr + region.elem_bytes, region.end());
    if (region.host_initialized(wait.addr, end_addr)) continue;
    // Satisfied iff some device write — this launch's (check_op already set
    // its shadow bits), any earlier launch's on any stream, or a host
    // transfer above — has touched the waited-on sector.
    // Functional execution is host-serial, so every value a spin consumes
    // was produced by now; an untouched sector can never wake the waiter.
    std::vector<std::uint64_t>& bits = shadow_for(region_index);
    bool written = true;
    for (std::uint64_t s = (wait.addr - region.base) / kSectorBytes;
         s <= (end_addr - 1 - region.base) / kSectorBytes; ++s) {
      if (!(bits[static_cast<std::size_t>(s / 64)] & (1ull << (s % 64)))) {
        written = false;
        break;
      }
    }
    if (!written) {
      report_hazard(HazardRecord::Kind::kNoProgress, region.name, element,
                    wait.task, HazardRecord::kNoTask, launch_stream_);
    }
  }
  launch_waits_.clear();
}

void Sanitizer::check_op(std::uint32_t task, std::uint8_t kind,
                         std::uint32_t lanes, const std::uint64_t* addrs) {
  const bool write = MemOp::kind_is_write(kind);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    const std::uint64_t addr = addrs[l];
    const std::size_t region_index = memory_->find_region_index(addr);
    if (region_index == MemorySim::kNoRegion) continue;
    const MemorySim::Region& region = memory_->regions()[region_index];
    const std::uint64_t element = region.element_of(addr);
    if (!region.live) {
      report_hazard(HazardRecord::Kind::kUseAfterFree, region.name, element,
                    task, HazardRecord::kNoTask);
    }
    const std::uint64_t end_addr =
        std::min(addr + region.elem_bytes, region.end());

    if (write) {
      if (region.read_only) {
        report_hazard(HazardRecord::Kind::kReadOnlyWrite, region.name,
                      element, task, HazardRecord::kNoTask);
      }
      std::vector<std::uint64_t>& bits = shadow_for(region_index);
      for (std::uint64_t s = (addr - region.base) / kSectorBytes;
           s <= (end_addr - 1 - region.base) / kSectorBytes; ++s) {
        bits[static_cast<std::size_t>(s / 64)] |= 1ull << (s % 64);
      }
    } else if (!region.host_initialized(addr, end_addr)) {
      std::vector<std::uint64_t>& bits = shadow_for(region_index);
      for (std::uint64_t s = (addr - region.base) / kSectorBytes;
           s <= (end_addr - 1 - region.base) / kSectorBytes; ++s) {
        if (!(bits[static_cast<std::size_t>(s / 64)] & (1ull << (s % 64)))) {
          report_hazard(HazardRecord::Kind::kUninitRead, region.name, element,
                        task, HazardRecord::kNoTask);
          break;
        }
      }
    }

    // Race bookkeeping. Atomics and volatile accesses group together: they
    // are safe against each other, hazardous against plain stores.
    const auto [state, first_touch] = launch_state_.try_emplace(addr);
    if (first_touch) launch_addrs_.push_back(addr);
    if (kind == MemOp::kStore) {
      state->second.plain_store.add(task);
    } else if (kind == MemOp::kLoad) {
      state->second.plain_load.add(task);
    } else {
      state->second.synced.add(task);
    }

    // Cross-stream epoch bookkeeping (buffer granularity). Read-only regions
    // cannot race (writes to them are already flagged above); freed regions
    // are covered by the use-after-free report.
    if (region.live && !region.read_only) {
      const auto [entry, first_use] = launch_regions_.try_emplace(region_index);
      if (first_use) touched_regions_.push_back(region_index);
      RegionUse& use = entry->second;
      if (kind == MemOp::kStore) {
        if (!use.plain_write) {
          use.plain_write = true;
          use.write_elem = element;
        }
      } else if (kind == MemOp::kLoad) {
        if (!use.plain_read) {
          use.plain_read = true;
          use.read_elem = element;
        }
      } else if (!use.has_sync) {
        use.has_sync = true;
        use.sync_elem = element;
      }
    }
  }
}

void Sanitizer::end_launch() {
  for (const std::uint64_t addr : launch_addrs_) {
    races_for_address(addr, launch_state_[addr]);
  }
  cross_stream_scan();
  check_no_progress();
}

std::string Sanitizer::report() const {
  std::string out;
  for (const HazardRecord& hazard : hazards_) {
    out += "[gsan] ";
    out += hazard_kind_name(hazard.kind);
    out += ": kernel=";
    out += hazard.kernel;
    out += " buffer=";
    out += hazard.buffer;
    out += " elem=";
    out += std::to_string(hazard.element);
    if (hazard.first_stream != HazardRecord::kNoStream) {
      out += " stream=";
      out += std::to_string(hazard.first_stream);
      if (hazard.second_stream != HazardRecord::kNoStream) {
        out += '/';
        out += std::to_string(hazard.second_stream);
      }
    }
    if (hazard.first_task != HazardRecord::kNoTask) {
      out += " warp=";
      out += std::to_string(hazard.first_task);
      if (hazard.second_task != HazardRecord::kNoTask) {
        out += '/';
        out += std::to_string(hazard.second_task);
      }
    }
    if (hazard.count > 1) {
      out += " x";
      out += std::to_string(hazard.count);
    }
    out += '\n';
  }
  return out;
}

void Sanitizer::clear() {
  hazards_.clear();
  dedup_.clear();
}

}  // namespace rdbs::gpusim
