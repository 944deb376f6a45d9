#include "core/result_cache.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "common/macros.hpp"
#include "core/query_batch.hpp"
#include "graph/stats.hpp"

namespace rdbs::core {

using graph::Distance;
using graph::VertexId;

ResultCache::ResultCache(const graph::Csr& csr, ResultCacheOptions options)
    : options_(options),
      num_vertices_(csr.num_vertices()),
      // Landmark bounds need dist(L, s) == dist(s, L).
      symmetric_(graph::is_symmetric(csr)) {
  RDBS_CHECK(options_.capacity >= 1);
}

void ResultCache::bump_epoch() {
  ++epoch_;
  stats_.invalidations += entries_.size() + landmarks_.size();
  entries_.clear();
  landmarks_.clear();
}

void ResultCache::record_request(VertexId source) {
  ++requests_[source];
  if (++requests_since_aging_ < kAgingWindow * options_.capacity) return;
  requests_since_aging_ = 0;
  for (auto it = requests_.begin(); it != requests_.end();) {
    it->second /= 2;
    it = it->second == 0 ? requests_.erase(it) : std::next(it);
  }
}

std::uint64_t ResultCache::request_count(VertexId source) const {
  const auto it = requests_.find(source);
  return it == requests_.end() ? 0 : it->second;
}

const CachedResult* ResultCache::lookup(VertexId source, double now_ms) {
  ++stats_.lookups;
  const auto it = entries_.find(source);
  if (it == entries_.end()) return nullptr;
  if (it->second.result.publish_ms > now_ms) return nullptr;  // in flight
  if (it->second.result.status == QueryStatus::kFailed) {
    // A published failure must not poison future queries: expire it so the
    // next identical source runs a fresh solve.
    entries_.erase(it);
    return nullptr;
  }
  it->second.last_used = ++tick_;
  ++stats_.hits;
  return &it->second.result;
}

const CachedResult* ResultCache::lookup_inflight(VertexId source,
                                                 double now_ms) {
  const auto it = entries_.find(source);
  if (it == entries_.end()) return nullptr;
  if (it->second.result.publish_ms <= now_ms) return nullptr;  // published
  it->second.last_used = ++tick_;
  ++stats_.inflight_hits;
  return &it->second.result;
}

void ResultCache::publish(VertexId source, QueryStatus status,
                          const std::vector<Distance>& distances,
                          double publish_ms) {
  const bool failed = status == QueryStatus::kFailed;
  RDBS_CHECK(failed || distances.size() == num_vertices_);
  ++stats_.publishes;

  const auto it = entries_.find(source);
  if (it != entries_.end()) {
    // Same (epoch, source) ⇒ same distances (determinism), so the only
    // question is which publish to keep: a completed result always beats a
    // failed one, and among equals the earlier publish wins (it becomes
    // servable sooner).
    const bool existing_failed =
        it->second.result.status == QueryStatus::kFailed;
    const bool replace = (existing_failed && !failed) ||
                         (existing_failed == failed &&
                          publish_ms < it->second.result.publish_ms);
    if (!replace) return;
    it->second.result.status = status;
    it->second.result.publish_ms = publish_ms;
    it->second.result.distances = failed ? std::vector<Distance>{} : distances;
    it->second.last_used = ++tick_;
    return;
  }

  bool admit = true;
  if (entries_.size() >= options_.capacity) {
    const auto victim = eviction_victim();
    admit = victim->second.result.status == QueryStatus::kFailed ||
            (!failed && request_count(source) > request_count(victim->first));
    if (admit) {
      entries_.erase(victim);
      ++stats_.evictions;
    } else {
      ++stats_.rejected;
    }
  }
  if (admit) {
    Entry entry;
    entry.result.status = status;
    entry.result.publish_ms = publish_ms;
    if (!failed) entry.result.distances = distances;
    entry.last_used = ++tick_;
    entries_.emplace(source, std::move(entry));
  }

  // The first `landmarks` distinct completed sources double as warm-start
  // landmark vectors, pinned in their own store whether or not the entry
  // was admitted (deterministic choice: publish order, which is itself
  // deterministic).
  if (!failed && landmarks_.size() < options_.landmarks &&
      landmarks_.find(source) == landmarks_.end()) {
    landmarks_.emplace(source, Landmark{publish_ms, distances});
  }
}

std::map<VertexId, ResultCache::Entry>::iterator
ResultCache::eviction_victim() {
  // Failed (transient, single-flight-only) entries first, then the lowest
  // request count, then the least recently used (ticks are distinct, so
  // the scan order never decides).
  const auto key = [&](const auto& it) {
    return std::make_tuple(it->second.result.status != QueryStatus::kFailed,
                           request_count(it->first), it->second.last_used);
  };
  auto victim = entries_.begin();
  for (auto it = std::next(victim); it != entries_.end(); ++it) {
    if (key(it) < key(victim)) victim = it;
  }
  return victim;
}

bool ResultCache::warm_bounds(VertexId source, double now_ms,
                              std::vector<Distance>* out) {
  if (!symmetric_ || landmarks_.empty()) return false;
  RDBS_CHECK(source < num_vertices_);
  bool any = false;
  for (const auto& [lm, landmark] : landmarks_) {
    if (landmark.publish_ms > now_ms) continue;  // not finished yet
    const Distance to_source = landmark.distances[source];
    if (to_source == graph::kInfiniteDistance) continue;
    if (!any) {
      out->assign(num_vertices_, graph::kInfiniteDistance);
      any = true;
    }
    for (VertexId v = 0; v < num_vertices_; ++v) {
      const Distance to_v = landmark.distances[v];
      if (to_v == graph::kInfiniteDistance) continue;
      (*out)[v] = std::min((*out)[v], to_source + to_v);
    }
  }
  if (any) {
    // The bound for the source itself is 2 * dist(L, s) >= 0; the engines
    // keep the exact 0 regardless, but pin it here too for cleanliness.
    (*out)[source] = 0;
    ++stats_.warm_starts;
  }
  return any;
}

}  // namespace rdbs::core
