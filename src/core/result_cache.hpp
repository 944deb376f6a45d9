// ResultCache — cross-query result reuse for the serving layer
// (docs/serving.md "Result cache").
//
// At production traffic shapes (Zipf sources; core/traffic.hpp) the same
// sources arrive over and over, yet every query re-runs a full solve. This
// cache sits between QueryServer/QueryBatch and the engines and harvests
// that repetition three ways:
//
//   1. Exact-hit reuse: completed distance vectors are kept keyed on
//      (graph epoch, source) with bounded capacity. A repeat source whose
//      entry is already published on the serving clock is answered as
//      QueryStatus::kCacheHit without touching a lane — zero device time.
//      Which vectors stay is decided by request frequency, TinyLFU-style
//      (Einziger, Friedman and Manes, ACM Trans. Storage 2017): the cache
//      counts requests per source, halving every count once per aging
//      window, and a full cache lets a new result in only when its
//      source is requested more often than the entry it would displace.
//      On a Zipf stream whose hot set outgrows the capacity this keeps
//      the head resident where recency alone lets one-off sources churn
//      it.
//   2. Single-flight sharing: an entry whose publish time is still in the
//      future is a query *in flight* on the simulated timeline. A second
//      query for the same source attaches to it and shares its result when
//      it publishes — including a fault/recovery outcome (kRecovered,
//      kCpuFallback) or an outright failure — so a Zipf hot set never runs
//      the same solve concurrently.
//   3. Landmark warm starts: the first few cached vectors double as
//      landmark distance vectors. On a symmetric graph the triangle
//      inequality gives per-vertex upper bounds
//          dist(s, v) <= dist(L, s) + dist(L, v)
//      which seed the engines' tentative distances
//      (AttemptDriver::set_warm_start).
//      Δ-stepping is label-correcting, so upper-bound seeding preserves
//      exactness (Radius Stepping, arXiv 1602.03881) while shrinking the
//      work the buckets have to do. A finite bound also implies a real
//      s→L→v path, so warm values never mark an unreachable vertex finite.
//
// Time model: every entry carries `publish_ms`, the producer's finish time
// on the serving clock (absolute simulated device time; host-hedged
// results are mapped onto the same axis). A decision at time `now`:
// publish_ms <= now is a hit, publish_ms > now is in flight. This is what
// makes the cache meaningful inside a simulator where dispatch runs
// host-serially: a result that exists in host memory but "hasn't finished
// yet" on the simulated timeline is shared, not served instantly.
//
// Determinism: all state is keyed by vertex id in ordered maps and every
// decision reads only simulated clocks — byte-identical behavior across
// reruns and for any stream count (ci/check_determinism.sh clean).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/csr.hpp"

namespace rdbs::core {

enum class QueryStatus : std::uint8_t;  // core/query_batch.hpp

struct ResultCacheOptions {
  // Master switch read by QueryServer (QueryServerOptions::cache); the
  // cache object itself is only constructed when enabled.
  bool enabled = false;
  // Completed entries retained (>= 1). Landmark vectors are pinned
  // separately and do not count against this.
  std::size_t capacity = 64;
  // Distance vectors retained as warm-start landmarks (0 disables warm
  // starts). Landmark warm starts require a symmetric graph, checked once
  // at construction; exact hits and single-flight sharing work either way.
  std::size_t landmarks = 4;
};

struct ResultCacheStats {
  std::uint64_t lookups = 0;        // lookup() calls
  std::uint64_t hits = 0;           // published entry served
  std::uint64_t inflight_hits = 0;  // lookup_inflight() matches
  std::uint64_t publishes = 0;      // publish() calls
  std::uint64_t evictions = 0;      // entries displaced by a new result
  std::uint64_t rejected = 0;       // new results turned away (cache full)
  std::uint64_t invalidations = 0;  // entries dropped by bump_epoch()
  std::uint64_t warm_starts = 0;    // warm_bounds() calls that produced bounds
};

// One cached outcome. `status` is the producer's terminal status (kOk /
// kRecovered / kCpuFallback, or kFailed with empty distances — failures
// are shared with single-flight waiters until they publish, then expire).
struct CachedResult {
  QueryStatus status;
  double publish_ms = 0;  // absolute serving clock of the producer's finish
  std::vector<graph::Distance> distances;  // original numbering; empty = failed
};

class ResultCache {
 public:
  // Copies nothing from `csr` but the symmetry verdict: one O(m log m)
  // sort-and-compare of the weighted edge multiset against its reverse,
  // the precondition for landmark bounds (same check as core/sep_hybrid).
  ResultCache(const graph::Csr& csr, ResultCacheOptions options = {});

  // --- epochs ---------------------------------------------------------------
  // The graph-content version this cache's entries are valid for. Any
  // mutation of the served graph must bump the epoch, which drops every
  // entry and landmark (they describe the old graph).
  std::uint64_t epoch() const { return epoch_; }
  void bump_epoch();

  // --- request frequency ----------------------------------------------------
  // Counts one request for `source`. The caller counts each offered query
  // once, however often it looks the source up (QueryServer: at every
  // arrival, not at the dispatch-time re-check). Every kAgingWindow x
  // capacity requests all counts are halved and zeros dropped, so a source
  // that was hot once fades. Counts describe the traffic, not the graph:
  // bump_epoch() keeps them.
  void record_request(graph::VertexId source);
  static constexpr std::size_t kAgingWindow = 10;

  // --- the three reuse paths ------------------------------------------------
  // Exact hit: the entry for `source` published at or before `now_ms`.
  // Marks it recently used. Failed entries never hit — once published
  // they expire here (a past failure must not poison future queries).
  // Returns nullptr on miss; the pointer is valid until the next mutating
  // call.
  const CachedResult* lookup(graph::VertexId source, double now_ms);

  // Single-flight: the entry for `source` publishing after `now_ms` — the
  // producer is still in flight on the simulated timeline. The caller
  // decides whether to attach (typically: publish_ms within the waiter's
  // deadline) and shares status + distances verbatim.
  const CachedResult* lookup_inflight(graph::VertexId source, double now_ms);

  // Publishes one terminal outcome at `publish_ms`. Completed statuses
  // carry distances (original numbering); kFailed carries none. When the
  // source already has an entry the earlier publish wins among equals, and
  // a completed result always replaces a failed one. A new source in a
  // full cache needs a victim: failed entries first, then the lowest
  // request count, then the least recently used. A failed victim always
  // goes; a completed one goes only for a completed result whose source
  // has the strictly higher count. Otherwise the new result is not
  // stored (stats().rejected), so it cannot be joined in flight either.
  // Landmarks are pinned in their own store and never evicted.
  void publish(graph::VertexId source, QueryStatus status,
               const std::vector<graph::Distance>& distances,
               double publish_ms);

  // Landmark warm start: fills `out` (original numbering, size n) with the
  // best triangle-inequality upper bound over every landmark already
  // published by `now_ms`, kInfiniteDistance where no bound exists.
  // Returns false — and leaves `out` unspecified — when warm starts are
  // off, the graph is asymmetric, or no published landmark reaches
  // `source`.
  bool warm_bounds(graph::VertexId source, double now_ms,
                   std::vector<graph::Distance>* out);

  // --- introspection --------------------------------------------------------
  bool graph_symmetric() const { return symmetric_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t num_landmarks() const { return landmarks_.size(); }
  bool is_landmark(graph::VertexId source) const {
    return landmarks_.find(source) != landmarks_.end();
  }
  // The aged request count of `source` (0 if never counted or aged out).
  std::uint64_t request_count(graph::VertexId source) const;
  const ResultCacheStats& stats() const { return stats_; }
  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    CachedResult result;
    std::uint64_t last_used = 0;  // recency tick, the eviction tie-break
  };
  struct Landmark {
    double publish_ms = 0;
    std::vector<graph::Distance> distances;
  };

  std::map<graph::VertexId, Entry>::iterator eviction_victim();

  ResultCacheOptions options_;
  graph::VertexId num_vertices_ = 0;
  bool symmetric_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t tick_ = 0;
  // Ordered by vertex id: iteration (eviction scans, aging) is
  // deterministic by construction, never pointer- or hash-ordered.
  std::map<graph::VertexId, Entry> entries_;
  std::map<graph::VertexId, std::uint64_t> requests_;  // zeros dropped
  std::size_t requests_since_aging_ = 0;
  std::map<graph::VertexId, Landmark> landmarks_;
  ResultCacheStats stats_;
};

}  // namespace rdbs::core
