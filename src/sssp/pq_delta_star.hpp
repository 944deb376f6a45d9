// PQ-Δ* — CPU comparator (paper Table 2), modeled on Dong et al.'s stepping
// framework (SPAA'21): a Lazy-Batched Priority Queue (LAB-PQ) feeds
// Δ*-stepping. The queue keeps an unordered active pool; each step lazily
// extracts the batch of vertices within Δ* of the current minimum tentative
// distance and relaxes them. The paper ran it on 26 cores; here it runs on
// one host thread, so its work counters are the same on every run. Stale
// pool entries are discarded on extraction rather than eagerly decreased —
// the "lazy" in LAB-PQ.
#pragma once

#include "sssp/result.hpp"

namespace rdbs::sssp {

struct PqDeltaStarOptions {
  // Initial batch window; adapted each step toward target_batch vertices
  // (Δ*-stepping's self-tuning rule).
  Weight delta_star = 1.0;
  std::size_t target_batch = 2048;
};

SsspResult pq_delta_star(const Csr& csr, VertexId source,
                         const PqDeltaStarOptions& options = {});

}  // namespace rdbs::sssp
