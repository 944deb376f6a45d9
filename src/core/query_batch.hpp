// QueryBatch — the lane pool that core::QueryServer drives.
//
// Multi-source queries against one resident graph: the Csr (+ PRO
// reordering, done once) is uploaded to one shared simulator, and each of
// a fixed set of concurrent gpusim streams holds one persistent engine
// whose frontier/bucket/distance buffers are pooled across the queries it
// serves. The read-only CSR arrays are shared by every lane, so one
// query's cache residency benefits the next (shared caching).
//
// Dispatch lives in QueryServer::run_stream: a batch is a schedule whose
// arrivals are all at t=0 (batch_schedule in core/traffic.hpp), and an
// unbounded query takes the earliest-free lane (pick_lane, ties to the
// lowest stream id) — the classic m-machine FCFS dispatch. Kernel-level
// overlap and the device's concurrent-kernel cap are modeled inside gpusim
// (see gpusim/sim.hpp).
//
// Determinism: lane selection and engine execution are host-serial, so the
// distances of a batch are bit-identical to the same queries run one at a
// time on a fresh engine, across reruns and for any stream count —
// streams repartition simulated *time*, never functional state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/adds.hpp"
#include "core/cancel.hpp"
#include "core/gpu_sssp.hpp"
#include "core/options.hpp"
#include "core/result_cache.hpp"
#include "core/run_metrics.hpp"
#include "gpusim/sim.hpp"
#include "graph/csr.hpp"
#include "reorder/pro.hpp"

namespace rdbs::core {

enum class BatchEngine {
  kRdbs,  // GpuDeltaStepping under QueryBatchOptions::gpu (PRO honored)
  kAdds,  // AddsLike comparator; its Near/Far increment is gpu.delta0
};

struct QueryBatchOptions {
  int streams = 4;  // concurrent query lanes (>= 1)
  BatchEngine engine = BatchEngine::kRdbs;
  // Lane engine configuration. Its EngineOptions block configures the
  // shared simulator; ADDS lanes take delta0 and the block (with its
  // checkpoint_interval), and ignore the RDBS switches.
  GpuSsspOptions gpu;
};

// Smoothing factor of the per-lane device-cost EWMA that feeds the serving
// layer's admission control (lane_cost_estimate_ms): estimate <- alpha *
// observed + (1 - alpha) * estimate, updated only by successful device
// queries. Seeded by a degree-sum estimate (cost_seed_ms).
inline constexpr double kLaneCostEwmaAlpha = 0.3;

// Per-query outcome. A served schedule never aborts on one bad query: an
// invalid source or an engine throw is recorded as kFailed on that query
// alone, and fault recovery (gfi) is surfaced per query.
enum class QueryStatus : std::uint8_t {
  kOk,                // clean run (benign faults at most)
  kRecovered,         // device run succeeded after >= 1 retry
  kCpuFallback,       // degraded to the host Dijkstra reference
  kFailed,            // no distances: invalid source or engine error
  // Serving-layer outcomes (core::QueryServer; docs/serving.md):
  kDeadlineExceeded,  // cancelled cooperatively after its deadline passed
  kShedded,           // rejected up front by admission control (no device
                      // time was spent on it)
  kCacheHit,          // answered from the result cache — exact distances,
                      // no lane touched (core/result_cache.hpp)
};

inline constexpr std::size_t kNumQueryStatuses =
    static_cast<std::size_t>(QueryStatus::kCacheHit) + 1;

// Human-readable status label (tool/bench output).
const char* query_status_name(QueryStatus status);

// The statuses that deliver exact distances to the caller.
inline bool query_completed(QueryStatus status) {
  return status == QueryStatus::kOk || status == QueryStatus::kRecovered ||
         status == QueryStatus::kCpuFallback ||
         status == QueryStatus::kCacheHit;
}

// Per-query scheduling summary (the query's full GpuRunResult travels
// beside it).
struct QueryStats {
  VertexId source = 0;               // in the caller's original numbering
  gpusim::StreamId stream = 0;       // lane the query ran on
  double device_ms = 0;              // query latency on its stream
  double queue_wait_ms = 0;          // time queued behind the kernel cap
  QueryStatus status = QueryStatus::kOk;
  std::string error;                 // non-empty only when status == kFailed
  // The run was seeded with landmark upper bounds from the result cache.
  // Warm runs cost less device time than cold ones, so they are excluded
  // from the lane cost EWMA (which must keep predicting COLD cost for the
  // load shedder).
  bool warm_started = false;
  // The run resumed from another lane's checkpoint after a mid-query
  // migration (docs/serving.md "Checkpoint-resume & lane migration").
  // EWMA-excluded like warm starts — it finishes a partially solved query,
  // so it is systematically cheaper than a cold solve.
  bool migrated = false;
};

class QueryBatch {
 public:
  // Copies `csr` (reordering it once when options.gpu.pro is set and the
  // engine is kRdbs), uploads it to a shared simulator, and builds one
  // pooled engine per stream lane.
  QueryBatch(const graph::Csr& csr, gpusim::DeviceSpec device,
             QueryBatchOptions options = {});
  ~QueryBatch();

  // One query run on one lane, under the caller's scheduling decision and
  // optional cancel token: permuted-source mapping, exception isolation,
  // status classification and the EWMA update. The source and the result's
  // distances are in the ORIGINAL numbering; stats.stream is the lane's
  // stream even for a failed query. Lanes, buffers and cache state persist
  // across calls.
  struct LaneOutcome {
    GpuRunResult result;
    QueryStats stats;
    // The engine's last good snapshot, harvested when the query FAILED on
    // the lane (empty otherwise): the serving layer's raw material for
    // mid-query migration. Bounds are in the ENGINE numbering — valid to
    // resume on any lane of this batch, which all share it.
    QueryCheckpoint checkpoint;
  };
  LaneOutcome run_on_lane(int lane, VertexId source,
                          const CancelToken* cancel = nullptr);
  // Mid-query lane migration (docs/serving.md): re-runs `source` on `lane`
  // seeded from `checkpoint` (produced by a failed run on another lane of
  // this batch). The host-side snapshot staging is charged to the
  // destination stream like the PCIe copy it models; the re-seed H2D is
  // charged by the engine's warm-start path. The outcome carries
  // stats.migrated and is excluded from the lane cost EWMA.
  LaneOutcome run_migrated_on_lane(int lane, VertexId source,
                                   const CancelToken* cancel,
                                   const QueryCheckpoint& checkpoint);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  gpusim::StreamId lane_stream(int lane) const;
  // The lane's simulated stream clock (when its last work finishes).
  double lane_clock_ms(int lane) const;
  // EWMA of recent successful device-query cost on this lane: the serving
  // layer's completion-time estimate. Never zero — seeded by cost_seed_ms()
  // and updated only by queries that actually produced device distances
  // (kOk / kRecovered), so a run of failures cannot zero it out.
  double lane_cost_estimate_ms(int lane) const;
  // The degree-sum a-priori estimate the EWMAs start from (deliberately
  // coarse: one pass over n + m at the device's aggregate issue rate).
  double cost_seed_ms() const { return cost_seed_ms_; }
  // Predicted completion time of a query dispatched to `lane` no earlier
  // than `not_before_ms` (absolute device clock): the lane frees, then one
  // EWMA-estimated query runs. The serving layer's deadline-aware picker
  // and load shedder both read this.
  double lane_predicted_completion_ms(int lane, double not_before_ms) const;
  // Earliest-available lane (ties to the lowest stream id) among those with
  // eligible[lane] != 0; null = all lanes eligible. -1 when none is.
  int pick_lane(const std::vector<std::uint8_t>* eligible = nullptr) const;
  // Deadline-aware variant: the eligible lane with the smallest predicted
  // completion (lane_predicted_completion_ms at `not_before_ms`), ties to
  // the lowest stream id. For an urgent query this is the lane that gets
  // the answer out soonest — NOT necessarily the earliest-free one, when
  // lane cost histories have drifted apart (faults, half-open decay).
  int pick_lane_fastest(double not_before_ms,
                        const std::vector<std::uint8_t>* eligible =
                            nullptr) const;
  // One decay step of the lane's cost EWMA toward the degree-sum seed:
  // ewma += blend * (seed - ewma). The serving layer applies it when a
  // breaker goes half-open — the lane idled through a cool-down, so its
  // last observations are stale. Decaying toward the SEED (never toward
  // zero) means an idle lane with no completed queries keeps a sane
  // nonzero estimate forever (regression tests in test_query_server.cpp).
  void decay_lane_cost_estimate(int lane, double blend);

  gpusim::GpuSim& sim() { return *sim_; }

  // Attaches a result cache (caller-owned, typically QueryServer's;
  // docs/serving.md "Result cache"). While attached, run_on_lane() seeds
  // dispatched queries with landmark warm bounds (mapped through the PRO
  // permutation) and publishes every terminal outcome — completed
  // distances and failures alike — at the lane's finish time for exact-hit
  // reuse and single-flight sharing. nullptr detaches.
  void set_result_cache(ResultCache* cache) { cache_ = cache; }

 private:
  // One stream and its persistent engine (pooled buffers across queries).
  struct Lane {
    gpusim::StreamId stream = 0;
    std::unique_ptr<GpuEngine> engine;
    // The engine's query contract (cancel token, warm start, resume bounds,
    // checkpoint).
    AttemptDriver* driver = nullptr;
    double ewma_ms = 0;  // admission-control cost estimate (seeded in ctor)
  };

  // Shared body of run_on_lane / run_migrated_on_lane; `resume` non-null
  // seeds the run from that checkpoint instead of the result cache.
  LaneOutcome run_lane_query(int lane, VertexId source,
                             const CancelToken* cancel,
                             const QueryCheckpoint* resume);

  double cost_seed_ms_ = 0;
  reorder::ProFrontEnd graph_;  // the engine-facing CSR and numbering map
  std::unique_ptr<gpusim::GpuSim> sim_;
  std::unique_ptr<DeviceCsrBuffers> graph_bufs_;
  std::vector<Lane> lanes_;
  ResultCache* cache_ = nullptr;  // caller-owned; null = no caching
  // Warm-bound scratch in the caller's numbering: a member so the pointer
  // handed to the engine stays valid across its retry attempts.
  std::vector<graph::Distance> warm_bounds_;
};

}  // namespace rdbs::core
