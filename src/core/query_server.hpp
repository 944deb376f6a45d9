// QueryServer — the overload-safe query dispatcher over QueryBatch's lanes.
//
// A QueryBatch lane runs any query it is given to completion, however
// loaded or degraded the device is. QueryServer decides which query runs on
// which lane and when, with the four mechanisms any accelerator-serving
// stack puts in front of bounded tail latency (docs/serving.md):
//
//   1. Per-query deadlines: each query carries a deadline on the simulated
//      clock. Engines cancel cooperatively (core/cancel.hpp) at bucket /
//      iteration boundaries, so an over-deadline query stops charging
//      device time and is reported as QueryStatus::kDeadlineExceeded with
//      partial metrics — never late distances.
//   2. Admission control: a bounded pending queue (priority class, then
//      earliest deadline) with load shedding — when the per-lane EWMA cost
//      estimate (QueryBatch::lane_cost_estimate_ms) says the deadline
//      cannot be met, the query is rejected up front as kShedded instead of
//      wasting device time.
//   3. Per-lane circuit breakers: consecutive gfi fault/timeout outcomes on
//      a lane trip it open; open lanes are routed around, then probed
//      half-open after a simulated cool-down, so a degraded lane costs
//      capacity instead of poisoning the whole batch.
//   4. Degraded-mode hedging: a query whose deadline is infeasible on the
//      device but feasible on the host is served by the CPU Dijkstra
//      reference on a dedicated host lane (status kCpuFallback, hedged).
//
// There is one dispatcher, run_stream(). A batch is a schedule whose
// arrivals are all at t=0 (batch_schedule in core/traffic.hpp); on a fresh
// server, with no deadlines and max_pending >= its size, it takes the
// earliest-free lane in offer order and is charged no idle gap.
//
// Every decision reads only simulated clocks and per-query results, and the
// whole dispatch loop is host-serial: outcomes are bit-identical across
// reruns. Completed distances are bit-identical for any stream count
// too; statuses can legitimately differ across stream counts, because lane
// clocks (and therefore deadline hits) depend on how queries pack onto
// lanes.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/query_batch.hpp"
#include "core/traffic.hpp"

namespace rdbs::core {

// How run_stream() places a deadline-bound query onto an eligible lane.
// Unbounded queries always take the earliest-free lane (throughput packing);
// the policy decides what "urgent" buys.
enum class LanePolicy : std::uint8_t {
  kEarliestFree,      // classic least-loaded: the lane that frees soonest
  kPredictedFastest,  // the lane whose predicted COMPLETION (free time +
                      // cost EWMA) is soonest — beats earliest-free when
                      // lane cost histories have drifted apart
};

// Per-lane circuit breaker: closed -> (failure_threshold consecutive fault
// outcomes) -> open -> (cooldown_ms of simulated time) -> half-open ->
// (half_open_probes clean queries) -> closed, or (probe fault) -> open
// again. A "fault outcome" is a query that took at least one poisoning gfi
// fault (docs/fault_injection.md) or failed outright; deadline misses are
// neither faults nor successes and leave the breaker unchanged.
struct CircuitBreakerOptions {
  // Gates only AUTOMATIC tripping; the state machine itself (cool-down,
  // half-open probing, eligibility) always runs, so trip_lane() works as a
  // manual drain even with the automatic breaker off.
  bool enabled = true;
  int failure_threshold = 3;   // consecutive fault outcomes that trip a lane
  double cooldown_ms = 5.0;    // simulated open time before half-open
  int half_open_probes = 1;    // clean probes required to close again
  // Applied exactly once per open -> half-open transition: the lane's cost
  // EWMA decays this fraction of the way back toward the degree-sum seed
  // (QueryBatch::decay_lane_cost_estimate). The lane sat idle through its
  // cool-down, so its pre-trip observations are stale; decaying toward the
  // SEED (never zero) keeps the load shedder honest without letting an
  // idle lane's estimate collapse. 0 disables.
  double half_open_ewma_decay = 0.5;
};

struct QueryServerOptions {
  QueryBatchOptions batch;
  // Bounded pending queue: queries offered beyond this are shed on arrival
  // ("admission queue full") before any scheduling work.
  std::size_t max_pending = 64;
  // Reject a query up front (kShedded) when its chosen lane's estimated
  // completion time is past the deadline. With this off, infeasible queries
  // are dispatched anyway and typically end kDeadlineExceeded.
  bool shed_on_overload = true;
  // Serve deadline-infeasible (or all-lanes-open) queries with the host
  // Dijkstra reference when THAT still meets the deadline. The host lane is
  // one serial worker with a deterministic per-query cost of
  // cost_seed_ms() * host_slowdown.
  bool hedge_to_cpu = true;
  double host_slowdown = 8.0;
  CircuitBreakerOptions breaker;
  // Result cache & single-flight sharing (core/result_cache.hpp;
  // docs/serving.md "Result cache"). With cache.enabled the server owns a
  // ResultCache, checks it before ANY shedding decision (a cache-answerable
  // query is never shed), attaches repeat sources to in-flight identical
  // queries, and has QueryBatch publish every lane outcome into it.
  ResultCacheOptions cache;
  // Mid-query lane migration (docs/serving.md "Checkpoint-resume & lane
  // migration"). When a dispatched query FAILS on its lane but left a valid
  // checkpoint (batch.gpu.checkpoint_interval > 0), the server moves it to
  // another eligible lane and RESUMES from the checkpointed upper bounds —
  // exact by the label-correcting argument — instead of losing the work. A
  // lost device is revived first (simulated device reset). At most one
  // migration per query. Safe default: checkpointing is off by default, so
  // no checkpoint ever exists unless explicitly enabled.
  bool migrate = true;
  // Lane placement for deadline-bound queries.
  LanePolicy lane_policy = LanePolicy::kPredictedFastest;
  // Closed-loop clients (core/traffic.hpp ClosedLoopSpec): with
  // closed_loop.enabled, a shed or deadline-missed query re-arrives after a
  // deterministic jittered exponential backoff, up to closed_loop.retry_budget
  // re-arrivals, with an optional backpressure penalty read from the
  // pending-queue depth at the moment the re-arrival is scheduled. The
  // re-arrival replaces the query's outcome at its original index.
  ClosedLoopSpec closed_loop;
  // Starvation aging: a pending query is promoted one priority class for
  // every aging_ms it has waited, so best-effort work cannot starve behind
  // a sustained interactive flood — and a priority inversion deeper than
  // (class gap) * aging_ms of waiting is a scheduler bug (invariant test).
  // Infinity (default) = strict class priority, no aging.
  double aging_ms = std::numeric_limits<double>::infinity();
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

enum class BreakerTransition : std::uint8_t {
  kOpen,      // closed -> open (threshold reached, or trip_lane)
  kHalfOpen,  // open -> half-open (cool-down elapsed)
  kClose,     // half-open -> closed (probe(s) succeeded)
  kReopen,    // half-open -> open (probe failed)
};
const char* breaker_transition_name(BreakerTransition transition);

struct BreakerEvent {
  int lane = 0;
  double time_ms = 0;  // absolute simulated device clock (GpuSim elapsed)
  BreakerTransition transition = BreakerTransition::kOpen;
};

// Per-query streaming outcome. All times are relative to the run_stream()
// call's start on the simulated clock; deadline_ms here is ABSOLUTE within
// the stream (arrival + the query's relative deadline).
struct StreamQueryStats {
  QueryStats query;
  TrafficClass cls = TrafficClass::kBestEffort;
  double arrival_ms = 0;
  double deadline_ms = std::numeric_limits<double>::infinity();
  double dispatch_ms = 0;  // left the pending queue (0 for shed queries)
  double finish_ms = 0;    // completion time (0 for shed queries)
  double sojourn_ms = 0;   // finish - arrival, completed queries only
  // Aging promotions in effect when the query was dispatched:
  // floor(wait / aging_ms). 0 when aging is off or the query never waited.
  int promotions = 0;
  // Total arrivals of this query including closed-loop re-arrivals; 1 for
  // an open-loop stream. arrival_ms always keeps the ORIGINAL arrival (so
  // sojourn stays honest); deadline_ms tracks the latest attempt's
  // absolute deadline.
  int arrivals = 1;
  bool hedged = false;     // served on the host lane
  // Dispatched on a lane other than the one placement alone would pick,
  // because an open breaker excluded that lane.
  bool rerouted = false;
  // Attached single-flight to an identical in-flight source and shares its
  // outcome (status, distances or failure) at the producer's publish time.
  bool single_flight = false;
  // Kernels this query completed after its deadline had already passed
  // (device time between the expiry and the next cancellation point).
  std::uint64_t overrun_kernels = 0;
};

// Offered/terminal tallies for one priority class.
struct ClassTally {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;  // ok + recovered + cpu-fallback + cache-hit
  std::uint64_t shed = 0;
  std::uint64_t missed = 0;     // kDeadlineExceeded
  std::uint64_t failed = 0;
};

struct StreamResult {
  std::vector<GpuRunResult> queries;    // index-parallel to the input
  std::vector<StreamQueryStats> stats;  // ditto
  double makespan_ms = 0;         // span of the stream (device and host)
  double device_makespan_ms = 0;  // device-only span
  std::uint64_t ok_queries = 0;
  std::uint64_t recovered_queries = 0;
  std::uint64_t fallback_queries = 0;  // includes hedged
  std::uint64_t hedged_queries = 0;
  std::uint64_t rerouted_queries = 0;
  std::uint64_t failed_queries = 0;
  std::uint64_t deadline_queries = 0;  // kDeadlineExceeded
  std::uint64_t shed_queries = 0;      // kShedded
  std::uint64_t cached_queries = 0;    // kCacheHit (no lane touched)
  std::uint64_t joined_queries = 0;    // single-flight attachments
  std::uint64_t warm_started_queries = 0;  // dispatched with landmark bounds
  std::uint64_t resumed_queries = 0;   // >=1 retry seeded from a checkpoint
  std::uint64_t migrated_queries = 0;  // moved to another lane mid-query
  std::uint64_t retried_arrivals = 0;  // closed-loop re-arrivals scheduled
  std::uint64_t retry_exhausted = 0;   // sheds/misses past the retry budget
  std::uint64_t overrun_kernels = 0;
  std::array<ClassTally, kNumTrafficClasses> classes{};
  RecoveryStats recovery;
  std::vector<BreakerEvent> breaker_events;  // in occurrence order
};

class QueryServer {
 public:
  QueryServer(const graph::Csr& csr, gpusim::DeviceSpec device,
              QueryServerOptions options = {});

  // Serves a traffic schedule (core/traffic.hpp) continuously: each query
  // arrives at its own point on the simulated clock (a batch is a schedule
  // with every arrival at t=0; see batch_schedule), waits in a bounded
  // pending queue, and is dispatched by effective priority (class minus
  // starvation-aging promotions), EDF within a priority level, arrival
  // order on ties. Deadline-bound queries take the lane chosen by
  // options.lane_policy; a pending query whose deadline passes before it
  // ever reaches a lane is shed, never dispatched. The schedule need not
  // be sorted; arrivals are processed in (arrival_ms, index) order, and
  // results are index-parallel to the input. Everything is host-serial on
  // simulated clocks: bit-identical across reruns. Callable
  // repeatedly — breaker states, lane EWMAs, the result cache and device
  // cache state persist across calls.
  StreamResult run_stream(std::span<const TrafficQuery> schedule);

  QueryBatch& batch() { return batch_; }
  const QueryServerOptions& options() const { return options_; }

  // The result cache (null unless options.cache.enabled). Exposed for
  // stats, tests and graph-mutation epoch bumps (bump_graph_epoch below).
  ResultCache* result_cache() { return cache_.get(); }
  // Invalidates every cached result and landmark; call after any mutation
  // of the served graph's content.
  void bump_graph_epoch() {
    if (cache_) cache_->bump_epoch();
  }

  BreakerState breaker_state(int lane) const;
  // Manually opens a lane's breaker (admin drain; also the deterministic
  // way for tests to stage a tripped lane). The lane re-enters service
  // through the normal cool-down -> half-open -> probe path.
  void trip_lane(int lane);
  // Deterministic per-query cost of the host hedge lane.
  double host_cost_ms() const {
    return batch_.cost_seed_ms() * options_.host_slowdown;
  }

 private:
  struct LaneBreaker {
    BreakerState state = BreakerState::kClosed;
    int consecutive_faults = 0;
    int probe_successes = 0;
    double open_until_ms = 0;  // absolute device clock of half-open entry
  };

  // Moves every open lane whose cool-down has elapsed by `now_ms` (absolute
  // device clock) to half-open, logging events and applying the one-shot
  // half-open EWMA decay. run_stream() passes its own decision time, which
  // can be ahead of the device clock during idle gaps (the clock only
  // advances with work); try_migrate() passes the device clock.
  void update_breaker_states(double now_ms);
  void open_lane(int lane, BreakerTransition transition);
  // Applies one device-query outcome to its lane's breaker.
  void record_outcome(int lane, const QueryBatch::LaneOutcome& outcome);
  // Checkpoint-resume migration: when `outcome` is a kFailed query that
  // left a valid checkpoint and another lane's breaker is not open, revive
  // the device if it was lost, re-dispatch on the earliest-free eligible
  // lane seeded from the checkpoint, and replace `outcome` (and `lane`)
  // with the destination lane's run. Recovery counters and fault records
  // from the failed attempt are merged in so totals stay honest; the
  // destination's overrun kernels are added to `overrun_kernels`. Returns
  // true when a migration ran (whatever its outcome). At most one
  // migration per query — callers invoke this once.
  bool try_migrate(VertexId source, bool bounded, double abs_deadline_ms,
                   QueryBatch::LaneOutcome& outcome, int& lane,
                   std::uint64_t& overrun_kernels);

  QueryServerOptions options_;
  graph::Csr host_csr_;  // original numbering, for the host hedge lane
  QueryBatch batch_;
  std::unique_ptr<ResultCache> cache_;  // null unless options.cache.enabled
  std::vector<LaneBreaker> breakers_;
  double host_clock_ms_ = 0;  // host hedge lane's serial timeline
  // Breaker transitions accumulate here (trip_lane included); each
  // run_stream() drains the not-yet-reported tail into its StreamResult.
  std::vector<BreakerEvent> event_log_;
  std::size_t events_drained_ = 0;
};

}  // namespace rdbs::core
