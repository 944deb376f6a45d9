#include "core/query_server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/macros.hpp"
#include "sssp/dijkstra.hpp"

namespace rdbs::core {

namespace {

// Derives every counter that follows from the per-query records: status
// counts, class tallies, the per-query flags, overrun kernels and
// closed-loop re-arrivals. (recovery and retry_exhausted are event
// counters, accumulated while the stream runs.)
void tally_outcomes(StreamResult& result) {
  std::array<std::uint64_t, kNumQueryStatuses> by_status{};
  for (std::size_t i = 0; i < result.stats.size(); ++i) {
    const StreamQueryStats& stats = result.stats[i];
    ++by_status[static_cast<std::size_t>(stats.query.status)];
    ClassTally& tally = result.classes[static_cast<std::size_t>(stats.cls)];
    ++tally.offered;
    if (query_completed(stats.query.status)) ++tally.completed;
    if (stats.query.status == QueryStatus::kShedded) ++tally.shed;
    if (stats.query.status == QueryStatus::kDeadlineExceeded) ++tally.missed;
    if (stats.query.status == QueryStatus::kFailed) ++tally.failed;
    if (stats.query.warm_started) ++result.warm_started_queries;
    if (stats.query.migrated) ++result.migrated_queries;
    if (result.queries[i].recovery.resumed > 0) ++result.resumed_queries;
    if (stats.hedged) ++result.hedged_queries;
    if (stats.rerouted) ++result.rerouted_queries;
    if (stats.single_flight) ++result.joined_queries;
    result.overrun_kernels += stats.overrun_kernels;
    result.retried_arrivals += static_cast<std::uint64_t>(stats.arrivals - 1);
  }
  const auto of = [&](QueryStatus s) {
    return by_status[static_cast<std::size_t>(s)];
  };
  result.ok_queries = of(QueryStatus::kOk);
  result.recovered_queries = of(QueryStatus::kRecovered);
  result.fallback_queries = of(QueryStatus::kCpuFallback);
  result.failed_queries = of(QueryStatus::kFailed);
  result.deadline_queries = of(QueryStatus::kDeadlineExceeded);
  result.shed_queries = of(QueryStatus::kShedded);
  result.cached_queries = of(QueryStatus::kCacheHit);
}

}  // namespace

const char* breaker_transition_name(BreakerTransition transition) {
  switch (transition) {
    case BreakerTransition::kOpen: return "open";
    case BreakerTransition::kHalfOpen: return "half-open";
    case BreakerTransition::kClose: return "close";
    case BreakerTransition::kReopen: return "reopen";
  }
  return "?";
}

QueryServer::QueryServer(const graph::Csr& csr, gpusim::DeviceSpec device,
                         QueryServerOptions options)
    : options_(std::move(options)),
      host_csr_(csr),
      batch_(csr, std::move(device), options_.batch) {
  breakers_.resize(static_cast<std::size_t>(batch_.num_lanes()));
  if (options_.cache.enabled) {
    // The cache speaks the ORIGINAL numbering (symmetry checked on the
    // original CSR; PRO permutation is handled inside QueryBatch).
    cache_ = std::make_unique<ResultCache>(host_csr_, options_.cache);
    batch_.set_result_cache(cache_.get());
  }
}

BreakerState QueryServer::breaker_state(int lane) const {
  RDBS_CHECK(lane >= 0 && lane < batch_.num_lanes());
  return breakers_[static_cast<std::size_t>(lane)].state;
}

void QueryServer::trip_lane(int lane) {
  RDBS_CHECK(lane >= 0 && lane < batch_.num_lanes());
  if (breakers_[static_cast<std::size_t>(lane)].state != BreakerState::kOpen) {
    open_lane(lane, BreakerTransition::kOpen);
  }
}

void QueryServer::open_lane(int lane, BreakerTransition transition) {
  LaneBreaker& breaker = breakers_[static_cast<std::size_t>(lane)];
  breaker.state = BreakerState::kOpen;
  breaker.consecutive_faults = 0;
  breaker.probe_successes = 0;
  breaker.open_until_ms =
      batch_.sim().elapsed_ms() + std::max(0.0, options_.breaker.cooldown_ms);
  event_log_.push_back({lane, batch_.sim().elapsed_ms(), transition});
}

void QueryServer::update_breaker_states(double now_ms) {
  for (int lane = 0; lane < batch_.num_lanes(); ++lane) {
    LaneBreaker& breaker = breakers_[static_cast<std::size_t>(lane)];
    if (breaker.state == BreakerState::kOpen &&
        now_ms >= breaker.open_until_ms) {
      breaker.state = BreakerState::kHalfOpen;
      breaker.probe_successes = 0;
      event_log_.push_back({lane, now_ms, BreakerTransition::kHalfOpen});
      // The lane idled through its cool-down; its pre-trip cost
      // observations are stale, so decay the estimate toward the seed —
      // exactly once per cool-down cycle (regression test).
      if (options_.breaker.half_open_ewma_decay > 0) {
        batch_.decay_lane_cost_estimate(
            lane, options_.breaker.half_open_ewma_decay);
      }
    }
  }
}

void QueryServer::record_outcome(int lane,
                                 const QueryBatch::LaneOutcome& outcome) {
  LaneBreaker& breaker = breakers_[static_cast<std::size_t>(lane)];

  // A "fault outcome" is any query whose lane showed device trouble: a
  // poisoning injected fault, an outright failure, or a lost device. Note
  // kRecovered and kCpuFallback count — the query was saved, but only
  // because the lane misbehaved. A deadline miss without faults says
  // nothing about lane health and leaves the breaker untouched.
  bool poisoned = outcome.result.recovery.device_lost;
  for (const gpusim::GpuFault& fault : outcome.result.faults) {
    poisoned = poisoned || fault.poisons();
  }
  const bool fault_outcome =
      poisoned || outcome.stats.status == QueryStatus::kFailed;
  const bool success_outcome =
      !fault_outcome && (outcome.stats.status == QueryStatus::kOk ||
                         outcome.stats.status == QueryStatus::kRecovered ||
                         outcome.stats.status == QueryStatus::kCpuFallback);

  if (breaker.state == BreakerState::kHalfOpen) {
    if (fault_outcome) {
      open_lane(lane, BreakerTransition::kReopen);
    } else if (success_outcome) {
      if (++breaker.probe_successes >=
          std::max(1, options_.breaker.half_open_probes)) {
        breaker.state = BreakerState::kClosed;
        breaker.consecutive_faults = 0;
        breaker.probe_successes = 0;
        event_log_.push_back(
            {lane, batch_.sim().elapsed_ms(), BreakerTransition::kClose});
      }
    }
    // A deadline-exceeded probe is inconclusive: stay half-open.
    return;
  }

  if (fault_outcome) {
    ++breaker.consecutive_faults;
    if (options_.breaker.enabled &&
        breaker.consecutive_faults >=
            std::max(1, options_.breaker.failure_threshold)) {
      open_lane(lane, BreakerTransition::kOpen);
    }
  } else if (success_outcome) {
    breaker.consecutive_faults = 0;
  }
}

bool QueryServer::try_migrate(VertexId source, bool bounded,
                              double abs_deadline_ms,
                              QueryBatch::LaneOutcome& outcome, int& lane,
                              std::uint64_t& overrun_kernels) {
  if (!options_.migrate) return false;
  if (outcome.stats.status != QueryStatus::kFailed) return false;
  if (!outcome.checkpoint.valid()) return false;

  update_breaker_states(batch_.sim().elapsed_ms());
  std::vector<std::uint8_t> eligible(
      static_cast<std::size_t>(batch_.num_lanes()), 0);
  bool any_eligible = false;
  for (int l = 0; l < batch_.num_lanes(); ++l) {
    if (l == lane) continue;  // never resume on the lane that just failed
    if (breakers_[static_cast<std::size_t>(l)].state == BreakerState::kOpen) {
      continue;
    }
    eligible[static_cast<std::size_t>(l)] = 1;
    any_eligible = true;
  }
  if (!any_eligible) return false;

  // A lost device latches globally; migration is the consumer of
  // revive_device() (simulated device reset before re-seeding the
  // destination lane from the host-side checkpoint).
  if (batch_.sim().device_lost()) batch_.sim().revive_device();

  const int dest = batch_.pick_lane(&eligible);
  RDBS_CHECK(dest >= 0);
  // The resumed attempt cannot start before the failure was observed on the
  // source lane; an idle destination is charged the gap as host time.
  const double gap_ms =
      batch_.lane_clock_ms(lane) - batch_.lane_clock_ms(dest);
  if (gap_ms > 0) {
    batch_.sim().charge_host_ms(gap_ms, batch_.lane_stream(dest));
  }

  const gpusim::StreamId stream = batch_.lane_stream(dest);
  const std::uint64_t overrun_before =
      batch_.sim().stream_overrun_kernels(stream);
  CancelToken token;
  const CancelToken* cancel = nullptr;
  if (bounded) {
    batch_.sim().set_stream_deadline(stream, abs_deadline_ms);
    token = CancelToken(batch_.sim(), stream, abs_deadline_ms);
    cancel = &token;
  }
  QueryBatch::LaneOutcome resumed =
      batch_.run_migrated_on_lane(dest, source, cancel, outcome.checkpoint);
  if (bounded) batch_.sim().clear_stream_deadline(stream);
  overrun_kernels +=
      batch_.sim().stream_overrun_kernels(stream) - overrun_before;

  record_outcome(dest, resumed);

  // Fold the failed attempt's accounting into the resumed run so per-query
  // totals cover both attempts. Done AFTER record_outcome: the destination
  // lane's breaker must only see the destination's faults.
  resumed.result.recovery += outcome.result.recovery;
  resumed.result.faults.insert(resumed.result.faults.begin(),
                               outcome.result.faults.begin(),
                               outcome.result.faults.end());

  outcome = std::move(resumed);
  lane = dest;
  return true;
}

StreamResult QueryServer::run_stream(std::span<const TrafficQuery> schedule) {
  StreamResult result;
  result.queries.resize(schedule.size());
  result.stats.resize(schedule.size());
  const double stream_start_ms = batch_.sim().elapsed_ms();
  const double host_start_ms = host_clock_ms_;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    StreamQueryStats& stats = result.stats[i];
    stats.query.source = schedule[i].source;
    stats.cls = schedule[i].cls;
    stats.arrival_ms = schedule[i].arrival_ms;
    // Per-query deadlines arrive RELATIVE to the query's own arrival;
    // everything downstream wants them absolute within the stream.
    stats.deadline_ms = std::isfinite(schedule[i].deadline_ms)
                            ? schedule[i].arrival_ms + schedule[i].deadline_ms
                            : kInf;
  }

  // Arrivals are processed in (arrival_ms, index) order whatever order the
  // schedule came in.
  std::vector<std::size_t> order(schedule.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return schedule[a].arrival_ms < schedule[b].arrival_ms;
                   });

  const auto shed = [&](std::size_t index, const char* why) {
    result.queries[index].ok = false;
    result.stats[index].query.status = QueryStatus::kShedded;
    result.stats[index].query.error = why;
  };
  // Serves one query on the host hedge lane when that still meets its
  // deadline. The host lane is one serial worker, so the hedge starts at
  // the later of "host lane free" and the decision time `now_ms`.
  const auto try_hedge = [&](std::size_t index, double now_ms) {
    if (!options_.hedge_to_cpu) return false;
    StreamQueryStats& stats = result.stats[index];
    const double start_ms =
        std::max(host_clock_ms_ - host_start_ms, now_ms);
    const double finish_ms = start_ms + host_cost_ms();
    if (finish_ms > stats.deadline_ms) return false;
    host_clock_ms_ = host_start_ms + finish_ms;
    GpuRunResult& hedged = result.queries[index];
    hedged.sssp = sssp::dijkstra(host_csr_, schedule[index].source);
    hedged.ok = true;
    hedged.recovery.cpu_fallbacks = 1;
    stats.query.status = QueryStatus::kCpuFallback;
    stats.hedged = true;
    stats.dispatch_ms = now_ms;
    stats.finish_ms = finish_ms;
    stats.sojourn_ms = finish_ms - stats.arrival_ms;
    if (cache_) {
      cache_->publish(schedule[index].source, QueryStatus::kCpuFallback,
                      hedged.sssp.distances, stream_start_ms + finish_ms);
    }
    return true;
  };

  // Result cache, streaming flavor (docs/serving.md "Result cache").
  // Checked at every arrival (admission) and again at dispatch, because an
  // identical source may publish while this one sits queued. The
  // decision time `at_rel_ms` is relative to the stream start; cache
  // publish times live on the absolute device clock.
  const auto serve_from_cache_stream = [&](std::size_t index,
                                           double at_rel_ms) {
    if (cache_ == nullptr) return false;
    const VertexId source = schedule[index].source;
    StreamQueryStats& stats = result.stats[index];
    const double at_abs_ms = stream_start_ms + at_rel_ms;
    if (const CachedResult* hit = cache_->lookup(source, at_abs_ms)) {
      GpuRunResult& out = result.queries[index];
      out.ok = true;
      out.sssp.distances = hit->distances;
      sssp::finalize_valid_updates(out.sssp, source);
      stats.query.status = QueryStatus::kCacheHit;
      stats.dispatch_ms = at_rel_ms;
      stats.finish_ms = at_rel_ms;
      stats.sojourn_ms = at_rel_ms - stats.arrival_ms;
      return true;
    }
    const CachedResult* flight = cache_->lookup_inflight(source, at_abs_ms);
    if (flight == nullptr) return false;
    const double publish_rel_ms = flight->publish_ms - stream_start_ms;
    if (publish_rel_ms > stats.deadline_ms) {
      return false;  // would publish too late for THIS query: run its own
    }
    stats.single_flight = true;
    stats.dispatch_ms = at_rel_ms;
    stats.finish_ms = publish_rel_ms;
    if (flight->status == QueryStatus::kFailed) {
      result.queries[index].ok = false;
      stats.query.status = QueryStatus::kFailed;
      stats.query.error = "single-flight: shared in-flight query failed";
    } else {
      GpuRunResult& out = result.queries[index];
      out.ok = true;
      out.sssp.distances = flight->distances;
      sssp::finalize_valid_updates(out.sssp, source);
      stats.query.status = flight->status;
      stats.sojourn_ms = publish_rel_ms - stats.arrival_ms;
    }
    return true;
  };
  // An offered arrival (schedule or closed-loop re-arrival) counts one
  // request for the cache's admission policy; the dispatch-time re-check
  // counts none, so a query that waits in the queue is not counted twice.
  const auto serve_arrival_from_cache = [&](std::size_t index,
                                            double at_rel_ms) {
    if (cache_ != nullptr) cache_->record_request(schedule[index].source);
    return serve_from_cache_stream(index, at_rel_ms);
  };

  // --- continuous dispatch -------------------------------------------------
  // `now_ms` is the scheduler's decision clock, relative to the stream
  // start. It advances to the next event (arrival, lane free, breaker
  // reopen); the simulated device clock only moves when work is charged.
  struct Pending {
    std::size_t index = 0;
    double arrival_ms = 0;
    double deadline_ms = kInf;  // absolute within the stream
  };
  std::vector<Pending> pending;
  std::size_t next_arrival = 0;
  double now_ms = 0;

  // --- closed-loop clients (core/traffic.hpp ClosedLoopSpec) ---------------
  // A shed or deadline-missed query re-arrives after a deterministic
  // jittered backoff, up to the retry budget; the re-arrival replaces the
  // query's outcome at its original index, so results stay index-parallel.
  struct Retry {
    std::size_t index = 0;
    double arrival_ms = 0;  // relative to the stream start, like now_ms
    int attempt = 0;
  };
  const ClosedLoopSpec& loop = options_.closed_loop;
  std::vector<Retry> retries;  // sorted by (arrival_ms, index) from next_retry
  std::size_t next_retry = 0;
  std::vector<int> attempts(schedule.size(), 0);
  // Schedules a re-arrival for the query at `index` whose shed/miss the
  // client observes at `event_ms`. Returns true when one was scheduled (the
  // caller must NOT finalize the query — the retry overwrites its outcome).
  const auto maybe_retry = [&](std::size_t index, double event_ms) {
    if (!loop.enabled) return false;
    if (attempts[index] >= loop.retry_budget) {
      ++result.retry_exhausted;
      return false;
    }
    const int attempt = ++attempts[index];
    double delay_ms = closed_loop_backoff_ms(loop, index, attempt);
    // Backpressure: the client reads the server's pending-queue depth at
    // scheduling time and defers further when the queue is visibly deep —
    // the retry stream throttles instead of amplifying an overload.
    if (loop.backpressure_depth > 0 &&
        pending.size() > loop.backpressure_depth) {
      delay_ms +=
          static_cast<double>(pending.size() - loop.backpressure_depth) *
          loop.backpressure_penalty_ms;
    }
    const Retry retry{index, event_ms + delay_ms, attempt};
    const auto pos = std::upper_bound(
        retries.begin() + static_cast<std::ptrdiff_t>(next_retry),
        retries.end(), retry, [](const Retry& a, const Retry& b) {
          if (a.arrival_ms != b.arrival_ms) {
            return a.arrival_ms < b.arrival_ms;
          }
          return a.index < b.index;
        });
    retries.insert(pos, retry);
    ++result.stats[index].arrivals;
    return true;
  };
  const auto shed_or_retry = [&](std::size_t index, const char* why,
                                 double event_ms) {
    if (maybe_retry(index, event_ms)) return;
    shed(index, why);
  };
  // Admits one closed-loop re-arrival: the deadline window restarts
  // relative to the NEW arrival (arrival_ms keeps the original, so sojourn
  // spans all attempts).
  const auto admit_retry = [&](const Retry& retry) {
    const std::size_t index = retry.index;
    StreamQueryStats& stats = result.stats[index];
    stats.deadline_ms = std::isfinite(schedule[index].deadline_ms)
                            ? retry.arrival_ms + schedule[index].deadline_ms
                            : kInf;
    if (serve_arrival_from_cache(index, retry.arrival_ms)) return;
    if (pending.size() >= options_.max_pending) {
      shed_or_retry(index, "admission queue full", retry.arrival_ms);
      return;
    }
    pending.push_back({index, retry.arrival_ms, stats.deadline_ms});
  };

  // Merges schedule arrivals and closed-loop re-arrivals in
  // (arrival_ms, index) order.
  const auto admit_arrivals = [&](double up_to_ms) {
    while (true) {
      const bool have_sched =
          next_arrival < order.size() &&
          schedule[order[next_arrival]].arrival_ms <= up_to_ms;
      const bool have_retry = next_retry < retries.size() &&
                              retries[next_retry].arrival_ms <= up_to_ms;
      if (!have_sched && !have_retry) break;
      bool take_retry = have_retry;
      if (have_sched && have_retry) {
        const double sched_ms = schedule[order[next_arrival]].arrival_ms;
        const Retry& retry = retries[next_retry];
        take_retry = retry.arrival_ms < sched_ms ||
                     (retry.arrival_ms == sched_ms &&
                      retry.index < order[next_arrival]);
      }
      if (take_retry) {
        admit_retry(retries[next_retry++]);
        continue;
      }
      const std::size_t index = order[next_arrival++];
      const TrafficQuery& query = schedule[index];
      // An invalid source fails on arrival and never occupies queue space.
      if (query.source >= host_csr_.num_vertices()) {
        result.queries[index].ok = false;
        result.stats[index].query.status = QueryStatus::kFailed;
        result.stats[index].query.error = "source vertex out of range";
        continue;
      }
      // Cache check precedes queue-full shedding: a cache-answerable
      // query never needs (and never takes) queue space.
      if (serve_arrival_from_cache(index, query.arrival_ms)) continue;
      if (pending.size() >= options_.max_pending) {
        shed_or_retry(index, "admission queue full", query.arrival_ms);
        continue;
      }
      pending.push_back(
          {index, query.arrival_ms, result.stats[index].deadline_ms});
    }
  };
  // Starvation aging: one class of promotion per aging_ms waited.
  const auto promotions_at = [&](const Pending& item, double at_ms) {
    if (!std::isfinite(options_.aging_ms) || options_.aging_ms <= 0) return 0;
    const double waited = at_ms - item.arrival_ms;
    return waited > 0 ? static_cast<int>(waited / options_.aging_ms) : 0;
  };

  while (true) {
    admit_arrivals(now_ms);

    // A pending query whose deadline has passed is shed (or, closed-loop,
    // retried — the client notices the timeout at its own deadline), never
    // dispatched.
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].deadline_ms <= now_ms) {
        const Pending expired = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        shed_or_retry(expired.index, "deadline expired while queued",
                      expired.deadline_ms);
      } else {
        ++i;
      }
    }

    if (pending.empty()) {
      const double next_sched_ms = next_arrival < order.size()
                                       ? schedule[order[next_arrival]].arrival_ms
                                       : kInf;
      const double next_retry_ms = next_retry < retries.size()
                                       ? retries[next_retry].arrival_ms
                                       : kInf;
      const double next_event_ms = std::min(next_sched_ms, next_retry_ms);
      if (!std::isfinite(next_event_ms)) break;
      now_ms = std::max(now_ms, next_event_ms);
      continue;
    }

    update_breaker_states(stream_start_ms + now_ms);
    std::vector<std::uint8_t> eligible(
        static_cast<std::size_t>(batch_.num_lanes()), 0);
    int eligible_lanes = 0;
    for (int l = 0; l < batch_.num_lanes(); ++l) {
      if (breakers_[static_cast<std::size_t>(l)].state != BreakerState::kOpen) {
        eligible[static_cast<std::size_t>(l)] = 1;
        ++eligible_lanes;
      }
    }

    // Head-of-queue selection: lowest effective priority (class minus aging
    // promotions), then earliest deadline, then arrival order — `pending`
    // is already in (arrival_ms, index) order, so the first minimal element
    // IS the earliest arrival.
    const auto head = std::min_element(
        pending.begin(), pending.end(),
        [&](const Pending& a, const Pending& b) {
          const int pa = static_cast<int>(schedule[a.index].cls) -
                         promotions_at(a, now_ms);
          const int pb = static_cast<int>(schedule[b.index].cls) -
                         promotions_at(b, now_ms);
          if (pa != pb) return pa < pb;
          return a.deadline_ms < b.deadline_ms;
        });
    const Pending item = *head;
    const bool bounded = std::isfinite(item.deadline_ms);

    // Re-check the cache at dispatch time: an identical source may have
    // published (or gone in flight) while this query sat queued.
    if (serve_from_cache_stream(item.index, now_ms)) {
      pending.erase(head);
      continue;
    }

    if (eligible_lanes == 0) {
      // Every lane's breaker is open: hedge, shed, or wait out the
      // earliest cool-down (charged as host time on that lane's stream so
      // the device makespan covers the outage).
      if (try_hedge(item.index, now_ms)) {
        pending.erase(head);
        continue;
      }
      int wait_lane = 0;
      for (int l = 1; l < batch_.num_lanes(); ++l) {
        if (breakers_[static_cast<std::size_t>(l)].open_until_ms <
            breakers_[static_cast<std::size_t>(wait_lane)].open_until_ms) {
          wait_lane = l;
        }
      }
      const double reopen_rel_ms =
          breakers_[static_cast<std::size_t>(wait_lane)].open_until_ms -
          stream_start_ms;
      const double projected_finish_ms =
          std::max(reopen_rel_ms,
                   batch_.lane_clock_ms(wait_lane) - stream_start_ms) +
          batch_.lane_cost_estimate_ms(wait_lane);
      if (options_.shed_on_overload && bounded &&
          projected_finish_ms > item.deadline_ms) {
        pending.erase(head);
        shed_or_retry(item.index, "all lanes open", now_ms);
        continue;
      }
      const double target_rel_ms = std::max(now_ms, reopen_rel_ms);
      const double gap_ms = (stream_start_ms + target_rel_ms) -
                            batch_.lane_clock_ms(wait_lane);
      if (gap_ms > 0) {
        batch_.sim().charge_host_ms(gap_ms, batch_.lane_stream(wait_lane));
      }
      now_ms = target_rel_ms;
      continue;
    }

    // Wait-for-work: if no eligible lane is free yet, advance only as far
    // as the next event (lane frees, or an arrival lands first — a
    // just-arrived urgent query must be able to win the next pick).
    double free_rel_ms = kInf;
    for (int l = 0; l < batch_.num_lanes(); ++l) {
      if (!eligible[static_cast<std::size_t>(l)]) continue;
      free_rel_ms = std::min(free_rel_ms,
                             batch_.lane_clock_ms(l) - stream_start_ms);
    }
    const double decision_rel_ms = std::max(now_ms, free_rel_ms);
    if (decision_rel_ms > now_ms) {
      double next_arrival_ms = next_arrival < order.size()
                                   ? schedule[order[next_arrival]].arrival_ms
                                   : kInf;
      if (next_retry < retries.size()) {
        next_arrival_ms =
            std::min(next_arrival_ms, retries[next_retry].arrival_ms);
      }
      now_ms = std::min(decision_rel_ms, next_arrival_ms);
      continue;
    }

    // --- lane choice and load shedding -------------------------------------
    const double not_before_abs_ms = stream_start_ms + now_ms;
    int lane;
    int preferred_lane;  // what placement alone would pick, ignoring breakers
    if (bounded && options_.lane_policy == LanePolicy::kPredictedFastest) {
      lane = batch_.pick_lane_fastest(not_before_abs_ms, &eligible);
      preferred_lane = batch_.pick_lane_fastest(not_before_abs_ms);
    } else {
      lane = batch_.pick_lane(&eligible);
      preferred_lane = batch_.pick_lane();
    }

    if (options_.shed_on_overload && bounded) {
      const double predicted_finish_ms =
          batch_.lane_predicted_completion_ms(lane, not_before_abs_ms) -
          stream_start_ms;
      if (predicted_finish_ms > item.deadline_ms) {
        pending.erase(head);
        if (!try_hedge(item.index, now_ms)) {
          shed_or_retry(item.index, "predicted deadline miss", now_ms);
        }
        continue;
      }
    }

    // --- device dispatch ----------------------------------------------------
    pending.erase(head);
    StreamQueryStats& stats = result.stats[item.index];
    stats.rerouted = lane != preferred_lane;
    stats.dispatch_ms = now_ms;
    stats.promotions = promotions_at(item, now_ms);
    const gpusim::StreamId stream = batch_.lane_stream(lane);
    // An idle lane's clock can lag the decision time; charge the idle gap
    // as host time so the query starts when it was dispatched, not in the
    // past.
    const double idle_gap_ms = not_before_abs_ms - batch_.lane_clock_ms(lane);
    if (idle_gap_ms > 0) {
      batch_.sim().charge_host_ms(idle_gap_ms, stream);
    }
    const std::uint64_t overrun_before =
        batch_.sim().stream_overrun_kernels(stream);
    CancelToken token;
    const CancelToken* cancel = nullptr;
    if (bounded) {
      const double abs_deadline_ms = stream_start_ms + item.deadline_ms;
      batch_.sim().set_stream_deadline(stream, abs_deadline_ms);
      token = CancelToken(batch_.sim(), stream, abs_deadline_ms);
      cancel = &token;
    }
    QueryBatch::LaneOutcome outcome =
        batch_.run_on_lane(lane, schedule[item.index].source, cancel);
    if (bounded) batch_.sim().clear_stream_deadline(stream);
    stats.overrun_kernels =
        batch_.sim().stream_overrun_kernels(stream) - overrun_before;

    record_outcome(lane, outcome);
    try_migrate(schedule[item.index].source, bounded,
                stream_start_ms + item.deadline_ms, outcome, lane,
                stats.overrun_kernels);

    stats.finish_ms = batch_.lane_clock_ms(lane) - stream_start_ms;
    stats.query = std::move(outcome.stats);
    if (stats.query.status == QueryStatus::kOk ||
        stats.query.status == QueryStatus::kRecovered ||
        stats.query.status == QueryStatus::kCpuFallback) {
      stats.sojourn_ms = stats.finish_ms - stats.arrival_ms;
    }
    result.recovery += outcome.result.recovery;
    result.queries[item.index] = std::move(outcome.result);
    // Closed-loop: a dispatched query that still missed its deadline comes
    // back like a shed one (the client cannot tell the difference).
    if (stats.query.status == QueryStatus::kDeadlineExceeded) {
      maybe_retry(item.index, stats.finish_ms);
    }
  }

  tally_outcomes(result);
  result.device_makespan_ms = batch_.sim().elapsed_ms() - stream_start_ms;
  result.makespan_ms =
      std::max(result.device_makespan_ms, host_clock_ms_ - host_start_ms);
  result.breaker_events.assign(
      event_log_.begin() + static_cast<std::ptrdiff_t>(events_drained_),
      event_log_.end());
  events_drained_ = event_log_.size();
  return result;
}

}  // namespace rdbs::core
