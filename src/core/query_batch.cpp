#include "core/query_batch.hpp"

#include <algorithm>
#include <exception>

#include "common/macros.hpp"

namespace rdbs::core {

const char* query_status_name(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kRecovered: return "recovered";
    case QueryStatus::kCpuFallback: return "cpu-fallback";
    case QueryStatus::kFailed: return "failed";
    case QueryStatus::kDeadlineExceeded: return "deadline";
    case QueryStatus::kShedded: return "shed";
    case QueryStatus::kCacheHit: return "cache-hit";
  }
  return "?";
}

QueryBatch::QueryBatch(const graph::Csr& csr, gpusim::DeviceSpec device,
                       QueryBatchOptions options)
    : graph_(csr, options.engine == BatchEngine::kRdbs && options.gpu.pro,
             options.gpu.delta0) {
  RDBS_CHECK(options.streams >= 1);
  const graph::Csr& engine_csr = graph_.csr();

  // Admission-control seed: a deliberately coarse a-priori estimate of one
  // query's device cost — every vertex and edge touched once, in 32-lane
  // warps paying a fixed instruction budget, retired at the device's
  // aggregate issue rate, plus a handful of launch overheads. It only has
  // to be a sane nonzero starting point for the lane EWMAs; real completed
  // queries take over from the first success.
  {
    const double warp_tasks =
        (static_cast<double>(engine_csr.num_vertices()) +
         static_cast<double>(engine_csr.num_edges())) /
        32.0;
    const double aggregate_issue =
        static_cast<double>(device.num_sms) * device.warp_schedulers;
    cost_seed_ms_ = device.cycles_to_ms(warp_tasks * 64.0 / aggregate_issue) +
                    8.0 * device.kernel_launch_us * 1e-3;
  }

  sim_ = std::make_unique<gpusim::GpuSim>(std::move(device));
  options.gpu.configure(*sim_);
  graph_bufs_ = std::make_unique<DeviceCsrBuffers>(
      DeviceCsrBuffers::upload(*sim_, engine_csr));

  lanes_.reserve(static_cast<std::size_t>(options.streams));
  for (int s = 0; s < options.streams; ++s) {
    Lane lane;
    lane.stream = s;
    lane.ewma_ms = cost_seed_ms_;
    const DeviceBinding binding{*sim_, s, *graph_bufs_};
    if (options.engine == BatchEngine::kRdbs) {
      auto rdbs =
          std::make_unique<GpuDeltaStepping>(binding, engine_csr, options.gpu);
      lane.driver = &rdbs->driver();
      lane.engine = std::move(rdbs);
    } else {
      AddsOptions adds;
      static_cast<EngineOptions&>(adds) = options.gpu;
      adds.delta = options.gpu.delta0;
      auto engine = std::make_unique<AddsLike>(binding, engine_csr, adds);
      lane.driver = &engine->driver();
      lane.engine = std::move(engine);
    }
    lanes_.push_back(std::move(lane));
  }
}

QueryBatch::~QueryBatch() = default;

gpusim::StreamId QueryBatch::lane_stream(int lane) const {
  RDBS_CHECK(lane >= 0 && lane < num_lanes());
  return lanes_[static_cast<std::size_t>(lane)].stream;
}

double QueryBatch::lane_clock_ms(int lane) const {
  RDBS_CHECK(lane >= 0 && lane < num_lanes());
  return sim_->stream_elapsed_ms(lanes_[static_cast<std::size_t>(lane)].stream);
}

double QueryBatch::lane_cost_estimate_ms(int lane) const {
  RDBS_CHECK(lane >= 0 && lane < num_lanes());
  return lanes_[static_cast<std::size_t>(lane)].ewma_ms;
}

double QueryBatch::lane_predicted_completion_ms(int lane,
                                                double not_before_ms) const {
  RDBS_CHECK(lane >= 0 && lane < num_lanes());
  const Lane& l = lanes_[static_cast<std::size_t>(lane)];
  return std::max(sim_->stream_elapsed_ms(l.stream), not_before_ms) +
         l.ewma_ms;
}

int QueryBatch::pick_lane_fastest(
    double not_before_ms, const std::vector<std::uint8_t>* eligible) const {
  int best = -1;
  double best_ms = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (eligible != nullptr && (i >= eligible->size() || !(*eligible)[i])) {
      continue;
    }
    const double predicted = lane_predicted_completion_ms(
        static_cast<int>(i), not_before_ms);
    if (best < 0 || predicted < best_ms) {
      best = static_cast<int>(i);
      best_ms = predicted;
    }
  }
  return best;
}

void QueryBatch::decay_lane_cost_estimate(int lane, double blend) {
  RDBS_CHECK(lane >= 0 && lane < num_lanes());
  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  l.ewma_ms += std::clamp(blend, 0.0, 1.0) * (cost_seed_ms_ - l.ewma_ms);
}

int QueryBatch::pick_lane(const std::vector<std::uint8_t>* eligible) const {
  int best = -1;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (eligible != nullptr && (i >= eligible->size() || !(*eligible)[i])) {
      continue;
    }
    if (best < 0 ||
        sim_->stream_elapsed_ms(lanes_[i].stream) <
            sim_->stream_elapsed_ms(lanes_[static_cast<std::size_t>(best)]
                                        .stream)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

QueryBatch::LaneOutcome QueryBatch::run_on_lane(int lane_index,
                                                VertexId source,
                                                const CancelToken* cancel) {
  return run_lane_query(lane_index, source, cancel, /*resume=*/nullptr);
}

QueryBatch::LaneOutcome QueryBatch::run_migrated_on_lane(
    int lane_index, VertexId source, const CancelToken* cancel,
    const QueryCheckpoint& checkpoint) {
  RDBS_CHECK(checkpoint.valid());
  return run_lane_query(lane_index, source, cancel, &checkpoint);
}

QueryBatch::LaneOutcome QueryBatch::run_lane_query(
    int lane_index, VertexId source, const CancelToken* cancel,
    const QueryCheckpoint* resume) {
  RDBS_CHECK(lane_index >= 0 && lane_index < num_lanes());
  Lane& lane = lanes_[static_cast<std::size_t>(lane_index)];
  LaneOutcome out;
  out.stats.source = source;
  out.stats.stream = lane.stream;

  if (source >= graph_.csr().num_vertices()) {
    out.result.ok = false;
    out.stats.status = QueryStatus::kFailed;
    out.stats.error = "source vertex out of range";
    return out;
  }

  const std::vector<graph::Distance>* warm = nullptr;
  if (resume != nullptr) {
    // Mid-query migration: continue from the checkpoint another lane of
    // this batch produced (already in engine numbering, so no permutation
    // round-trip). The host stages the snapshot into this lane's upload
    // path — charged like the PCIe copy it models; the re-seed H2D is
    // charged by the engine's warm-start application.
    sim_->charge_host_ms(
        sim_->memcpy_ms(static_cast<std::uint64_t>(resume->bounds.size()) *
                        kDeviceWord),
        lane.stream);
    lane.driver->set_resume_bounds(resume->bounds);
    out.stats.migrated = true;
  } else if (cache_ != nullptr &&
             cache_->warm_bounds(source,
                                 sim_->stream_elapsed_ms(lane.stream),
                                 &warm_bounds_)) {
    // Result cache (core/result_cache.hpp): landmark warm bounds are
    // fetched at dispatch time against the lane's own clock — a landmark
    // whose producer hasn't finished yet on the simulated timeline is
    // never used. The cache speaks the caller's ORIGINAL numbering; the
    // engine wants its (possibly PRO-reordered) own, so bounds are mapped
    // on the way in.
    warm = graph_.to_engine(&warm_bounds_);
    out.stats.warm_started = true;
  }

  // The token and warm bounds are (re)bound before every run, so a pointer
  // left over from a previous query is never consulted.
  lane.driver->set_cancel_token(cancel);
  lane.driver->set_warm_start(warm);
  try {
    out.result = lane.engine->run(graph_.to_engine(source));
    graph_.to_caller(out.result.sssp.distances);
  } catch (const std::exception& e) {
    out.result = GpuRunResult{};
    out.result.ok = false;
    out.stats.error = e.what();
  }

  out.stats.device_ms = out.result.device_ms;
  out.stats.queue_wait_ms = out.result.queue_wait_ms;
  if (out.result.deadline_exceeded) {
    out.stats.status = QueryStatus::kDeadlineExceeded;
  } else if (!out.result.ok) {
    out.stats.status = QueryStatus::kFailed;
  } else if (out.result.recovery.cpu_fallbacks > 0) {
    out.stats.status = QueryStatus::kCpuFallback;
  } else if (out.result.recovery.retries > 0) {
    out.stats.status = QueryStatus::kRecovered;
  }

  // Harvest the engine's last good snapshot for a failed query: the
  // serving layer can migrate it to another lane and resume instead of
  // rejoining the queue cold.
  if (out.stats.status == QueryStatus::kFailed) {
    out.checkpoint = lane.driver->take_checkpoint();
  }

  // Only successful COLD *device* runs teach the admission estimator.
  // Failed, cancelled or fallback queries can cost near-zero device time
  // (e.g. an immediate launch failure with no fallback); folding those in
  // would drag the estimate toward zero and let every future query through
  // the load shedder — an all-failed warm-up batch must leave the seed
  // intact (regression test in tests/test_query_batch.cpp). Warm-started
  // runs are excluded for the same reason: they are systematically cheaper
  // than a cold solve, and the shedder has to keep predicting the cold
  // cost it would pay on a miss. (Cache hits never reach a lane at all,
  // so they cannot skew the EWMA by construction — also regression-
  // tested.)
  // Migrated runs resume a partially solved query, so they are excluded
  // like warm starts.
  if ((out.stats.status == QueryStatus::kOk ||
       out.stats.status == QueryStatus::kRecovered) &&
      !out.stats.warm_started && !out.stats.migrated &&
      out.stats.device_ms > 0) {
    lane.ewma_ms = kLaneCostEwmaAlpha * out.stats.device_ms +
                   (1.0 - kLaneCostEwmaAlpha) * lane.ewma_ms;
  }

  // Publish the terminal outcome at the lane's finish time: completed
  // distances for exact-hit reuse, failures for single-flight sharing
  // (they expire once published; see ResultCache::lookup).
  if (cache_ != nullptr) {
    const double publish_ms = sim_->stream_elapsed_ms(lane.stream);
    if ((out.stats.status == QueryStatus::kOk ||
         out.stats.status == QueryStatus::kRecovered ||
         out.stats.status == QueryStatus::kCpuFallback) &&
        !out.result.sssp.distances.empty()) {
      cache_->publish(source, out.stats.status, out.result.sssp.distances,
                      publish_ms);
    } else if (out.stats.status == QueryStatus::kFailed) {
      cache_->publish(source, QueryStatus::kFailed, {}, publish_ms);
    }
  }
  return out;
}

}  // namespace rdbs::core
