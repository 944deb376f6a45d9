#include "core/rdbs.hpp"

#include <stdexcept>

#include "common/timer.hpp"

namespace rdbs::core {

RdbsSolver::RdbsSolver(const Csr& csr, gpusim::DeviceSpec device,
                       GpuSsspOptions options) {
  Timer timer;
  if (options.pro) {
    reorder::ProResult pro =
        reorder::property_driven_reorder(csr, options.delta0);
    graph_ = std::move(pro.csr);
    perm_ = std::move(pro.perm);
    permuted_ = true;
  } else {
    graph_ = csr;
  }
  preprocessing_ms_ = timer.milliseconds();
  engine_ = std::make_unique<GpuDeltaStepping>(std::move(device), graph_,
                                               options);
}

void RdbsSolver::set_warm_start(const std::vector<graph::Distance>* bounds) {
  if (bounds == nullptr || !permuted_) {
    engine_->driver().set_warm_start(bounds);
    return;
  }
  if (bounds->size() != graph_.num_vertices()) {
    throw std::invalid_argument(
        "RdbsSolver: warm_start bounds must cover every vertex");
  }
  warm_engine_ = perm_.permute(*bounds);
  engine_->driver().set_warm_start(&warm_engine_);
}

GpuRunResult RdbsSolver::solve(VertexId source) {
  if (source >= graph_.num_vertices()) {
    throw std::out_of_range("RdbsSolver: source vertex out of range");
  }
  const VertexId engine_source =
      permuted_ ? perm_.to_reordered(source) : source;
  GpuRunResult result = engine_->run(engine_source);
  // Distances are empty when recovery gave up (retry.cpu_fallback off).
  if (permuted_ && !result.sssp.distances.empty()) {
    result.sssp.distances = perm_.unpermute(result.sssp.distances);
  }
  return result;
}

}  // namespace rdbs::core
