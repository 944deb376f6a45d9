#include "core/rdbs.hpp"

#include <stdexcept>

#include "common/timer.hpp"

namespace rdbs::core {

RdbsSolver::RdbsSolver(const Csr& csr, gpusim::DeviceSpec device,
                       GpuSsspOptions options) {
  Timer timer;
  graph_ = reorder::ProFrontEnd(csr, options.pro, options.delta0);
  preprocessing_ms_ = timer.milliseconds();
  engine_ = std::make_unique<GpuDeltaStepping>(std::move(device),
                                               graph_.csr(), options);
}

void RdbsSolver::set_warm_start(const std::vector<graph::Distance>* bounds) {
  if (bounds != nullptr && bounds->size() != graph_.csr().num_vertices()) {
    throw std::invalid_argument(
        "RdbsSolver: warm_start bounds must cover every vertex");
  }
  engine_->driver().set_warm_start(graph_.to_engine(bounds));
}

GpuRunResult RdbsSolver::solve(VertexId source) {
  if (source >= graph_.csr().num_vertices()) {
    throw std::out_of_range("RdbsSolver: source vertex out of range");
  }
  GpuRunResult result = engine_->run(graph_.to_engine(source));
  graph_.to_caller(result.sssp.distances);
  return result;
}

}  // namespace rdbs::core
