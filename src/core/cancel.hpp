// Cooperative cancellation for the serving layer (docs/serving.md).
//
// A CancelToken binds one query to an absolute deadline on its stream's
// *simulated* clock. Engines poll it at their natural preemption points —
// the Δ-stepping bucket boundary, the synchronous phase-1 iteration
// boundary, the ADDS near/far round boundary — and AttemptDriver checks it
// before charging a retry (core/recovery.hpp). The simulator itself never
// aborts work: a kernel that was already launched completes and is charged
// (GpuSim counts those completions past the deadline per stream; see
// GpuSim::stream_overrun_kernels), which models CUDA's reality that a
// launched grid cannot be revoked, only not followed by another one.
//
// Because the token reads the simulated stream clock, expiry is a pure
// function of the query's own launch history: bit-identical across reruns
// and for any concurrent-stream layout.
#pragma once

#include "gpusim/sim.hpp"

namespace rdbs::core {

class CancelToken {
 public:
  CancelToken() = default;
  // `deadline_ms` is absolute on `stream`'s clock of `sim`. The token holds
  // its own copy of the deadline, so GpuSim::reset_time (which drops the
  // simulator's stream deadlines) does not disarm it. An engine that owns
  // its simulator resets it at every attempt (core/recovery.hpp), so there
  // the deadline bounds each attempt from its own t=0; on a borrowed
  // stream (the serving layer's lanes) it bounds the whole query.
  CancelToken(gpusim::GpuSim& sim, gpusim::StreamId stream, double deadline_ms)
      : sim_(&sim), stream_(stream), deadline_ms_(deadline_ms) {}

  // True once the stream clock has reached the deadline. Unbound or
  // deadline-less tokens never expire.
  bool expired() const {
    return sim_ != nullptr && deadline_ms_ >= 0 &&
           sim_->stream_elapsed_ms(stream_) >= deadline_ms_;
  }

 private:
  gpusim::GpuSim* sim_ = nullptr;
  gpusim::StreamId stream_ = 0;
  double deadline_ms_ = -1.0;  // negative = no deadline
};

}  // namespace rdbs::core
