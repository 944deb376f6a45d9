// Wall-clock timing utilities for host-side (CPU) measurements.
//
// GPU-side "time" in this library comes from the gpusim cost model, not from
// these timers; Timer is used for CPU baselines (PQ-Δ*, Dijkstra) and for
// harness bookkeeping.
#pragma once

#include <chrono>

namespace rdbs {

class Timer {
 public:
  Timer() { reset(); }

  void reset() { start_ = Clock::now(); }

  // Elapsed time since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rdbs
