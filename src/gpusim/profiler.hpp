// nvprof-style textual report over a Counters snapshot — the simulator's
// analogue of `nvprof --metrics ...` output used for the paper's Fig. 10.
#pragma once

#include <string>

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"

namespace rdbs::gpusim {

// Multi-line human-readable metric report (one "metric  value" row per
// counter, matching nvprof's naming where one exists).
std::string profiler_report(const Counters& counters,
                            const DeviceSpec& spec);

}  // namespace rdbs::gpusim
