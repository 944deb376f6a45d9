#include "gpusim/profiler.hpp"

#include <cstdio>
#include <sstream>

namespace rdbs::gpusim {

namespace {

void row(std::ostringstream& out, const char* metric, const char* desc,
         double value, const char* unit = "") {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-34s %-42s %14.0f %s\n", metric, desc,
                value, unit);
  out << buf;
}

void row_pct(std::ostringstream& out, const char* metric, const char* desc,
             double fraction) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-34s %-42s %13.2f%% \n", metric, desc,
                fraction * 100.0);
  out << buf;
}

}  // namespace

std::string profiler_report(const Counters& c, const DeviceSpec& spec) {
  std::ostringstream out;
  out << "==PROF== device " << spec.name << " (" << spec.num_sms
      << " SMs, " << spec.mem_bandwidth_gbps << " GB/s)\n";
  row(out, "inst_executed_global_loads", "Warp level instructions for global loads",
      double(c.inst_executed_global_loads));
  row(out, "inst_executed_global_stores", "Warp level instructions for global stores",
      double(c.inst_executed_global_stores));
  row(out, "inst_executed_atomics", "Warp level instructions for atom and atom cas",
      double(c.inst_executed_atomics));
  row_pct(out, "global_hit_rate", "Global hit rate in unified l1/tex",
          c.global_hit_rate());
  row_pct(out, "l2_hit_rate", "Hit rate at L2 for all requests",
          c.l2_hit_rate());
  row(out, "gld_transactions", "Global memory sector transactions",
      double(c.memory_transactions));
  row(out, "dram_read_bytes+dram_write_bytes", "Total DRAM traffic",
      double(c.dram_bytes), "B");
  row(out, "atomic_conflicts", "Same-address lane collisions",
      double(c.atomic_conflicts));
  row_pct(out, "warp_execution_efficiency", "Active lanes per issued warp op",
          c.lane_efficiency());
  row(out, "kernel_launches", "Host-side kernel launches",
      double(c.kernel_launches));
  row(out, "child_launches", "Device-side (dynamic parallelism) launches",
      double(c.child_launches));
  return out.str();
}

}  // namespace rdbs::gpusim
