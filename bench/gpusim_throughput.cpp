// Simulator self-throughput: how fast does gpusim itself execute warp
// tasks, and what does gsan cost on top?
//
// This benchmarks the SIMULATOR (host CPU time), not the simulated GPU.
// Every workload runs in two legs:
//
//   * fused — gsan off: every launch charges the caches inline and stores
//     no trace. This is how every engine runs by default.
//   * gsan  — gsan on: the same launches also append each memory op to the
//     compressed trace, and the sanitizer scans it when the launch ends.
//
// Each leg is timed as process CPU time, the median of --reps runs; the
// legs alternate run by run, so host drift hits both alike. The table
// reports fused MWIPS (warp instructions per CPU microsecond) and
// gsan_overhead, gsan CPU time over fused CPU time. Simulated results do
// not depend on gsan (see docs/costmodel.md, "Replay pipeline"); the
// bit_identical column verifies exactly that, end to end, per row: every
// run of both legs must give the full gpusim::Counters, the simulated time
// and, on engine rows, a digest of every returned distance vector equal to
// the first fused run's. On the rdbs/* rows that pits the closed-form
// charge of contiguous loads (WarpCtx::load_range) against the lane path
// gsan takes.
//
// Workloads cover the charge-cost spectrum: streaming loads (perfectly
// coalesced, L1-friendly), scattered loads (32 sectors per warp), an
// atomic-hammer (conflict scan dominated), and full RDBS engine runs on a
// Kronecker and a road surrogate. Devices: V100 and T4 (the paper's two
// platforms). With --scale21, a paper-scale capacity row runs k-n21-16 at
// its full 2^21 vertices. Results go to stdout and BENCH_gpusim.json.
//
// Flags beyond the shared harness set:
//   --reps N               runs per leg; the median is reported (default 5)
//   --quick                micro workloads only, V100 only (CI guard)
//   --max-gsan-overhead X  exit nonzero if any row's gsan_overhead exceeds X
//   --scale21              append the SCALE-21 capacity row (slow)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"

using namespace rdbs;

namespace {

// Process CPU time in ms. gpusim runs on the calling thread, so this is
// the simulator's own work, without the time the host spent elsewhere.
double cpu_ms() {
  return 1e3 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

struct WorkloadResult {
  double cpu_ms = 0;        // host CPU time to simulate
  double simulated_ms = 0;  // what the cost model charged
  gpusim::Counters counters;
  // FNV-1a over the bit patterns of every distance the workload returned
  // (engine rows; the microworkloads return none).
  std::uint64_t distance_digest = 14695981039346656037ull;

  double mwips() const {
    return cpu_ms <= 0 ? 0
                       : static_cast<double>(counters.warp_instructions()) /
                             (cpu_ms * 1e3);
  }
  void digest(const std::vector<graph::Distance>& distances) {
    for (const graph::Distance d : distances) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      distance_digest = (distance_digest ^ bits) * 1099511628211ull;
    }
  }
  bool same_simulation(const WorkloadResult& other) const {
    return simulated_ms == other.simulated_ms && counters == other.counters &&
           distance_digest == other.distance_digest;
  }
};

gpusim::SanitizeMode sanitize_mode(bool gsan) {
  return gsan ? gpusim::SanitizeMode::kOn : gpusim::SanitizeMode::kOff;
}

// --- microworkloads (direct simulator drivers) -----------------------------

constexpr std::uint64_t kMicroTasks = 20000;
constexpr std::uint64_t kQuickTasks = 4000;
constexpr std::size_t kMicroElems = 1 << 20;

// One dynamic launch of `num_tasks` warps over a fresh simulator; `body`
// issues each warp's work. The buffer is host-initialized, so gsan scans
// it without reporting an uninitialized read per element.
template <typename T, typename Body>
WorkloadResult run_micro(const gpusim::DeviceSpec& device, bool gsan,
                         const char* name, std::size_t elems,
                         std::uint64_t num_tasks, Body&& body) {
  gpusim::GpuSim sim(device);
  sim.enable_sanitizer(sanitize_mode(gsan));
  auto buf = sim.alloc<T>(name, elems);
  sim.mark_initialized(buf);
  const double start = cpu_ms();
  const auto launch = sim.run_kernel(
      gpusim::Schedule::kDynamic, num_tasks, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t t) { body(ctx, buf, t); });
  return {cpu_ms() - start, launch.ms, sim.counters()};
}

WorkloadResult run_streaming(const gpusim::DeviceSpec& device, bool gsan,
                             std::uint64_t num_tasks) {
  return run_micro<float>(
      device, gsan, "stream", kMicroElems, num_tasks,
      [](gpusim::WarpCtx& ctx, const gpusim::Buffer<float>& buf,
         std::uint64_t t) {
        std::uint64_t idx[32];
        float out[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          idx[lane] = (t * 32 + lane) % kMicroElems;  // unit stride
        }
        ctx.load(buf, idx, std::span<float>(out, 32));
        ctx.alu(4);
      });
}

WorkloadResult run_scattered(const gpusim::DeviceSpec& device, bool gsan,
                             std::uint64_t num_tasks) {
  return run_micro<float>(
      device, gsan, "scatter", kMicroElems, num_tasks,
      [](gpusim::WarpCtx& ctx, const gpusim::Buffer<float>& buf,
         std::uint64_t t) {
        std::uint64_t idx[32];
        float out[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          // Multiplicative hash: every lane lands in its own sector.
          idx[lane] = ((t * 32 + lane) * 2654435761ull) % kMicroElems;
        }
        ctx.load(buf, idx, std::span<float>(out, 32));
        ctx.alu(4);
      });
}

WorkloadResult run_atomic_hammer(const gpusim::DeviceSpec& device, bool gsan,
                                 std::uint64_t num_tasks) {
  return run_micro<std::uint32_t>(
      device, gsan, "counters", 4096, num_tasks,
      [](gpusim::WarpCtx& ctx, const gpusim::Buffer<std::uint32_t>& buf,
         std::uint64_t t) {
        std::uint64_t idx[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          idx[lane] = (t + lane % 5) % buf.size();  // heavy duplication
        }
        ctx.atomic_touch(buf, idx);
      });
}

// --- full-engine workloads -------------------------------------------------

WorkloadResult run_engine(const graph::Csr& csr,
                          const gpusim::DeviceSpec& device,
                          const std::vector<graph::VertexId>& sources,
                          graph::Weight delta0, bool gsan) {
  core::GpuSsspOptions options;
  options.basyn = options.pro = options.adwl = true;
  options.delta0 = delta0;
  options.sanitize = sanitize_mode(gsan);
  core::RdbsSolver solver(csr, device, options);
  WorkloadResult r;
  const double start = cpu_ms();
  for (const auto source : sources) {
    const core::GpuRunResult result = solver.solve(source);
    r.simulated_ms += result.device_ms;
    r.counters += result.counters;
    r.digest(result.sssp.distances);
  }
  r.cpu_ms = cpu_ms() - start;
  return r;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Row {
  std::string device;
  std::string workload;
  WorkloadResult fused;  // gsan off; cpu_ms is the median over reps
  WorkloadResult gsan;   // gsan on; cpu_ms is the median over reps
  bool bit_identical = true;
  // SCALE-21 capacity extras (zero on ordinary rows).
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;

  double gsan_overhead() const {
    return fused.cpu_ms <= 0 ? 0 : gsan.cpu_ms / fused.cpu_ms;
  }
};

// Runs `reps` alternating (fused, gsan) pairs of `leg(gsan)`. The reported
// CPU times are the per-leg medians; bit_identical holds when every run
// simulated exactly what the first fused run did.
template <typename Leg>
Row measure(std::string device, std::string workload, int reps, Leg&& leg) {
  Row row;
  row.device = std::move(device);
  row.workload = std::move(workload);
  std::vector<double> fused_ms, gsan_ms;
  for (int r = 0; r < std::max(1, reps); ++r) {
    const WorkloadResult fused = leg(false);
    const WorkloadResult gsan = leg(true);
    if (r == 0) {
      row.fused = fused;
      row.gsan = gsan;
    }
    row.bit_identical = row.bit_identical &&
                        fused.same_simulation(row.fused) &&
                        gsan.same_simulation(row.fused);
    fused_ms.push_back(fused.cpu_ms);
    gsan_ms.push_back(gsan.cpu_ms);
  }
  row.fused.cpu_ms = median(fused_ms);
  row.gsan.cpu_ms = median(gsan_ms);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args,
                     {"json", "max-gsan-overhead", "quick", "reps", "scale21"});
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const bool quick = args.get_bool("quick", false);
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const double max_gsan_overhead = args.get_double("max-gsan-overhead", 0.0);
  const bool scale21 = args.get_bool("scale21", false);
  const std::string json_path =
      args.get_string("json", "BENCH_gpusim.json");
  const std::uint64_t micro_tasks = quick ? kQuickTasks : kMicroTasks;

  std::printf(
      "== gpusim self-throughput: fused (gsan off) vs. gsan, process CPU "
      "time, median of %d runs ==\n\n",
      reps);

  std::vector<Row> rows;
  std::vector<gpusim::DeviceSpec> devices = {gpusim::v100()};
  if (!quick) devices.push_back(gpusim::tesla_t4());
  for (const auto& device : devices) {
    rows.push_back(measure(device.name, "streaming-loads", reps, [&](bool g) {
      return run_streaming(device, g, micro_tasks);
    }));
    rows.push_back(measure(device.name, "scattered-loads", reps, [&](bool g) {
      return run_scattered(device, g, micro_tasks);
    }));
    rows.push_back(measure(device.name, "atomic-hammer", reps, [&](bool g) {
      return run_atomic_hammer(device, g, micro_tasks);
    }));
    if (quick) continue;
    for (const char* name : {"k-n21-16", "road-TX"}) {
      const graph::Csr csr = bench::load_bench_graph(name, config);
      const auto sources =
          bench::pick_sources(csr, config.num_sources, config.seed);
      const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
      rows.push_back(measure(device.name, std::string("rdbs/") + name, reps,
                             [&](bool g) {
                               return run_engine(csr, device, sources, delta0,
                                                 g);
                             }));
    }
  }

  if (scale21) {
    // Paper-scale capacity row: k-n21-16 at its full 2^21 vertices
    // (size_scale 6 on the surrogate curve), one source.
    bench::HarnessConfig big = config;
    big.size_scale = 6;
    const graph::Csr csr = bench::load_bench_graph("k-n21-16", big);
    const auto sources = bench::pick_sources(csr, 1, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    const gpusim::DeviceSpec device = gpusim::v100();
    Row row = measure(device.name, "rdbs/k-n21-16/scale21", reps,
                      [&](bool g) {
                        return run_engine(csr, device, sources, delta0, g);
                      });
    row.vertices = csr.num_vertices();
    row.edges = csr.num_edges();
    rows.push_back(row);
  }

  TextTable table({"device", "workload", "fused ms", "gsan ms",
                   "fused MWIPS", "gsan overhead", "sim ms", "identical"});
  for (const auto& row : rows) {
    table.add_row({row.device, row.workload, format_fixed(row.fused.cpu_ms, 2),
                   format_fixed(row.gsan.cpu_ms, 2),
                   format_fixed(row.fused.mwips(), 2),
                   format_speedup(row.gsan_overhead()),
                   format_fixed(row.fused.simulated_ms, 3),
                   row.bit_identical ? "yes" : "NO"});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"timing\": \"process CPU time\",\n");
  std::fprintf(json, "  \"reps\": %d,\n", reps);
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        json,
        "    {\"device\": \"%s\", \"workload\": \"%s\", "
        "\"fused_cpu_ms\": %.3f, \"gsan_cpu_ms\": %.3f, "
        "\"fused_mwips\": %.2f, \"gsan_overhead\": %.3f, "
        "\"warp_instructions\": %llu, \"simulated_ms\": %.4f, "
        "\"bit_identical\": %s",
        row.device.c_str(), row.workload.c_str(), row.fused.cpu_ms,
        row.gsan.cpu_ms, row.fused.mwips(), row.gsan_overhead(),
        static_cast<unsigned long long>(
            row.fused.counters.warp_instructions()),
        row.fused.simulated_ms, row.bit_identical ? "true" : "false");
    if (row.vertices > 0) {
      std::fprintf(json, ", \"vertices\": %llu, \"edges\": %llu",
                   static_cast<unsigned long long>(row.vertices),
                   static_cast<unsigned long long>(row.edges));
    }
    std::fprintf(json, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  bool failed = false;
  // Bit-identity is the determinism contract, not a tunable: any row where
  // a run's counters/cycles/distances differ from the first fused run's
  // fails the bench regardless of flags.
  for (const auto& row : rows) {
    if (!row.bit_identical) {
      std::fprintf(stderr,
                   "FAIL: %s/%s simulated results differ across runs or "
                   "with gsan\n",
                   row.device.c_str(), row.workload.c_str());
      failed = true;
    }
    if (max_gsan_overhead > 0 && row.gsan_overhead() > max_gsan_overhead) {
      std::fprintf(stderr,
                   "FAIL: %s/%s gsan overhead %.3f above the bound %.3f\n",
                   row.device.c_str(), row.workload.c_str(),
                   row.gsan_overhead(), max_gsan_overhead);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
