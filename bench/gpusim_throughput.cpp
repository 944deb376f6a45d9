// Simulator self-throughput: how fast does gpusim itself execute warp
// tasks, two-pass replay vs. the fused pipeline?
//
// This benchmarks the SIMULATOR (host wall-clock), not the simulated GPU.
// Every workload runs twice:
//
//   * baseline — two-pass record+replay (ReplayMode::kTwoPass): every
//     launch materializes its compressed trace, then replays it on 1
//     worker. This is the path gsan runs on.
//   * overhaul — ReplayMode::kAuto: fused single-pass record+replay
//     whenever no trace consumer needs materialization, and --par-threads
//     replay workers for any launch that does go two-pass.
//
// The speedup column is the wall-clock ratio baseline/overhaul. Simulated
// results are bit-identical across replay modes and worker counts by
// construction (see docs/costmodel.md, "Parallel execution & determinism");
// the bit_identical column verifies exactly that, end to end, per row: the
// full gpusim::Counters, the simulated time and, on engine rows, a digest
// of every returned distance vector. On the rdbs/* rows that pits the
// fused closed-form charge of contiguous loads (WarpCtx::load_range)
// against the two-pass lane path.
//
// Workloads cover the replay cost spectrum: streaming loads (perfectly
// coalesced, L1-friendly), scattered loads (32 sectors per warp), an
// atomic-hammer (conflict scan dominated), and full RDBS engine runs on a
// Kronecker and a road surrogate. Devices: V100 and T4 (the paper's two
// platforms). With --scale21, a paper-scale capacity row runs k-n21-16 at
// its full 2^21 vertices and reports the baseline's peak trace footprint.
// Results go to stdout and BENCH_gpusim.json.
//
// Flags beyond the shared harness set:
//   --par-threads N    replay workers for the overhaul rows (default 4)
//   --quick            micro workloads only, V100 only (CI regression guard)
//   --min-speedup X    exit nonzero if any row's speedup falls below X
//   --scale21          append the SCALE-21 capacity row (slow)
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/experiment.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

using namespace rdbs;

namespace {

// One pipeline configuration a workload runs under. Applied through the
// process-wide defaults so engine-internal simulators pick it up too.
struct PipelineConfig {
  gpusim::ReplayMode mode = gpusim::ReplayMode::kAuto;
  int threads = 1;

  void apply() const {
    gpusim::GpuSim::set_default_replay_mode(mode);
    gpusim::GpuSim::set_default_worker_threads(threads);
  }
};

PipelineConfig baseline_config() { return {gpusim::ReplayMode::kTwoPass, 1}; }

PipelineConfig overhaul_config(int par_threads) {
  return {gpusim::ReplayMode::kAuto, par_threads};
}

struct WorkloadResult {
  double wall_ms = 0;       // host time to simulate
  double simulated_ms = 0;  // what the cost model charged
  gpusim::Counters counters;
  // FNV-1a over the bit patterns of every distance the workload returned
  // (engine rows; the microworkloads return none).
  std::uint64_t distance_digest = 14695981039346656037ull;

  double mwips() const {
    return wall_ms <= 0 ? 0
                        : static_cast<double>(counters.warp_instructions()) /
                              (wall_ms * 1e3);
  }
  void digest(const std::vector<graph::Distance>& distances) {
    for (const graph::Distance d : distances) {
      std::uint64_t bits;
      std::memcpy(&bits, &d, sizeof bits);
      distance_digest = (distance_digest ^ bits) * 1099511628211ull;
    }
  }
};

// --- microworkloads (direct simulator drivers) -----------------------------

constexpr std::uint64_t kMicroTasks = 20000;
constexpr std::uint64_t kQuickTasks = 4000;
constexpr std::size_t kMicroElems = 1 << 20;

WorkloadResult run_streaming(const gpusim::DeviceSpec& device,
                             const PipelineConfig& pipeline,
                             std::uint64_t num_tasks) {
  pipeline.apply();
  gpusim::GpuSim sim(device);
  auto buf = sim.alloc<float>("stream", kMicroElems);
  Timer timer;
  const auto launch = sim.run_kernel(
      gpusim::Schedule::kDynamic, num_tasks, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t t) {
        std::uint64_t idx[32];
        float out[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          idx[lane] = (t * 32 + lane) % kMicroElems;  // unit stride
        }
        ctx.load(buf, idx, std::span<float>(out, 32));
        ctx.alu(4);
      });
  return {timer.milliseconds(), launch.ms, sim.counters()};
}

WorkloadResult run_scattered(const gpusim::DeviceSpec& device,
                             const PipelineConfig& pipeline,
                             std::uint64_t num_tasks) {
  pipeline.apply();
  gpusim::GpuSim sim(device);
  auto buf = sim.alloc<float>("scatter", kMicroElems);
  Timer timer;
  const auto launch = sim.run_kernel(
      gpusim::Schedule::kDynamic, num_tasks, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t t) {
        std::uint64_t idx[32];
        float out[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          // Multiplicative hash: every lane lands in its own sector.
          idx[lane] = ((t * 32 + lane) * 2654435761ull) % kMicroElems;
        }
        ctx.load(buf, idx, std::span<float>(out, 32));
        ctx.alu(4);
      });
  return {timer.milliseconds(), launch.ms, sim.counters()};
}

WorkloadResult run_atomic_hammer(const gpusim::DeviceSpec& device,
                                 const PipelineConfig& pipeline,
                                 std::uint64_t num_tasks) {
  pipeline.apply();
  gpusim::GpuSim sim(device);
  auto buf = sim.alloc<std::uint32_t>("counters", 4096);
  Timer timer;
  const auto launch = sim.run_kernel(
      gpusim::Schedule::kDynamic, num_tasks, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t t) {
        std::uint64_t idx[32];
        for (std::uint32_t lane = 0; lane < 32; ++lane) {
          idx[lane] = (t + lane % 5) % buf.size();  // heavy duplication
        }
        ctx.atomic_touch(buf, idx);
      });
  return {timer.milliseconds(), launch.ms, sim.counters()};
}

// --- full-engine workloads -------------------------------------------------

WorkloadResult run_engine(const graph::Csr& csr,
                          const gpusim::DeviceSpec& device,
                          const std::vector<graph::VertexId>& sources,
                          graph::Weight delta0,
                          const PipelineConfig& pipeline,
                          gpusim::TraceStats* stats_out = nullptr) {
  pipeline.apply();
  core::GpuSsspOptions options;
  options.basyn = options.pro = options.adwl = true;
  options.delta0 = delta0;
  options.sim_threads = pipeline.threads;
  core::RdbsSolver solver(csr, device, options);
  WorkloadResult r;
  Timer timer;
  for (const auto source : sources) {
    const core::GpuRunResult result = solver.solve(source);
    r.simulated_ms += result.device_ms;
    r.counters += result.counters;
    r.digest(result.sssp.distances);
  }
  r.wall_ms = timer.milliseconds();
  if (stats_out != nullptr) *stats_out = solver.sim().trace_stats();
  return r;
}

// Wall-clock noise on a shared single-core host swamps single-shot timings;
// every row therefore reports the minimum wall over `reps` identical runs.
// The simulator is deterministic, so all reps produce identical counters and
// simulated time — only the host timing varies.
template <typename Fn>
WorkloadResult best_of(int reps, Fn&& fn) {
  WorkloadResult best = fn();
  for (int r = 1; r < reps; ++r) {
    const WorkloadResult next = fn();
    if (next.wall_ms < best.wall_ms) best.wall_ms = next.wall_ms;
  }
  return best;
}

struct Row {
  std::string device;
  std::string workload;
  WorkloadResult serial;    // baseline pipeline (JSON key serial_*)
  WorkloadResult parallel;  // overhauled pipeline (JSON key parallel_*)
  // SCALE-21 capacity extras (zero on ordinary rows).
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint64_t trace_bytes = 0;

  double speedup() const {
    return parallel.wall_ms <= 0 ? 0 : serial.wall_ms / parallel.wall_ms;
  }
  bool bit_identical() const {
    return serial.simulated_ms == parallel.simulated_ms &&
           serial.counters == parallel.counters &&
           serial.distance_digest == parallel.distance_digest;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bench::HarnessConfig config = bench::HarnessConfig::from_cli(args);
  const int par_threads = static_cast<int>(args.get_int("par-threads", 4));
  const bool quick = args.get_bool("quick", false);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const double min_speedup = args.get_double("min-speedup", 0.0);
  const bool scale21 = args.get_bool("scale21", false);
  const std::string json_path =
      args.get_string("json", "BENCH_gpusim.json");

  const PipelineConfig baseline = baseline_config();
  const PipelineConfig overhaul = overhaul_config(par_threads);
  const std::uint64_t micro_tasks = quick ? kQuickTasks : kMicroTasks;

  std::printf(
      "== gpusim self-throughput: baseline (two-pass, 1 worker) vs. "
      "overhaul (fused, %d workers) ==\n",
      par_threads);
  std::printf("parallel_compiled=%d\n\n",
              gpusim::GpuSim::parallel_compiled() ? 1 : 0);

  std::vector<Row> rows;
  std::vector<gpusim::DeviceSpec> devices = {gpusim::v100()};
  if (!quick) devices.push_back(gpusim::tesla_t4());
  for (const auto& device : devices) {
    rows.push_back({device.name, "streaming-loads",
                    best_of(reps, [&] {
                      return run_streaming(device, baseline, micro_tasks);
                    }),
                    best_of(reps, [&] {
                      return run_streaming(device, overhaul, micro_tasks);
                    })});
    // Fully-diverged warps give the fused pipeline nothing to coalesce
    // away, so scattered-loads sits at parity by design and jitters either
    // side of 1.0x on a noisy host. It stays in the full run as the
    // documented worst case but is excluded from --quick, whose rows feed
    // the CI --min-speedup gate.
    if (!quick) {
      rows.push_back({device.name, "scattered-loads",
                      best_of(reps, [&] {
                        return run_scattered(device, baseline, micro_tasks);
                      }),
                      best_of(reps, [&] {
                        return run_scattered(device, overhaul, micro_tasks);
                      })});
    }
    rows.push_back({device.name, "atomic-hammer",
                    best_of(reps, [&] {
                      return run_atomic_hammer(device, baseline, micro_tasks);
                    }),
                    best_of(reps, [&] {
                      return run_atomic_hammer(device, overhaul, micro_tasks);
                    })});
    if (quick) continue;
    for (const char* name : {"k-n21-16", "road-TX"}) {
      const graph::Csr csr = bench::load_bench_graph(name, config);
      const auto sources =
          bench::pick_sources(csr, config.num_sources, config.seed);
      const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
      rows.push_back({device.name, std::string("rdbs/") + name,
                      best_of(reps, [&] {
                        return run_engine(csr, device, sources, delta0,
                                          baseline);
                      }),
                      best_of(reps, [&] {
                        return run_engine(csr, device, sources, delta0,
                                          overhaul);
                      })});
    }
  }

  if (scale21) {
    // Paper-scale capacity row: k-n21-16 at its full 2^21 vertices
    // (size_scale 6 on the surrogate curve). One source; the row also
    // reports the peak materialized trace, read off the two-pass baseline
    // (fused launches store no trace at all).
    bench::HarnessConfig big = config;
    big.size_scale = 6;
    const graph::Csr csr = bench::load_bench_graph("k-n21-16", big);
    const auto sources = bench::pick_sources(csr, 1, config.seed);
    const graph::Weight delta0 = bench::empirical_delta0(csr, config.seed);
    const gpusim::DeviceSpec device = gpusim::v100();
    Row row;
    row.device = device.name;
    row.workload = "rdbs/k-n21-16/scale21";
    gpusim::TraceStats stats;
    row.serial = best_of(reps, [&] {
      return run_engine(csr, device, sources, delta0, baseline, &stats);
    });
    row.parallel = best_of(
        reps, [&] { return run_engine(csr, device, sources, delta0, overhaul); });
    row.vertices = csr.num_vertices();
    row.edges = csr.num_edges();
    row.trace_bytes = stats.peak_trace_bytes;
    rows.push_back(row);
  }

  TextTable table({"device", "workload", "baseline ms", "overhaul ms",
                   "speedup", "baseline MWIPS", "overhaul MWIPS", "sim ms",
                   "identical"});
  for (const auto& row : rows) {
    table.add_row({row.device, row.workload,
                   format_fixed(row.serial.wall_ms, 2),
                   format_fixed(row.parallel.wall_ms, 2),
                   format_speedup(row.speedup()),
                   format_fixed(row.serial.mwips(), 2),
                   format_fixed(row.parallel.mwips(), 2),
                   format_fixed(row.serial.simulated_ms, 3),
                   row.bit_identical() ? "yes" : "NO"});
  }
  std::fputs(table.render().c_str(), stdout);
  if (config.csv) std::fputs(table.render_csv().c_str(), stdout);

  for (const auto& row : rows) {
    if (row.trace_bytes > 0) {
      std::printf(
          "\ncapacity %s: %llu vertices, %llu edges, peak trace %.1f MiB\n",
          row.workload.c_str(),
          static_cast<unsigned long long>(row.vertices),
          static_cast<unsigned long long>(row.edges),
          static_cast<double>(row.trace_bytes) / (1024.0 * 1024.0));
    }
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n  \"parallel_compiled\": %s,\n",
               gpusim::GpuSim::parallel_compiled() ? "true" : "false");
  std::fprintf(json, "  \"parallel_threads\": %d,\n", par_threads);
  // Speedup is the algorithmic pipeline gain plus (on multi-core hosts)
  // replay parallelism; on a 1-core host only the former contributes.
  std::fprintf(json, "  \"host_hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(
        json,
        "    {\"device\": \"%s\", \"workload\": \"%s\", "
        "\"serial_wall_ms\": %.3f, \"parallel_wall_ms\": %.3f, "
        "\"speedup\": %.3f, \"serial_mwips\": %.2f, "
        "\"parallel_mwips\": %.2f, \"warp_instructions\": %llu, "
        "\"simulated_ms\": %.4f, \"bit_identical\": %s",
        row.device.c_str(), row.workload.c_str(), row.serial.wall_ms,
        row.parallel.wall_ms, row.speedup(), row.serial.mwips(),
        row.parallel.mwips(),
        static_cast<unsigned long long>(
            row.serial.counters.warp_instructions()),
        row.serial.simulated_ms, row.bit_identical() ? "true" : "false");
    if (row.trace_bytes > 0) {
      std::fprintf(
          json,
          ", \"vertices\": %llu, \"edges\": %llu, \"trace_bytes\": %llu",
          static_cast<unsigned long long>(row.vertices),
          static_cast<unsigned long long>(row.edges),
          static_cast<unsigned long long>(row.trace_bytes));
    }
    std::fprintf(json, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path.c_str());

  bool failed = false;
  // Bit-identity is the determinism contract, not a tunable: any row where
  // the fused pipeline's counters/cycles/distances differ from the two-pass
  // baseline's fails the bench regardless of flags.
  for (const auto& row : rows) {
    if (!row.bit_identical()) {
      std::fprintf(stderr,
                   "FAIL: %s/%s simulated results differ across modes\n",
                   row.device.c_str(), row.workload.c_str());
      failed = true;
    }
    if (min_speedup > 0 && row.speedup() < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: %s/%s speedup %.3f below required %.3f\n",
                   row.device.c_str(), row.workload.c_str(), row.speedup(),
                   min_speedup);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
