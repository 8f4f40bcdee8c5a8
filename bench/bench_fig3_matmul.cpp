// Reproduces Figure 3: "Performance improvement due to cache footprint
// reduction on the matrix multiplication benchmark on 4 Nehalem-EX."
//
// For a sweep of matrix sizes, prints the normalized performance
// (flops/cycle per task) of sequential / plain MPI / HLS node / HLS numa,
// for the no-update and update variants. Expected shape: all series equal
// while everything fits in cache; MPI falls off first (B duplicated);
// HLS tracks sequential longer; the gap is maximal where MPI goes off
// cache and narrows for very large sizes; with updates, numa beats node
// at sizes where B could stay cached between timesteps.
//
// Usage: bench_fig3_matmul [--quick] [--sockets N] [--json] [--trace FILE]
//   --json emits the sweep in google-benchmark's JSON shape (a
//   "benchmarks" array with one entry per (variant, mode, N), metric in
//   "perf", higher is better) so bench/compare.py can diff runs. The
//   N=32 entries additionally carry a "counters" object with the obs
//   totals of a *real* runtime execution of that configuration —
//   deterministic episode counts compare.py diffs alongside the perf
//   metric.
//   --trace FILE runs the update/hls_numa configuration on the runtime
//   and writes its event stream as a Chrome trace_event JSON, loadable
//   in Perfetto (https://ui.perfetto.dev).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/matmul/matmul.hpp"

using namespace hlsmpc;
using apps::matmul::Config;
using apps::matmul::Mode;

namespace {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::sequential:
      return "sequential";
    case Mode::mpi_private:
      return "mpi";
    case Mode::hls_node:
      return "hls_node";
    case Mode::hls_numa:
      return "hls_numa";
  }
  return "?";
}

/// The sweep point whose JSON entries carry runtime counters: present in
/// both the quick and the full size list, small enough that the real
/// execution is cheap next to the cache-simulated sweep.
constexpr int kObsN = 32;

/// Execute `cfg` for real on an mpc::Node and return the node-wide obs
/// counter totals as JSON object text. When `trace_path` is non-empty,
/// also drain the event stream into a Chrome trace_event file there.
std::string run_real_counters(const topo::Machine& machine, Config cfg,
                              Mode mode, const std::string& trace_path) {
  mpc::Node node(machine, {});
  apps::matmul::run_on_node(node, cfg, mode);
  obs::Recorder* rec = node.obs();
  const obs::Snapshot snap = rec->snapshot();
  std::string out = "{";
  for (int c = 0; c < obs::kNumCounters; ++c) {
    out += (c == 0 ? "" : ", ");
    out += std::string("\"") + obs::to_string(static_cast<obs::Counter>(c)) +
           "\": " + std::to_string(snap.value(static_cast<obs::Counter>(c)));
  }
  out += "}";
  if (!trace_path.empty()) {
    const topo::DenseScopeTable& scopes = node.hls_rt().registry().scopes();
    obs::TraceNaming naming;
    naming.process_name = "bench_fig3_matmul";
    naming.scope_name = [&scopes](int sid) { return scopes.name(sid); };
    std::ofstream f(trace_path);
    obs::write_chrome_trace(f, rec->events(), naming);
    std::fprintf(stderr, "wrote Chrome trace to %s (%zu events)\n",
                 trace_path.c_str(), rec->events().size());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  int sockets = 4;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--sockets") == 0 && i + 1 < argc) {
      sockets = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }
  constexpr int kScale = 64;
  const topo::Machine machine = topo::Machine::nehalem_ex(sockets, kScale);
  const int ntasks = machine.num_cpus();

  std::vector<int> sizes = {16, 24, 32, 48, 64, 96, 128, 160};
  if (quick) sizes = {16, 32, 64, 96};

  if (!json) {
    std::printf("Figure 3 reproduction: matmul C <- A*B + C, shared B\n");
    std::printf("machine: %s (x1/%d capacity), %d tasks; perf = flops/cycle"
                "/task\n",
                machine.name().c_str(), kScale, ntasks);
  } else {
    std::printf("{\n  \"benchmarks\": [");
  }
  bool first_entry = true;
  for (bool update : {false, true}) {
    if (!json) {
      std::printf("\n-- %s version --\n", update ? "update" : "no-update");
      std::printf("%6s %12s %12s %12s %12s\n", "N", "sequential", "MPI",
                  "HLS node", "HLS numa");
    }
    for (int n : sizes) {
      Config cfg;
      cfg.n = n;
      cfg.block = 8;
      cfg.timesteps = quick ? 2 : 3;
      cfg.update_b = update;
      double perf[4];
      int i = 0;
      for (Mode mode : {Mode::sequential, Mode::mpi_private, Mode::hls_node,
                        Mode::hls_numa}) {
        perf[i] = apps::matmul::simulate(machine, cfg, mode, ntasks).perf;
        if (json) {
          const std::string name = std::string("fig3/") +
                                   (update ? "update" : "noupdate") + "/" +
                                   mode_name(mode) + "/N:" + std::to_string(n);
          std::string counters;
          if (n == kObsN && mode != Mode::sequential) {
            counters =
                ", \"counters\": " + run_real_counters(machine, cfg, mode, "");
          }
          std::printf("%s\n    {\"name\": \"%s\", \"perf\": %.6f%s}",
                      first_entry ? "" : ",", name.c_str(), perf[i],
                      counters.c_str());
          first_entry = false;
        }
        ++i;
      }
      if (!json) {
        std::printf("%6d %12.3f %12.3f %12.3f %12.3f\n", n, perf[0], perf[1],
                    perf[2], perf[3]);
      }
    }
  }
  if (!trace_path.empty()) {
    Config cfg;
    cfg.n = kObsN;
    cfg.block = 8;
    cfg.timesteps = quick ? 2 : 3;
    cfg.update_b = true;
    run_real_counters(machine, cfg, Mode::hls_numa, trace_path);
  }
  if (json) {
    std::printf("\n  ]\n}\n");
  } else {
    std::printf(
        "\nexpected shape (paper, fig. 3): MPI falls off cache first; HLS "
        "follows sequential; gap max at the MPI falloff point; update: numa "
        ">= node at small sizes.\n");
  }
  return 0;
}
