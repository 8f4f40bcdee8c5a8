// Shared vocabulary of the end-to-end benchmark: what one repetition of a
// workload reports, and the workload interface main.cpp runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Every workload runs 4 ranks on one process (thread executor).
inline constexpr int kRanks = 4;

/// splitmix64 finalizer: every generated input derives from the seed
/// through this.
inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return mix64(state += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// One repetition: set-up, a fixed number of closed-loop steps, checks.
struct Rep {
  double setup_s = 0;
  double solve_s = 0;
  /// Rank 0's wall time of every step; each step ends in a collective
  /// synchronization, so this is the node's step time.
  std::vector<double> step_ms;
  double tracked_peak_mb = 0;
  bool ok = true;
  std::string error;
  /// One span recorder per rank; empty in untraced repetitions.
  std::vector<Tracer> tracers;
  /// Per-layer values measured outside spans (obs counts, mincore, ...).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int steps_per_rep() const = 0;
  /// Build the runtime, run the steps, check the outputs. `traced`
  /// attaches a span recorder per rank (the per-layer run only).
  virtual Rep run_rep(bool traced) = 0;
  /// Per-layer values measured once after the repetitions (batch-timed
  /// warm get_addr).
  virtual void after_run(std::map<std::string, double>& /*layer*/) {}
};

/// Null for an unknown name. `workdir` holds the per-repetition tier and
/// checkpoint directories.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir);

}  // namespace perfbench
