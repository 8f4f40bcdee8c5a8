// Recovery-path benchmarks: what a failure costs, and what insurance
// costs when nothing fails.
//
// Two acceptance bounds, both declared in BENCH_recover.json's gate as
// within-run ratios in the PR 7 noisy-host style (interleaved reps,
// gate on each side's MINIMUM — external load only ever inflates a
// measurement, so the min over several interleaved reps is the
// machine-intrinsic cost):
//
//   - BM_RestoreVsMemcpy: rehydrating a 4 MiB scope checkpoint from the
//     page cache is file open + header/CRC walk + one copy into
//     storage, so it must stay within 4x of a raw memcpy of the same
//     payload (counter restore_ratio_best).
//   - BM_ShrinkVsBarrier: a full shrink on a 4-node x 2-rank cluster —
//     node quiesce, leader agreement over the fabric, view install,
//     engine reset, pod broadcast — must stay within 50x of one
//     cluster barrier on the same topology (counter
//     shrink_ratio_best). Shrink is off the steady-state path, but 50
//     barriers is where "recover" would stop beating "restart".
//
// The committed BENCH_recover.json baseline holds only the
// bandwidth-bound read-side points cross-run (BM_CheckpointRestore and
// BM_CkptMemcpy at 4 MiB); BM_CheckpointSave fsyncs — its absolute
// number belongs to the host's storage stack, not this code — and the
// barrier/shrink points are microsecond-scale, so all three are
// candidate-only, covered by the ratio gate instead.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "hls/checkpoint.hpp"
#include "hls/hls.hpp"
#include "mpi/cluster.hpp"
#include "topo/topology.hpp"

using namespace hlsmpc;
using ult::TaskContext;

namespace {

// ---- checkpoint/restore bandwidth ----

std::string fresh_dir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  const std::string dir =
      std::string(base != nullptr ? base : "/tmp") + "/" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

/// One node-scope array of `bytes` — a single materialized region, so
/// the measured payload is the requested size, not a scope sweep.
hls::VarHandle register_blob(hls::Runtime& rt, std::size_t bytes) {
  hls::ModuleBuilder mb(rt.registry(), "bench");
  auto blob = hls::add_array<std::uint8_t>(mb, "blob", bytes,
                                           topo::node_scope());
  mb.commit();
  return blob.handle();
}

void fill_blob(hls::Runtime& rt, const hls::VarHandle& h) {
  auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(h, 0));
  for (std::size_t i = 0; i < h.size; ++i) {
    p[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
}

void BM_CheckpointSave(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 1);
  const hls::VarHandle h = register_blob(rt, bytes);
  fill_blob(rt, h);
  hls::CheckpointStore store({fresh_dir("bench_recover_save")});
  for (auto _ : state) {
    rt.checkpoint(store, topo::node_scope());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointSave)->Arg(65536)->Arg(4 << 20);

void BM_CheckpointRestore(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 1);
  const hls::VarHandle h = register_blob(rt, bytes);
  fill_blob(rt, h);
  hls::CheckpointStore store({fresh_dir("bench_recover_restore")});
  rt.checkpoint(store, topo::node_scope());
  for (auto _ : state) {
    rt.restore(store, topo::node_scope());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CheckpointRestore)->Arg(65536)->Arg(4 << 20);

void BM_CkptMemcpy(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> src(bytes, 0xA5);
  std::vector<std::uint8_t> dst(bytes);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CkptMemcpy)->Arg(65536)->Arg(4 << 20);

/// The gated bound, interleaved rep by rep: seconds per 4 MiB restore
/// vs seconds per 4 MiB memcpy, ratio of minimums.
void BM_RestoreVsMemcpy(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kReps = 7;
  constexpr int kRounds = 4;
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 1);
  const hls::VarHandle h = register_blob(rt, bytes);
  fill_blob(rt, h);
  hls::CheckpointStore store({fresh_dir("bench_recover_ratio")});
  rt.checkpoint(store, topo::node_scope());
  std::vector<std::uint8_t> src(bytes, 0xA5);
  std::vector<std::uint8_t> dst(bytes);
  for (auto _ : state) {
    double restore_min = std::numeric_limits<double>::infinity();
    double memcpy_min = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < kRounds; ++k) {
        std::memcpy(dst.data(), src.data(), bytes);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
      }
      auto t1 = std::chrono::steady_clock::now();
      for (int k = 0; k < kRounds; ++k) {
        rt.restore(store, topo::node_scope());
        benchmark::ClobberMemory();
      }
      auto t2 = std::chrono::steady_clock::now();
      const double mc =
          std::chrono::duration<double>(t1 - t0).count() / kRounds;
      const double rs =
          std::chrono::duration<double>(t2 - t1).count() / kRounds;
      memcpy_min = std::min(memcpy_min, mc);
      restore_min = std::min(restore_min, rs);
    }
    state.SetIterationTime(restore_min);
    state.counters["restore_us"] = benchmark::Counter(restore_min * 1e6);
    state.counters["memcpy_us"] = benchmark::Counter(memcpy_min * 1e6);
    state.counters["restore_ratio_best"] =
        benchmark::Counter(restore_min / memcpy_min);
  }
}
BENCHMARK(BM_RestoreVsMemcpy)->Arg(4 << 20)->UseManualTime()->Iterations(1);

// ---- shrink latency ----

constexpr int kNodes = 4;
constexpr int kRpn = 2;

mpi::ClusterOptions cluster_opts() {
  mpi::ClusterOptions o;
  o.nnodes = kNodes;
  o.ranks_per_node = kRpn;
  // Fiber executor, like bench_coll: cooperative scheduling on carrier
  // threads keeps the numbers about the protocol's data movement, not
  // kernel scheduler thrash on oversubscribed CI hosts.
  o.executor = mpi::ExecutorKind::fiber;
  return o;
}

/// Seconds per cluster barrier round, one freshly booted cluster.
double barrier_round_seconds(int rounds) {
  mpi::SimCluster cluster(cluster_opts());
  std::atomic<std::int64_t> ns{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    for (int k = 0; k < 4; ++k) comm.barrier(ctx);
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < rounds; ++k) comm.barrier(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    if (comm.rank(ctx) == 0) {
      ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count());
    }
  });
  return static_cast<double>(ns.load()) * 1e-9 / rounds;
}

/// Seconds for one shrink() excluding a killed node, one freshly booted
/// cluster (a shrink rebuilds the view, so it cannot repeat in-run).
/// Measured on global rank 0 from the post-unwind entry to the rebuilt
/// communicator: quiesce barrier, leader agreement over the fabric,
/// view install + engine reset, pod broadcast.
double shrink_seconds() {
  mpi::SimCluster cluster(cluster_opts());
  const int victim = kNodes - 1;
  std::atomic<std::int64_t> ns{0};
  cluster.run([&](mpi::ClusterComm& comm, TaskContext& ctx) {
    const int g = comm.rank(ctx);
    if (comm.node_of(g) == victim) {
      if (comm.local_of(g) == 0) comm.fabric().kill_node(victim);
      return;
    }
    try {
      comm.barrier(ctx);
    } catch (const mpi::NodeDeadError&) {
    }
    const auto t0 = std::chrono::steady_clock::now();
    comm.shrink(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    if (g == 0) {
      ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count());
    }
  });
  return static_cast<double>(ns.load()) * 1e-9;
}

void BM_ClusterBarrier(benchmark::State& state) {
  constexpr int kRounds = 64;
  for (auto _ : state) {
    state.SetIterationTime(barrier_round_seconds(kRounds));
  }
}
BENCHMARK(BM_ClusterBarrier)->UseManualTime()->Iterations(3);

void BM_ClusterShrink(benchmark::State& state) {
  for (auto _ : state) {
    state.SetIterationTime(shrink_seconds());
  }
}
BENCHMARK(BM_ClusterShrink)->UseManualTime()->Iterations(3);

/// The gated bound, interleaved rep by rep: one shrink vs one barrier
/// round on the same 4x2 topology, ratio of minimums.
void BM_ShrinkVsBarrier(benchmark::State& state) {
  constexpr int kReps = 5;
  constexpr int kRounds = 64;
  for (auto _ : state) {
    double barrier_min = std::numeric_limits<double>::infinity();
    double shrink_min = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      barrier_min = std::min(barrier_min, barrier_round_seconds(kRounds));
      shrink_min = std::min(shrink_min, shrink_seconds());
    }
    state.SetIterationTime(shrink_min);
    state.counters["shrink_us"] = benchmark::Counter(shrink_min * 1e6);
    state.counters["barrier_us"] = benchmark::Counter(barrier_min * 1e6);
    state.counters["shrink_ratio_best"] =
        benchmark::Counter(shrink_min / barrier_min);
  }
}
BENCHMARK(BM_ShrinkVsBarrier)->UseManualTime()->Iterations(1);

}  // namespace

// main: bench/gbench_main.cpp (stamps hlsmpc_build_type into the context)
