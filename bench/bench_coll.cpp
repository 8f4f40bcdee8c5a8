// Shared-memory vs p2p collective benchmarks (8 ranks on the 2-socket
// reference machine). Each google-benchmark iteration boots a full MPI
// job, runs kRounds of one collective inside it, and reports rank 0's
// wall time per round (manual time, so the job spawn/join cost is not
// measured). The /shm and /p2p variants of each benchmark differ only in
// Options::coll.enable_shm, so their ratio is the engine's win.
//
// Ranks run on the fiber executor: cooperative scheduling on one carrier
// thread makes the numbers dominated by the algorithms' actual data
// movement (copies, message hops) instead of kernel scheduler thrash,
// and keeps them meaningful on CI hosts with fewer cores than ranks.
//
// User counters are the "fewer copies" evidence: mailbox messages, bytes
// memcpy'd by the engine, and copies elided outright (the shared-image
// bcast where every rank passes the same buffer). Totals are divided by
// kRounds; the 4 warmup rounds inflate them by ~1.5%.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "mpi/runtime.hpp"
#include "topo/topology.hpp"

using namespace hlsmpc;
using ult::TaskContext;

namespace {

constexpr int kRanks = 8;
constexpr int kRounds = 64;
constexpr int kWarmup = 4;

/// Per-rank setup: returns the closure run every round, owning that
/// rank's buffers (ranks share the carrier thread under the fiber
/// executor, so buffers must be per-rank locals, not thread_local).
using CollSetup = std::function<std::function<void()>(
    mpi::Comm&, TaskContext&, int me)>;

mpi::ReduceFn sum_fn() {
  return [](void* inout, const void* in, std::size_t count) {
    double* x = static_cast<double*>(inout);
    const double* y = static_cast<const double*>(in);
    for (std::size_t i = 0; i < count; ++i) x[i] += y[i];
  };
}

/// Knobs a benchmark may override on top of the shared 8-rank fiber job.
struct RunOpts {
  bool shm = true;
  int rounds = kRounds;
  /// Monolithic control: clamp pipeline_threshold so every payload takes
  /// the PR 5 zero-copy path regardless of size.
  bool mono = false;
};

void run_rounds(benchmark::State& state, const RunOpts& ro,
                const CollSetup& setup) {
  const topo::Machine machine = topo::Machine::nehalem_ex(2);
  mpi::Options o;
  o.nranks = kRanks;
  o.executor = mpi::ExecutorKind::fiber;
  o.coll.enable_shm = ro.shm;
  if (ro.mono) {
    o.coll.pipeline_threshold = std::numeric_limits<std::size_t>::max();
  }
  const int rounds = ro.rounds;
  const int warmup = std::max(2, rounds / 16);
  double msgs = 0.0;
  double shm_bytes = 0.0;
  double elided = 0.0;
  double fragments = 0.0;
  for (auto _ : state) {
    mpi::Runtime rt(machine, o);
    std::atomic<std::int64_t> ns{0};
    rt.run([&](mpi::Comm& world, TaskContext& ctx) {
      const int me = world.rank(ctx);
      const std::function<void()> op = setup(world, ctx, me);
      for (int k = 0; k < warmup; ++k) op();
      world.barrier(ctx);
      const auto t0 = std::chrono::steady_clock::now();
      for (int k = 0; k < rounds; ++k) op();
      const auto t1 = std::chrono::steady_clock::now();
      if (me == 0) {
        ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                     .count());
      }
    });
    state.SetIterationTime(static_cast<double>(ns.load()) * 1e-9 / rounds);
    msgs = static_cast<double>(rt.stats().messages.load()) / rounds;
    shm_bytes =
        static_cast<double>(
            rt.stats().shm_copied_bytes.load(std::memory_order_relaxed)) /
        rounds;
    elided = static_cast<double>(
                 rt.stats().copies_elided.load(std::memory_order_relaxed)) /
             rounds;
    fragments =
        static_cast<double>(
            rt.stats().shm_fragments.load(std::memory_order_relaxed)) /
        rounds;
  }
  state.counters["msgs_per_round"] = benchmark::Counter(msgs);
  state.counters["shm_bytes_per_round"] = benchmark::Counter(shm_bytes);
  state.counters["elided_per_round"] = benchmark::Counter(elided);
  state.counters["frags_per_round"] = benchmark::Counter(fragments);
}

void run_rounds(benchmark::State& state, bool shm, const CollSetup& setup) {
  RunOpts ro;
  ro.shm = shm;
  run_rounds(state, ro, setup);
}

/// Round count for the message-size sweeps. Sweep benchmarks run exactly
/// one gbench iteration (see the Iterations(1) registrations): the
/// averaging lives in this internal batch instead of gbench's iteration
/// loop, because an iteration reports per-round manual time (~µs at the
/// small sizes) while actually costing rounds x that plus a full 8-rank
/// job boot — letting min_time drive the count would spawn thousands of
/// jobs chasing microseconds of manual-time budget. ~2 MB of traffic per
/// batch lands the 64 B points at ~32k rounds and keeps multi-megabyte
/// points at the 8-round floor.
int sweep_rounds(std::size_t bytes) {
  return static_cast<int>(std::max<std::size_t>(
      (std::size_t{2} << 20) / std::max<std::size_t>(bytes, 1), 8));
}

void BM_Bcast64K(benchmark::State& state, bool shm) {
  run_rounds(state, shm, [](mpi::Comm& world, TaskContext& ctx, int) {
    auto buf =
        std::make_shared<std::vector<std::byte>>(64 * 1024, std::byte{3});
    return [&world, &ctx, buf] {
      world.bcast(ctx, buf->data(), buf->size(), 0);
    };
  });
}
BENCHMARK_CAPTURE(BM_Bcast64K, shm, true)->UseManualTime();
BENCHMARK_CAPTURE(BM_Bcast64K, p2p, false)->UseManualTime();

void BM_BcastSharedImage64K(benchmark::State& state, bool shm) {
  // Every rank passes the same buffer (one address space — the HLS
  // shared-image pattern): the engine elides all n-1 copies. Only
  // meaningful on the shm path; p2p would recv into the shared buffer
  // from several ranks at once.
  auto shared =
      std::make_shared<std::vector<std::byte>>(64 * 1024, std::byte{5});
  run_rounds(state, shm, [shared](mpi::Comm& world, TaskContext& ctx, int) {
    return [&world, &ctx, shared] {
      world.bcast(ctx, shared->data(), shared->size(), 0);
    };
  });
}
BENCHMARK_CAPTURE(BM_BcastSharedImage64K, shm, true)->UseManualTime();

void BM_Allreduce128K(benchmark::State& state, bool shm) {
  run_rounds(state, shm, [](mpi::Comm& world, TaskContext& ctx, int me) {
    constexpr std::size_t kCount = 16 * 1024;  // doubles, 128 KB
    auto in = std::make_shared<std::vector<double>>(
        kCount, static_cast<double>(me + 1));
    auto out = std::make_shared<std::vector<double>>(kCount);
    return [&world, &ctx, in, out] {
      world.allreduce(ctx, in->data(), out->data(), in->size(),
                      sizeof(double), sum_fn());
    };
  });
}
BENCHMARK_CAPTURE(BM_Allreduce128K, shm, true)->UseManualTime();
BENCHMARK_CAPTURE(BM_Allreduce128K, p2p, false)->UseManualTime();

void BM_Allreduce64B(benchmark::State& state, bool shm) {
  // Small payload: the flat staged path (one copy through the inline
  // slot) against the p2p reduce+bcast funnel.
  run_rounds(state, shm, [](mpi::Comm& world, TaskContext& ctx, int me) {
    constexpr std::size_t kCount = 8;  // doubles, 64 B
    auto in = std::make_shared<std::vector<double>>(
        kCount, static_cast<double>(me + 1));
    auto out = std::make_shared<std::vector<double>>(kCount);
    return [&world, &ctx, in, out] {
      world.allreduce(ctx, in->data(), out->data(), in->size(),
                      sizeof(double), sum_fn());
    };
  });
}
BENCHMARK_CAPTURE(BM_Allreduce64B, shm, true)->UseManualTime();
BENCHMARK_CAPTURE(BM_Allreduce64B, p2p, false)->UseManualTime();

void BM_Allgather8K(benchmark::State& state, bool shm) {
  run_rounds(state, shm, [](mpi::Comm& world, TaskContext& ctx, int me) {
    constexpr std::size_t kBytes = 8 * 1024;  // per rank
    auto in = std::make_shared<std::vector<std::byte>>(
        kBytes, static_cast<std::byte>(me));
    auto all = std::make_shared<std::vector<std::byte>>(kBytes * kRanks);
    return [&world, &ctx, in, all] {
      world.allgather(ctx, in->data(), in->size(), all->data());
    };
  });
}
BENCHMARK_CAPTURE(BM_Allgather8K, shm, true)->UseManualTime();
BENCHMARK_CAPTURE(BM_Allgather8K, p2p, false)->UseManualTime();

void BM_Barrier(benchmark::State& state, bool shm) {
  run_rounds(state, shm, [](mpi::Comm& world, TaskContext& ctx, int) {
    return [&world, &ctx] { world.barrier(ctx); };
  });
}
BENCHMARK_CAPTURE(BM_Barrier, shm, true)->UseManualTime();
BENCHMARK_CAPTURE(BM_Barrier, p2p, false)->UseManualTime();

// ---- OSU-style message-size sweeps (64 B .. 1 MB, powers of two) ----
//
// One benchmark point per payload size on the shm engine's default
// selector, so the full small/staged -> zero-copy -> pipelined crossover
// curve lands in BENCH_coll.json and regressions at any size are caught
// by the bench gate. bytes_per_second turns the curve into throughput
// (payload bytes for bcast/allreduce, gathered total for allgather).

void BM_BcastSweep(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  RunOpts ro;
  ro.rounds = sweep_rounds(bytes);
  run_rounds(state, ro, [bytes](mpi::Comm& world, TaskContext& ctx, int) {
    auto buf = std::make_shared<std::vector<std::byte>>(bytes, std::byte{3});
    return [&world, &ctx, buf] {
      world.bcast(ctx, buf->data(), buf->size(), 0);
    };
  });
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BcastSweep)->RangeMultiplier(2)->Range(64, 1 << 20)
    ->UseManualTime()->Iterations(1);

void BM_AllreduceSweep(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / sizeof(double);
  RunOpts ro;
  ro.rounds = sweep_rounds(bytes);
  run_rounds(state, ro, [count](mpi::Comm& world, TaskContext& ctx, int me) {
    auto in = std::make_shared<std::vector<double>>(
        count, static_cast<double>(me + 1));
    auto out = std::make_shared<std::vector<double>>(count);
    return [&world, &ctx, in, out] {
      world.allreduce(ctx, in->data(), out->data(), in->size(),
                      sizeof(double), sum_fn());
    };
  });
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AllreduceSweep)->RangeMultiplier(2)->Range(64, 1 << 20)
    ->UseManualTime()->Iterations(1);

void BM_AllgatherSweep(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));  // per rank
  RunOpts ro;
  ro.rounds = sweep_rounds(bytes * kRanks);
  run_rounds(state, ro, [bytes](mpi::Comm& world, TaskContext& ctx, int me) {
    auto in = std::make_shared<std::vector<std::byte>>(
        bytes, static_cast<std::byte>(me));
    auto all = std::make_shared<std::vector<std::byte>>(bytes * kRanks);
    return [&world, &ctx, in, all] {
      world.allgather(ctx, in->data(), in->size(), all->data());
    };
  });
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes * kRanks));
}
BENCHMARK(BM_AllgatherSweep)->RangeMultiplier(2)->Range(64, 1 << 20)
    ->UseManualTime()->Iterations(1);

// ---- pipelined vs monolithic zero-copy (the PR 7 acceptance pair) ----
//
// Same allreduce, same ranks, same engine: the only difference is the
// Mono variant clamping pipeline_threshold to SIZE_MAX so large payloads
// stay on the PR 5 monolithic path. BENCH_coll.json's gate holds the
// within-run ratio: pipelined >= 1.3x throughput at 4 MB (where per-rank
// working sets spill L2 and fragment blocking pays), no loss at 1 MB,
// and no small-message regression at 1 KB (where both variants select
// the identical staged path).

void BM_AllreducePipelined(benchmark::State& state, bool mono) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / sizeof(double);
  RunOpts ro;
  ro.rounds = sweep_rounds(bytes);
  ro.mono = mono;
  run_rounds(state, ro, [count](mpi::Comm& world, TaskContext& ctx, int me) {
    auto in = std::make_shared<std::vector<double>>(
        count, static_cast<double>(me + 1));
    auto out = std::make_shared<std::vector<double>>(count);
    return [&world, &ctx, in, out] {
      world.allreduce(ctx, in->data(), out->data(), in->size(),
                      sizeof(double), sum_fn());
    };
  });
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK_CAPTURE(BM_AllreducePipelined, pipe, false)
    ->Arg(1024)->Arg(1 << 20)->Arg(4 << 20)->UseManualTime()->Iterations(1);
BENCHMARK_CAPTURE(BM_AllreducePipelined, mono, true)
    ->Arg(1024)->Arg(1 << 20)->Arg(4 << 20)->UseManualTime()->Iterations(1);

/// Seconds per allreduce round for one freshly booted 8-rank job.
double allreduce_round_seconds(std::size_t count, bool mono, int rounds) {
  const topo::Machine machine = topo::Machine::nehalem_ex(2);
  mpi::Options o;
  o.nranks = kRanks;
  o.executor = mpi::ExecutorKind::fiber;
  if (mono) {
    o.coll.pipeline_threshold = std::numeric_limits<std::size_t>::max();
  }
  const int warmup = std::max(2, rounds / 16);
  std::atomic<std::int64_t> ns{0};
  mpi::Runtime rt(machine, o);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    std::vector<double> in(count, static_cast<double>(me + 1));
    std::vector<double> out(count);
    const auto op = [&] {
      world.allreduce(ctx, in.data(), out.data(), count, sizeof(double),
                      sum_fn());
    };
    for (int k = 0; k < warmup; ++k) op();
    world.barrier(ctx);
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < rounds; ++k) op();
    const auto t1 = std::chrono::steady_clock::now();
    if (me == 0) {
      ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
    }
  });
  return static_cast<double>(ns.load()) * 1e-9 / rounds;
}

// The gated acceptance number. The /pipe and /mono points above draw the
// curve, but single-batch cross-benchmark ratios inherit the host's load
// drift (this VM swings 30%+ between batches); this benchmark interleaves
// mono and pipelined batches rep by rep and gates on the ratio of each
// variant's MINIMUM batch time. External load and CPU steal only ever
// inflate a batch, so the min over several interleaved reps is each
// path's quiet-window cost — the machine-intrinsic number — where a
// median of per-rep ratios still collapses when steal is sustained
// across most reps. BENCH_coll.json's gate holds the bounds on the
// speedup_best counter; speedup_median rides along as context.
void BM_AllreducePipelineSpeedup(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const std::size_t count = bytes / sizeof(double);
  const int rounds = sweep_rounds(bytes);
  constexpr int kReps = 7;
  for (auto _ : state) {
    std::vector<double> ratios;
    double pipe_min = std::numeric_limits<double>::infinity();
    double mono_min = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const double m = allreduce_round_seconds(count, /*mono=*/true, rounds);
      const double p = allreduce_round_seconds(count, /*mono=*/false, rounds);
      mono_min = std::min(mono_min, m);
      pipe_min = std::min(pipe_min, p);
      ratios.push_back(m / p);
    }
    std::sort(ratios.begin(), ratios.end());
    state.SetIterationTime(pipe_min);
    state.counters["speedup_best"] = benchmark::Counter(mono_min / pipe_min);
    state.counters["speedup_median"] = benchmark::Counter(ratios[kReps / 2]);
    state.counters["mono_us"] = benchmark::Counter(mono_min * 1e6);
    state.counters["pipe_us"] = benchmark::Counter(pipe_min * 1e6);
  }
}
BENCHMARK(BM_AllreducePipelineSpeedup)
    ->Arg(1024)->Arg(1 << 20)->Arg(4 << 20)->UseManualTime()->Iterations(1);

}  // namespace

// main: bench/gbench_main.cpp (stamps hlsmpc_build_type into the context)
