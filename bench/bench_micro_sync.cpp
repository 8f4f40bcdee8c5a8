// Micro-benchmarks of the HLS runtime primitives (paper §IV.A-B):
//  - hls_get_addr resolution cost (the per-access overhead the paper
//    calls "negligible" in §V.B),
//  - barrier: flat counter algorithm vs the shared-cache-aware
//    hierarchical algorithm (design decision 2 in DESIGN.md),
//  - single (modified barrier, §IV.B) vs the naive barrier/flag/barrier
//    formulation it replaces (design decision 1),
//  - single nowait (generation counters).
//
// Multi-threaded numbers are relative: this host may oversubscribe the
// benchmark threads onto fewer physical cores.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "hls/hls.hpp"
#include "ult/task_context.hpp"

using namespace hlsmpc;

namespace {

/// Shared fixture for N-thread synchronization benches. Leaked on purpose
/// (google-benchmark offers no cross-thread teardown point).
struct SyncFixture {
  topo::Machine machine = topo::Machine::nehalem_ex(4);
  hls::Runtime rt;
  hls::Var<int> var;

  SyncFixture(int nthreads, const topo::ScopeSpec& scope, bool force_flat)
      : rt(machine, nthreads) {
    rt.sync().force_flat(force_flat);
    hls::ModuleBuilder mb(rt.registry(), "bench");
    var = hls::add_var<int>(mb, "v", scope);
    mb.commit();
  }
};

/// Diffs a set of obs counters for the calling task around the timed
/// loop and reports the deltas as google-benchmark user counters (summed
/// over threads in the report). Baselines recorded before these columns
/// existed still compare cleanly: compare.py only diffs counters present
/// in both runs.
class ObsProbe {
 public:
  ObsProbe(hls::Runtime& rt, int task,
           std::initializer_list<obs::Counter> ctrs)
      : rec_(rt.obs()), task_(task), ctrs_(ctrs) {
    for (obs::Counter c : ctrs_) start_.push_back(rec_->counter(task_, c));
  }

  void report(benchmark::State& state) const {
    for (std::size_t i = 0; i < ctrs_.size(); ++i) {
      state.counters[obs::to_string(ctrs_[i])] = benchmark::Counter(
          static_cast<double>(rec_->counter(task_, ctrs_[i]) - start_[i]));
    }
  }

 private:
  obs::Recorder* rec_;
  int task_;
  std::vector<obs::Counter> ctrs_;
  std::vector<std::uint64_t> start_;
};

/// Thread-local context pinned so that threads spread across sockets.
ult::ThreadTaskContext make_ctx(const benchmark::State& state,
                                const topo::Machine& machine) {
  ult::ThreadTaskContext ctx;
  ctx.set_task_id(state.thread_index());
  // Spread thread i evenly over [0, num_cpus): proportional placement
  // instead of a stride, which collapsed to 1 (piling every thread onto
  // the low cpus, off the end of the machine for threads > num_cpus).
  const long n = machine.num_cpus();
  ctx.set_cpu(static_cast<int>(
      state.thread_index() * n / state.threads() % n));
  return ctx;
}

void BM_GetAddrNode(benchmark::State& state) {
  static SyncFixture* f =
      new SyncFixture(1, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  f->rt.bind_task(ctx);
  ObsProbe probe(f->rt, ctx.task_id(),
                 {obs::Counter::get_addr_warm, obs::Counter::get_addr_cold});
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->rt.get_addr(f->var.handle(), ctx));
  }
  probe.report(state);
}
BENCHMARK(BM_GetAddrNode);

void BM_RawPointerLoad(benchmark::State& state) {
  // The floor BM_GetAddrNode is gated against: the same DoNotOptimize
  // loop over a pointer resolved once and reloaded from memory each
  // iteration, as if the call had been hoisted out of the loop.
  static SyncFixture* f =
      new SyncFixture(1, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  f->rt.bind_task(ctx);
  void* volatile resolved = f->rt.get_addr(f->var.handle(), ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(static_cast<void*>(resolved));
  }
}
BENCHMARK(BM_RawPointerLoad);

void BM_GetAddrNodeMT(benchmark::State& state) {
  // Concurrent warm resolution from several tasks: each hits its own
  // per-task address cache, so this should scale like the 1-thread case.
  static SyncFixture* f =
      new SyncFixture(4, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  f->rt.bind_task(ctx);
  ObsProbe probe(f->rt, ctx.task_id(),
                 {obs::Counter::get_addr_warm, obs::Counter::get_addr_cold});
  for (auto _ : state) {
    benchmark::DoNotOptimize(f->rt.get_addr(f->var.handle(), ctx));
  }
  probe.report(state);
}
BENCHMARK(BM_GetAddrNodeMT)->Threads(4)->UseRealTime();

void BM_GetAddrViaTypedVar(benchmark::State& state) {
  static SyncFixture* f =
      new SyncFixture(1, topo::numa_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  hls::TaskView view(f->rt, ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&view.get(f->var));
  }
}
BENCHMARK(BM_GetAddrViaTypedVar);

void BM_BarrierFlat(benchmark::State& state) {
  static SyncFixture* f =
      new SyncFixture(8, topo::node_scope(), /*force_flat=*/true);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  f->rt.bind_task(ctx);
  ObsProbe probe(f->rt, ctx.task_id(), {obs::Counter::barrier_entries});
  const hls::ScopeSet set(f->rt, {f->var.handle()});
  for (auto _ : state) {
    f->rt.barrier(set, ctx);
  }
  probe.report(state);
}
BENCHMARK(BM_BarrierFlat)->Threads(8)->UseRealTime();

void BM_BarrierHierarchical(benchmark::State& state) {
  static SyncFixture* f =
      new SyncFixture(8, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  f->rt.bind_task(ctx);
  ObsProbe probe(f->rt, ctx.task_id(), {obs::Counter::barrier_entries});
  const hls::ScopeSet set(f->rt, {f->var.handle()});
  for (auto _ : state) {
    f->rt.barrier(set, ctx);
  }
  probe.report(state);
}
BENCHMARK(BM_BarrierHierarchical)->Threads(8)->UseRealTime();

void BM_Single(benchmark::State& state) {
  static SyncFixture* f =
      new SyncFixture(8, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  hls::TaskView view(f->rt, ctx);
  ObsProbe probe(f->rt, ctx.task_id(),
                 {obs::Counter::single_wins, obs::Counter::single_losses});
  int sink = 0;
  for (auto _ : state) {
    view.single({f->var.handle()}, [&] { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
  probe.report(state);
}
BENCHMARK(BM_Single)->Threads(8)->UseRealTime();

void BM_SingleNaiveBarrierPair(benchmark::State& state) {
  // The formulation the paper's modified-barrier single avoids: barrier,
  // one designated task runs the block, barrier.
  static SyncFixture* f =
      new SyncFixture(8, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  hls::TaskView view(f->rt, ctx);
  int sink = 0;
  for (auto _ : state) {
    view.barrier({f->var.handle()});
    if (state.thread_index() == 0) ++sink;
    view.barrier({f->var.handle()});
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SingleNaiveBarrierPair)->Threads(8)->UseRealTime();

void BM_SingleNowait(benchmark::State& state) {
  static SyncFixture* f =
      new SyncFixture(8, topo::node_scope(), /*force_flat=*/false);
  ult::ThreadTaskContext ctx = make_ctx(state, f->machine);
  hls::TaskView view(f->rt, ctx);
  ObsProbe probe(f->rt, ctx.task_id(),
                 {obs::Counter::nowait_claims, obs::Counter::nowait_skips});
  int sink = 0;
  for (auto _ : state) {
    view.single_nowait({f->var.handle()}, [&] { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
  probe.report(state);
}
BENCHMARK(BM_SingleNowait)->Threads(8)->UseRealTime();

}  // namespace

// main: bench/gbench_main.cpp (stamps hlsmpc_build_type into the context)
