// Transport-layer benchmarks: the byte-moving floor under every p2p call
// and every leader-tier collective.
//
// BM_ShmSendRecv drives the intra-node mailbox transport (eager below
// the rendezvous threshold, rendezvous above) and BM_FabricSendRecv the
// simulated inter-node fabric (always-eager: one owned-buffer capture on
// send, one copy out on match), both as a single-thread send→recv→wait
// round so the measurement is the matching engine and the copies, not
// scheduler noise.
//
// The acceptance bound is a within-run ratio, like bench_rma's: a 64 KB
// fabric transfer is two memcpys plus an allocation and two lock
// acquisitions, so it must stay within a small factor of BM_RawMemcpy at
// the same size (8x, in BENCH_transport.json's gate). Both sides of
// the ratio come from one run, so machine load cancels out; the
// committed BENCH_transport.json baseline holds only the 64 KB
// bandwidth-bound points cross-run (the 4 KB points are candidate-only —
// sub-microsecond kernels jitter past any useful threshold on a shared
// VM).
//
// BM_ClusterAllreduce is the leader tier end to end: a 2-node x 2-rank
// SimCluster (thread executor) allreducing 2 KB and 256 KB of uint64
// sums, both above the staged threshold, so both run one fabric lane per
// local rank. Its bound is the within-run ratio real_time(256 KB) /
// real_time(2 KB): folding and moving 128x the bytes must cost a bounded
// multiple of the latency-bound call, which a lone leader carrying the
// whole 256 KB breaks. Manual time: each iteration is one cluster.run
// timing kCalls calls between barriers on rank 0, after kWarm untimed
// ones, so the thread launch and the cold first calls stay out;
// real_time is per batch of kCalls calls. Candidate-only,
// like the 4 KB points: four rank threads on a shared VM are too noisy
// for a cross-run threshold.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <cstring>
#include <thread>
#include <vector>

#include "memtrack/memtrack.hpp"
#include "mpi/cluster.hpp"
#include "mpi/shm_transport.hpp"
#include "mpi/sim_fabric.hpp"

using namespace hlsmpc;

namespace {

class BenchCtx final : public ult::TaskContext {
 public:
  explicit BenchCtx(int id) { set_task_id(id); }
  void yield() override { std::this_thread::yield(); }
  bool cooperative() const override { return false; }
};

void wait(ult::TaskContext& ctx, mpi::Request req) {
  mpi::transport_wait(ctx, req);
}

void BM_RawMemcpy(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
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

void BM_ShmSendRecv(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  memtrack::Tracker tracker;
  mpi::BufferManager bufs(mpi::BufferConfig{}, 2, 2, tracker);
  mpi::ShmTransport t(2, bufs);
  BenchCtx c0(0), c1(1);
  std::vector<std::uint8_t> src(bytes, 0xA5);
  std::vector<std::uint8_t> dst(bytes);
  for (auto _ : state) {
    mpi::Request s = t.isend(c0, 0, 1, 1, src.data(), bytes, 7, 0);
    wait(c1, t.irecv(c1, 1, dst.data(), bytes, 0, 7, 0));
    wait(c0, std::move(s));
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_FabricSendRecv(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  mpi::SimFabricTransport::Options fo;
  fo.nranks = 2;
  fo.ranks_per_node = 1;
  mpi::SimFabricTransport t(fo);
  BenchCtx c0(0), c1(1);
  std::vector<std::uint8_t> src(bytes, 0xA5);
  std::vector<std::uint8_t> dst(bytes);
  for (auto _ : state) {
    wait(c0, t.isend(c0, 0, 1, 1, src.data(), bytes, 7, 0));
    wait(c1, t.irecv(c1, 1, dst.data(), bytes, 0, 7, 0));
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}

void BM_ClusterAllreduce(benchmark::State& state) {
  constexpr int kWarm = 8;
  constexpr int kCalls = 64;
  const std::size_t count =
      static_cast<std::size_t>(state.range(0)) / sizeof(std::uint64_t);
  mpi::ClusterOptions o;
  o.nnodes = 2;
  o.ranks_per_node = 2;
  mpi::SimCluster cluster(o);
  std::vector<std::vector<std::uint64_t>> in(4), out(4);
  for (int g = 0; g < 4; ++g) {
    in[static_cast<std::size_t>(g)].assign(count,
                                           static_cast<std::uint64_t>(g));
    out[static_cast<std::size_t>(g)].assign(count, 0);
  }
  for (auto _ : state) {
    double secs = 0;
    cluster.run([&](mpi::ClusterComm& comm, ult::TaskContext& ctx) {
      const auto g = static_cast<std::size_t>(comm.rank(ctx));
      const std::span<const std::uint64_t> src(in[g]);
      const std::span<std::uint64_t> dst(out[g]);
      for (int i = 0; i < kWarm; ++i) {
        comm.allreduce(ctx, src, dst, mpi::Op::sum);
      }
      comm.barrier(ctx);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCalls; ++i) {
        comm.allreduce(ctx, src, dst, mpi::Op::sum);
      }
      comm.barrier(ctx);
      if (g == 0) {
        secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
      }
    });
    if (out[0][count - 1] != 0 + 1 + 2 + 3) state.SkipWithError("wrong sum");
    state.SetIterationTime(secs);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kCalls * state.range(0));
}

}  // namespace

BENCHMARK(BM_RawMemcpy)->Arg(4096)->Arg(65536);
BENCHMARK(BM_ShmSendRecv)->Arg(4096)->Arg(65536);
BENCHMARK(BM_FabricSendRecv)->Arg(4096)->Arg(65536);
BENCHMARK(BM_ClusterAllreduce)->Arg(2048)->Arg(262144)->UseManualTime();
