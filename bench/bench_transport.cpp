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
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "memtrack/memtrack.hpp"
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

}  // namespace

BENCHMARK(BM_RawMemcpy)->Arg(4096)->Arg(65536);
BENCHMARK(BM_ShmSendRecv)->Arg(4096)->Arg(65536);
BENCHMARK(BM_FabricSendRecv)->Arg(4096)->Arg(65536);
