// Storage-tier benchmarks: what the file tier costs when it is warm, and
// whether the bulk pre-read earns its keep on a cold region.
//
// Two acceptance bounds, both declared in BENCH_tier.json's gate as
// within-run ratios in the bench_recover style (interleaved reps, gate
// on each side's MINIMUM — external load only ever inflates a
// measurement, so the min over several interleaved reps is the
// machine-intrinsic cost):
//
//   - BM_WarmGetAddrVsAnon: warm cached hls_get_addr on a file-backed
//     region must stay within 2x of the anonymous tier (counter
//     warm_ratio_best). Warm resolution is the same per-task cache load
//     either way — the page cache only sees cold resolves — so anything
//     near the bound means the tier leaked onto the warm path.
//   - BM_PrereadVsPread: the cold pre-read of a 4 MiB file-backed
//     region must deliver at least 0.5x the bandwidth of raw pread over
//     the same bytes (counter preread_bw_ratio_best, tier bandwidth over
//     raw bandwidth). The touch prices pages by mincore(2) and hints
//     readahead(2) only for uncached runs; it copies nothing, so with the
//     file warm in the page cache it reads far above 1; the bound catches
//     a return to copying through a buffer that costs more than twice the
//     raw read.
//
// The committed BENCH_tier.json baseline holds only the bandwidth-bound
// 4 MiB pre-read/pread points cross-run; the warm get_addr points are
// nanosecond-scale and candidate-only, covered by the ratio gate.
#include <benchmark/benchmark.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "hls/hls.hpp"
#include "topo/topology.hpp"
#include "ult/scheduler.hpp"

using namespace hlsmpc;
using ult::TaskContext;

namespace {

std::string fresh_dir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  const std::string dir =
      std::string(base != nullptr ? base : "/tmp") + "/" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  std::system(("mkdir -p '" + dir + "'").c_str());
  return dir;
}

/// One node-scope array of `bytes` in its own module, so its tier can be
/// set independently of the comparison region.
hls::VarHandle register_blob(hls::Runtime& rt, const std::string& module,
                             std::size_t bytes) {
  hls::ModuleBuilder mb(rt.registry(), module);
  auto blob =
      hls::add_array<std::uint8_t>(mb, "blob", bytes, topo::node_scope());
  mb.commit();
  return blob.handle();
}

// ---- warm-path overhead ----

/// The gated bound, interleaved rep by rep: seconds per warm get_addr on
/// a file-backed region vs the anonymous tier, ratio of minimums. Both
/// sides run in the same task against same-size regions of one runtime.
void BM_WarmGetAddrVsAnon(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kReps = 7;
  constexpr int kRounds = 1 << 15;
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier.dir = fresh_dir("bench_tier_warm");
  hls::Runtime rt(m, 1, o);
  const hls::VarHandle anon_h = register_blob(rt, "anon", bytes);
  const hls::VarHandle file_h = register_blob(rt, "tiered", bytes);
  rt.storage().set_module_tier(file_h.scope, file_h.module,
                               hls::Tier::file_backed);
  for (auto _ : state) {
    double anon_min = std::numeric_limits<double>::infinity();
    double file_min = std::numeric_limits<double>::infinity();
    ult::ThreadExecutor ex;
    ex.run(1, {0}, [&](TaskContext& ctx) {
      rt.bind_task(ctx);
      // Warm both entries of the task cache before timing.
      benchmark::DoNotOptimize(rt.get_addr(anon_h, ctx));
      benchmark::DoNotOptimize(rt.get_addr(file_h, ctx));
      for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < kRounds; ++k) {
          benchmark::DoNotOptimize(rt.get_addr(anon_h, ctx));
        }
        auto t1 = std::chrono::steady_clock::now();
        for (int k = 0; k < kRounds; ++k) {
          benchmark::DoNotOptimize(rt.get_addr(file_h, ctx));
        }
        auto t2 = std::chrono::steady_clock::now();
        anon_min = std::min(
            anon_min,
            std::chrono::duration<double>(t1 - t0).count() / kRounds);
        file_min = std::min(
            file_min,
            std::chrono::duration<double>(t2 - t1).count() / kRounds);
      }
    });
    state.SetIterationTime(file_min);
    state.counters["anon_ns"] = benchmark::Counter(anon_min * 1e9);
    state.counters["file_ns"] = benchmark::Counter(file_min * 1e9);
    state.counters["warm_ratio_best"] =
        benchmark::Counter(file_min / anon_min);
  }
}
BENCHMARK(BM_WarmGetAddrVsAnon)->Arg(4 << 20)->UseManualTime()->Iterations(1);

// ---- cold pre-read bandwidth ----

/// Seconds for the first access of one `bytes` file-backed region. A
/// fresh runtime re-opens the backing file each rep; resolve()
/// materializes it (the mapping) untimed. The timed full-range get_addr
/// then prices every page by the kernel's residency: the file is warm,
/// so every page is a hit and no read-ahead is asked.
double tier_preread_seconds(const topo::Machine& m,
                            const hls::Runtime::Options& o,
                            std::size_t bytes) {
  hls::Runtime rt(m, 1, o);
  const hls::VarHandle h = register_blob(rt, "tiered", bytes);
  rt.storage().set_module_tier(h.scope, h.module, hls::Tier::file_backed);
  double sec = 0.0;
  ult::ThreadExecutor ex;
  ex.run(1, {0}, [&](TaskContext& ctx) {
    rt.bind_task(ctx);
    rt.storage().resolve(h.scope, h.module, 0, &ctx);
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        rt.storage().get_addr(h.scope, h.module, 0, bytes, 0, &ctx));
    const auto t1 = std::chrono::steady_clock::now();
    sec = std::chrono::duration<double>(t1 - t0).count();
  });
  return sec;
}

/// Seconds to pread the same byte count from a plain file into a
/// full-size buffer, in read-ahead window sized chunks at their real
/// offsets — the raw cost the pre-read is priced against (same bytes,
/// same destination footprint).
double raw_pread_seconds(const std::string& path, std::size_t bytes,
                         std::size_t chunk, std::vector<unsigned char>& buf) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) std::abort();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < bytes; off += chunk) {
    const std::size_t n = std::min(chunk, bytes - off);
    if (::pread(fd, buf.data() + off, n, static_cast<off_t>(off)) !=
        static_cast<ssize_t>(n)) {
      std::abort();
    }
    benchmark::DoNotOptimize(buf.data());
  }
  const auto t1 = std::chrono::steady_clock::now();
  ::close(fd);
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The gated bound, interleaved rep by rep: cold-region pre-read
/// bandwidth vs raw pread bandwidth over the same payload, ratio of the
/// per-side minimum times. Setup writes the backing file once (through
/// the tier, flushed) and a plain comparison file of the same size; both
/// sit warm in the kernel page cache, so the ratio compares the tier's
/// read machinery against the bare syscall, not disk against disk.
void BM_PrereadVsPread(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kReps = 9;
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier.dir = fresh_dir("bench_tier_preread");
  {
    hls::Runtime rt(m, 1, o);
    const hls::VarHandle h = register_blob(rt, "tiered", bytes);
    rt.storage().set_module_tier(h.scope, h.module, hls::Tier::file_backed);
    ult::ThreadExecutor ex;
    ex.run(1, {0}, [&](TaskContext& ctx) {
      rt.bind_task(ctx);
      auto* p = static_cast<std::uint8_t*>(rt.get_addr(h, ctx));
      for (std::size_t i = 0; i < bytes; ++i) {
        p[i] = static_cast<std::uint8_t>(i * 31 + 7);
      }
      rt.tier_flush(ctx);
    });
  }
  const std::string raw_path = o.tier.dir + "/raw_pread";
  {
    std::vector<unsigned char> fill(bytes, 0xA5);
    const int fd = ::open(raw_path.c_str(),
                          O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0 || ::write(fd, fill.data(), bytes) !=
                      static_cast<ssize_t>(bytes)) {
      std::abort();
    }
    ::close(fd);
  }
  const std::size_t chunk = o.tier.page_bytes * o.tier.read_ahead_pages;
  std::vector<unsigned char> buf(bytes);
  for (auto _ : state) {
    double raw_min = std::numeric_limits<double>::infinity();
    double tier_min = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      raw_min = std::min(raw_min, raw_pread_seconds(raw_path, bytes, chunk,
                                                    buf));
      tier_min = std::min(tier_min, tier_preread_seconds(m, o, bytes));
    }
    state.SetIterationTime(tier_min);
    state.counters["preread_us"] = benchmark::Counter(tier_min * 1e6);
    state.counters["pread_us"] = benchmark::Counter(raw_min * 1e6);
    state.counters["preread_bw_ratio_best"] =
        benchmark::Counter(raw_min / tier_min);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PrereadVsPread)->Arg(4 << 20)->UseManualTime()->Iterations(1);

}  // namespace

// main: bench/gbench_main.cpp (stamps hlsmpc_build_type into the context)
