// Storage-tier benchmarks: what the file tier costs when it is warm,
// whether the bulk pre-read earns its keep on a cold region, and what the
// checkpoint's dirty-tracking pass costs against one plain CRC.
//
// Three acceptance bounds, all declared in BENCH_tier.json's gate as
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
//     raw bandwidth). Both files' pages are dropped from the kernel's
//     page cache before every rep (counter cold_misses: the pages the
//     timed touch found uncached, in its least cold rep). The touch
//     prices pages by mincore(2) and hints readahead(2) for the uncached
//     runs; it copies nothing, so the bound catches a return to copying
//     through a buffer that costs more than twice the raw read.
//   - BM_TierScan: PageCache::scan of a 64 MiB file-tier region must take
//     at most 1.1x one serial crc32c over the same mapping (counter
//     scan_vs_crc_ratio). The kernel's write bits are refused (fault
//     site tier:uffd), so every scan is the full pass, on the caller's
//     thread, and reads about 1. The bound catches per-page overhead
//     that the three-chain hashing does not hide.
//   - BM_TierScanDelta: a delta scan of a 64 MiB region after the
//     tier_ckpt interval's writes (4 x 256 KiB) must hash at most 4 tier
//     pages per page written (counter hashed_per_written; scan_us times
//     it). The kernel's write-protect bits name the candidates; the
//     bound catches a drain that stops narrowing them. Where the host
//     refuses the bits the scan hashes every page and the bound fails.
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
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "hls/crc32c.hpp"
#include "hls/hls.hpp"
#include "hls/pagecache.hpp"
#include "shm/segment.hpp"
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

/// Writes back and drops every cached page of the file at `path`
/// (fdatasync, the file-descriptor form of msync, then
/// POSIX_FADV_DONTNEED): the next read of it goes to the disk.
void drop_cached(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 || ::fdatasync(fd) != 0 ||
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) != 0) {
    std::abort();
  }
  ::close(fd);
}

/// Seconds for the first access of one `bytes` file-backed region, whose
/// backing file is the one regular file of o.tier.dir besides `raw_path`.
/// Its pages are dropped first; a fresh runtime re-opens it and resolve()
/// materializes it (the mapping) untimed. The timed full-range get_addr
/// prices every page by the kernel's residency and hints read-ahead for
/// the uncached runs; `misses` receives the pages it priced uncached.
double tier_preread_seconds(const topo::Machine& m,
                            const hls::Runtime::Options& o,
                            std::size_t bytes, const std::string& tier_path,
                            std::uint64_t& misses) {
  drop_cached(tier_path);
  hls::Runtime rt(m, 1, o);
  const hls::VarHandle h = register_blob(rt, "tiered", bytes);
  rt.storage().set_module_tier(h.scope, h.module, hls::Tier::file_backed);
  double sec = 0.0;
  ult::ThreadExecutor ex;
  ex.run(1, {0}, [&](TaskContext& ctx) {
    rt.bind_task(ctx);
    rt.storage().resolve(h.scope, h.module, 0, &ctx);
    const std::uint64_t m0 = rt.storage().page_cache()->stats().misses;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        rt.storage().get_addr(h.scope, h.module, 0, bytes, 0, &ctx));
    const auto t1 = std::chrono::steady_clock::now();
    sec = std::chrono::duration<double>(t1 - t0).count();
    misses = rt.storage().page_cache()->stats().misses - m0;
  });
  return sec;
}

/// Seconds to pread the same byte count from a plain file into a
/// full-size buffer, in read-ahead window sized chunks at their real
/// offsets, after dropping its cached pages — the raw cost the pre-read
/// is priced against (same bytes, same destination footprint).
double raw_pread_seconds(const std::string& path, std::size_t bytes,
                         std::size_t chunk, std::vector<unsigned char>& buf) {
  drop_cached(path);
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
/// the tier, flushed) and a plain comparison file of the same size; each
/// rep drops the file it reads from the kernel page cache first, so both
/// sides start cold.
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
  std::string tier_path;
  for (const auto& e : std::filesystem::directory_iterator(o.tier.dir)) {
    if (e.path() != raw_path) tier_path = e.path();
  }
  const std::size_t chunk = o.tier.page_bytes * o.tier.read_ahead_pages;
  std::vector<unsigned char> buf(bytes);
  for (auto _ : state) {
    double raw_min = std::numeric_limits<double>::infinity();
    double tier_min = std::numeric_limits<double>::infinity();
    std::uint64_t cold_misses = std::numeric_limits<std::uint64_t>::max();
    for (int rep = 0; rep < kReps; ++rep) {
      raw_min = std::min(raw_min, raw_pread_seconds(raw_path, bytes, chunk,
                                                    buf));
      std::uint64_t misses = 0;
      tier_min = std::min(
          tier_min, tier_preread_seconds(m, o, bytes, tier_path, misses));
      cold_misses = std::min(cold_misses, misses);
    }
    state.SetIterationTime(tier_min);
    state.counters["preread_us"] = benchmark::Counter(tier_min * 1e6);
    state.counters["pread_us"] = benchmark::Counter(raw_min * 1e6);
    state.counters["preread_bw_ratio_best"] =
        benchmark::Counter(raw_min / tier_min);
    state.counters["cold_misses"] =
        benchmark::Counter(static_cast<double>(cold_misses));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PrereadVsPread)->Arg(4 << 20)->UseManualTime()->Iterations(1);

// ---- the checkpoint's dirty-tracking pass ----

/// The gated bound, interleaved rep by rep: one PageCache::scan of a
/// `bytes` file-tier region (64 KiB pages, baselines taken) vs one serial
/// crc32c over the same mapping, ratio of the per-side minimum times.
/// The region is written whole first, so both sides hash cached pages.
/// The kernel's write bits are refused: every scan hashes every page.
void BM_TierScan(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kReps = 9;
  fault::FaultInjector full_pass_only;
  fault::ScopedFaultInjection installed(full_pass_only);
  full_pass_only.arm_always("tier:uffd");
  hls::TierConfig cfg;
  cfg.dir = fresh_dir("bench_tier_scan");
  shm::MappedSegment seg(cfg.dir + "/seg", bytes);
  auto* p = static_cast<unsigned char*>(seg.base());
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);
  pc.rebaseline(rid);
  for (auto _ : state) {
    double scan_min = std::numeric_limits<double>::infinity();
    double crc_min = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(pc.scan(rid));
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(hls::crc32c(p, bytes));
      const auto t2 = std::chrono::steady_clock::now();
      scan_min =
          std::min(scan_min, std::chrono::duration<double>(t1 - t0).count());
      crc_min =
          std::min(crc_min, std::chrono::duration<double>(t2 - t1).count());
    }
    state.SetIterationTime(scan_min);
    state.counters["scan_us"] = benchmark::Counter(scan_min * 1e6);
    state.counters["crc_us"] = benchmark::Counter(crc_min * 1e6);
    state.counters["scan_vs_crc_ratio"] =
        benchmark::Counter(scan_min / crc_min);
  }
  std::filesystem::remove_all(cfg.dir);  // the 64 MiB file
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TierScan)->Arg(64 << 20)->UseManualTime()->Iterations(1);

/// The gated bound: tier pages one delta scan hashes per tier page
/// written, in tier_ckpt's shape — a `bytes` region in 64 KiB pages,
/// four 256 KiB slices rewritten per interval, then the flush's msync,
/// the scan and its adoption. The ratio is the worst of kReps intervals,
/// scan_us the fastest scan.
void BM_TierScanDelta(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kReps = 9;
  constexpr std::size_t kSlice = 256 * 1024;
  constexpr std::size_t kSlices = 4;
  hls::TierConfig cfg;
  cfg.dir = fresh_dir("bench_tier_scan_delta");
  shm::MappedSegment seg(cfg.dir + "/seg", bytes);
  auto* p = static_cast<unsigned char*>(seg.base());
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);
  pc.writeback(rid);
  pc.rebaseline(rid);
  const std::size_t written = kSlices * kSlice / cfg.page_bytes;
  int interval = 0;
  for (auto _ : state) {
    double scan_min = std::numeric_limits<double>::infinity();
    double per_written = 0;
    for (int rep = 0; rep < kReps; ++rep, ++interval) {
      for (std::size_t s = 0; s < kSlices; ++s) {
        const std::size_t off =
            s * (bytes / kSlices) +
            static_cast<std::size_t>(interval) % (bytes / kSlices / kSlice) *
                kSlice;
        std::memset(p + off, interval, kSlice);
      }
      pc.writeback(rid);
      const std::uint64_t h0 = pc.stats().hashed_pages;
      const auto t0 = std::chrono::steady_clock::now();
      const hls::TierScan scan = pc.scan(rid);
      const auto t1 = std::chrono::steady_clock::now();
      pc.rebaseline(rid, &scan);
      scan_min =
          std::min(scan_min, std::chrono::duration<double>(t1 - t0).count());
      per_written =
          std::max(per_written, static_cast<double>(pc.stats().hashed_pages -
                                                    h0) /
                                    static_cast<double>(written));
    }
    state.SetIterationTime(scan_min);
    state.counters["scan_us"] = benchmark::Counter(scan_min * 1e6);
    state.counters["hashed_per_written"] = benchmark::Counter(per_written);
  }
  std::filesystem::remove_all(cfg.dir);
}
BENCHMARK(BM_TierScanDelta)
    ->Arg(64 << 20)
    ->UseManualTime()
    ->Iterations(1);

}  // namespace

// main: bench/gbench_main.cpp (stamps hlsmpc_build_type into the context)
