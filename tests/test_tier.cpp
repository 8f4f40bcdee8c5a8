// Storage tier (hls/tier.hpp): file-backed and spill regions, the page
// cache fronting them, and the persistence/incremental-checkpoint
// composition.
//
// The load-bearing checks:
//  - page cache: a touch prices exactly the pages mincore(2) reports
//    uncached as misses; a cold touch's bulk read-ahead turns a
//    co-resident rank's later touch into a hit; small dirty ranges fold
//    into maximal scan spans; write-back cleans what the kernel holds
//    dirty in one msync; content hashing catches writes through warm
//    pointers that never re-entered the runtime;
//  - MappedSegment: a stable path re-opens bit-identical, a size
//    mismatch recreates zeros (never leaks stale bytes);
//  - runtime: a file_backed scope behaves exactly like anonymous storage
//    through hls_get_addr, is not charged as DRAM, survives a process
//    restart bit-identically (with hit/miss counters visible in the obs
//    snapshot), and file_spill scratch is unlinked at destruction;
//  - durability against the kernel's own dirty count (cachestat(2)):
//    tier_flush leaves no page of the backing file dirty, whether an
//    initializer or a write before a checkpoint dirtied it, and a failed
//    msync surfaces as corruption while a retried flush still cleans;
//  - incremental checkpoints: a delta save snapshots only the dirty page
//    spans, chains onto its full base, and restores bit-identically into
//    a fresh runtime; a region first touched after the last save has no
//    baselines and is carried whole;
//  - CRC-32C: the interleaved hardware kernel equals the software tables
//    on every length/offset around its block boundaries, and a trailer
//    built by the software path still restores;
//  - dirty tracking against ground truth: each delta holds exactly the
//    pages whose bytes differ (memcmp) from the previous version's
//    restored image, a delta save hashes each page once, a write racing
//    a save keeps its page in the next delta, materializing a region
//    hashes nothing and a restore hashes each region once; a scan of a
//    16 MiB region returns the serial CRC of every page. These run
//    on the kernel's write-protect bits and again on the full pass
//    (fault site tier:uffd); the kernel path hashes at least the pages
//    written, and a page stored to stays in the next delta through
//    msync, MADV_DONTNEED, MADV_PAGEOUT, a kernel-mode write, an
//    unadopted scan, a drain longer than one PAGEMAP_SCAN call, a drain
//    that fails part way and a fork.
//  - memory against the kernel's accounting (/proc/self/status): a cold
//    resolve of a region 16x the pool copies nothing into anonymous
//    memory (a touch longer than the pool reads ahead only its trailing
//    pool), and a restore never holds the version file and the region
//    it fills resident at once — nor runs the initializer of a region
//    it overwrites whole.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <linux/magic.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "hls/checkpoint.hpp"
#include "hls/crc32c.hpp"
#include "hls/hls.hpp"
#include "hls/pagecache.hpp"
#include "obs/recorder.hpp"
#include "shm/segment.hpp"
#include "ult/scheduler.hpp"

namespace hls = hlsmpc::hls;
namespace obs = hlsmpc::obs;
namespace shm = hlsmpc::shm;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;

namespace {

constexpr std::size_t kPage = 4096;

std::uint8_t pattern(int instance, std::size_t i, int salt) {
  return static_cast<std::uint8_t>(instance * 97 + i * 31 + salt);
}

/// Empty, existing scratch directory under the test tmpdir.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  mkdir(dir.c_str(), 0755);
  return dir;
}

/// Regular files under `dir` (spill-cleanup evidence).
int count_files(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(d)) {
    const std::string base = e->d_name;
    if (base != "." && base != "..") ++n;
  }
  closedir(d);
  return n;
}

/// Path of the one file under `dir` (a runtime with one file-tier region).
std::string sole_file(const std::string& dir) {
  EXPECT_EQ(count_files(dir), 1);
  DIR* d = opendir(dir.c_str());
  std::string out;
  while (dirent* e = readdir(d)) {
    const std::string base = e->d_name;
    if (base != "." && base != "..") out = dir + "/" + base;
  }
  closedir(d);
  return out;
}

// cachestat(2) (Linux 6.5) is newer than the headers this builds against;
// declared here as in the kernel's uapi <linux/mman.h>, so the ground
// truth below does not go through the runtime's own wrapper.
constexpr long kSysCachestat = 451;
struct CachestatRange {
  std::uint64_t off;
  std::uint64_t len;
};
struct Cachestat {
  std::uint64_t nr_cache;
  std::uint64_t nr_dirty;
  std::uint64_t nr_writeback;
  std::uint64_t nr_evicted;
  std::uint64_t nr_recently_evicted;
};

/// Pages of the file at `path` the kernel holds dirty or under
/// write-back; nullopt on kernels without cachestat.
std::optional<std::uint64_t> cachestat_dirty_pages(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  CachestatRange all{0, 0};  // len 0: to the end of the file
  Cachestat cs{};
  const long rc = syscall(kSysCachestat, fd, &all, &cs, 0);
  const int err = errno;
  close(fd);
  if (rc != 0 && err == ENOSYS) return std::nullopt;
  if (rc != 0) {
    throw std::runtime_error(std::string("cachestat: ") + std::strerror(err));
  }
  return cs.nr_dirty + cs.nr_writeback;
}

bool on_tmpfs(const std::string& path) {
  struct statfs fs {};
  return statfs(path.c_str(), &fs) == 0 && fs.f_type == TMPFS_MAGIC;
}

/// Why read-ahead proves nothing under `dir`, or "" where it does: a
/// tmpfs file's holes stay holes under readahead(2), so nothing it asked
/// for becomes cached (point TEST_TMPDIR at a disk file system).
std::string readahead_fills_nothing(const std::string& dir) {
  return on_tmpfs(dir) ? dir + " is on tmpfs, where read-ahead caches nothing"
                       : "";
}

/// Of the `count` kPage-sized pages of `seg` from `first`, those that
/// mincore(2) reports not wholly in the page cache — the kernel's truth,
/// not through the cache under test.
std::size_t uncached_pages(const shm::MappedSegment& seg, std::size_t first,
                           std::size_t count) {
  const auto sys = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((seg.size() + sys - 1) / sys);
  if (mincore(seg.base(), seg.size(), vec.data()) != 0) {
    throw std::runtime_error(std::string("mincore: ") + std::strerror(errno));
  }
  std::size_t n = 0;
  for (std::size_t page = first; page < first + count; ++page) {
    for (std::size_t sp = page * kPage / sys; sp * sys < (page + 1) * kPage;
         ++sp) {
      if ((vec[sp] & 1) == 0) {
        ++n;
        break;
      }
    }
  }
  return n;
}

/// The kernel's dirty count of `path` where it shows what a flush has
/// left unwritten. nullopt, with the reason in `why`, where it proves
/// nothing: the kernel has no cachestat, or the file is on tmpfs, whose
/// pages msync never cleans (point TEST_TMPDIR at a disk file system).
std::optional<std::uint64_t> kernel_dirty_pages(const std::string& path,
                                                std::string* why) {
  if (on_tmpfs(path)) {
    *why = path + " is on tmpfs, where msync leaves pages dirty";
    return std::nullopt;
  }
  const std::optional<std::uint64_t> n = cachestat_dirty_pages(path);
  if (!n) *why = "the kernel has no cachestat(2)";
  return n;
}

hls::TierConfig small_pages(const std::string& dir) {
  hls::TierConfig cfg;
  cfg.dir = dir;
  cfg.page_bytes = kPage;
  cfg.pool_pages = 64;
  cfg.read_ahead_pages = 4;
  return cfg;
}

struct TierVars {
  hls::VarHandle blob;  // node scope, 4 pages
};

TierVars register_blob(hls::Runtime& rt) {
  hls::ModuleBuilder mb(rt.registry(), "tiered");
  auto blob =
      hls::add_array<std::uint8_t>(mb, "blob", 4 * kPage, topo::node_scope());
  mb.commit();
  return {blob.handle()};
}

/// Fill (or verify) every instance of `h` with pattern(instance, i, salt),
/// materializing lazily via get_addr like a task's first touch would.
void fill_all(hls::Runtime& rt, const hls::VarHandle& h, int salt) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(h, cpu));
    for (std::size_t i = 0; i < h.size; ++i) p[i] = pattern(inst, i, salt);
  }
}

/// One base pointer per instance of `h`, materializing each.
std::vector<std::uint8_t*> instance_bases(hls::Runtime& rt,
                                          const hls::VarHandle& h) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  std::vector<std::uint8_t*> out(
      static_cast<std::size_t>(st.num_instances(sid)));
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    out[static_cast<std::size_t>(st.instance_of(sid, cpu))] =
        static_cast<std::uint8_t*>(rt.storage().get_addr(h, cpu));
  }
  return out;
}

testing::AssertionResult all_match(hls::Runtime& rt, const hls::VarHandle& h,
                                   int salt) {
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, h.scope);
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    const auto* p =
        static_cast<const std::uint8_t*>(rt.storage().get_addr(h, cpu));
    for (std::size_t i = 0; i < h.size; ++i) {
      if (p[i] != pattern(inst, i, salt)) {
        return testing::AssertionFailure()
               << "instance " << inst << " byte " << i << ": "
               << static_cast<int>(p[i]) << " != expected "
               << static_cast<int>(pattern(inst, i, salt));
      }
    }
  }
  return testing::AssertionSuccess();
}

/// The software CRC-32C with crc32c()'s seed convention.
std::uint32_t crc_sw(const void* p, std::size_t n, std::uint32_t seed = 0) {
  return ~hls::crc_detail::crc32c_sw(static_cast<const unsigned char*>(p), n,
                                     ~seed);
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng());
  return v;
}

/// A region of 64 KiB pages with a short last one, in tier_ckpt's page
/// size.
constexpr std::size_t kScanPage = 64 * 1024;
constexpr std::size_t kScanRegion = (std::size_t{16} << 20) + 1000;

/// Ground truth for a scan of `seg` in `page`-byte pages, computed
/// serially: every page's CRC-32C, and the maximal spans of pages whose
/// bytes differ (memcmp) from `before` — every page when it is empty.
hls::TierScan serial_scan(const shm::MappedSegment& seg, std::size_t page,
                          const std::vector<unsigned char>& before) {
  const auto* p = static_cast<const unsigned char*>(seg.base());
  const std::size_t size = seg.size();
  hls::TierScan want;
  for (std::size_t off = 0; off < size; off += page) {
    const std::size_t len = std::min(page, size - off);
    want.crcs.push_back(hls::crc32c(p + off, len));
    if (!before.empty() && std::memcmp(p + off, before.data() + off, len) == 0) {
      continue;
    }
    if (!want.spans.empty() &&
        want.spans.back().first + want.spans.back().second == off) {
      want.spans.back().second += len;
    } else {
      want.spans.emplace_back(off, len);
    }
  }
  return want;
}

/// `n` raw stores of 1..64 random bytes at random offsets of `seg`, plus
/// one to its last byte (the short last page).
void random_stores(shm::MappedSegment& seg, std::mt19937_64& rng, int n) {
  auto* p = static_cast<unsigned char*>(seg.base());
  for (int i = 0; i < n; ++i) {
    const std::size_t len = 1 + rng() % 64;
    const std::size_t off = rng() % (seg.size() - len + 1);
    for (std::size_t b = 0; b < len; ++b) {
      p[off + b] = static_cast<unsigned char>(rng());
    }
  }
  p[seg.size() - 1] ^= 0x5A;
}

/// Which CRC pass a test's PageCache takes: the kernel path hashes the
/// pages the write-protect bits report (the full pass where the host
/// refuses them), the forced fallback every page.
enum class Pass { kernel, full };

std::string tagged(const std::string& name, Pass pass) {
  return pass == Pass::full ? name + "_full" : name;
}

/// Refuses the kernel's write bits (fault site tier:uffd) to every
/// PageCache pass while alive, so each one hashes every page.
struct FullPassOnly {
  hlsmpc::fault::FaultInjector inj;
  hlsmpc::fault::ScopedFaultInjection installed{inj};
  FullPassOnly() { inj.arm_always("tier:uffd"); }
};

/// The pages one pass hashed, `written` of `npages` having changed: every
/// page on the full pass; on the kernel path at least the changed ones
/// and never more than every page.
testing::AssertionResult hashed_as_expected(Pass pass, std::uint64_t hashed,
                                            std::uint64_t written,
                                            std::uint64_t npages) {
  const bool ok = pass == Pass::full
                      ? hashed == npages
                      : written <= hashed && hashed <= npages;
  if (ok) return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "hashed " << hashed << " pages; written " << written << " of "
         << npages << " on the " << (pass == Pass::full ? "full" : "kernel")
         << " path";
}

}  // namespace

// ---- CRC-32C ---------------------------------------------------------

TEST(Crc32c, KnownAnswer) {
  EXPECT_EQ(hls::crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc_sw("123456789", 9), 0xE3069283u);
  EXPECT_EQ(hls::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, HardwareMatchesSoftwareAtEveryLengthAndOffset) {
  // Every length through two long 3-way rounds plus a ragged tail, at
  // each alignment. The software reference is extended one byte per
  // length (chaining is part of the contract), so it costs O(n) per
  // offset; each offset starts from the previous offset's final value.
  constexpr std::size_t kMax = 3 * 2 * 8192 + 17;
  const std::vector<unsigned char> buf = random_bytes(kMax + 8, 1);
  std::uint32_t seed = 0x12345678u;
  for (std::size_t off = 0; off < 8; ++off) {
    const unsigned char* p = buf.data() + off;
    std::uint32_t want = seed;  // software CRC of p[0, n) from `seed`
    for (std::size_t n = 0; n <= kMax; ++n) {
      if (n > 0) want = crc_sw(p + n - 1, 1, want);
      const std::uint32_t got = hls::crc32c(p, n, seed);
      if (got != want) {
        FAIL() << "offset " << off << " length " << n << ": " << std::hex
               << got << " != " << want;
      }
    }
    seed = want;
  }
}

TEST(Crc32c, BlockBoundariesAndSplitChains) {
  const std::vector<unsigned char> buf = random_bytes(4 * 3 * 8192 + 64, 2);
  std::vector<std::size_t> lengths;
  for (std::size_t k = 1; k <= 4; ++k) {
    for (const std::size_t block : {std::size_t{256}, std::size_t{8192}}) {
      for (const std::size_t base : {k * 3 * block, 3 * 8192 + k * 3 * 256}) {
        lengths.insert(lengths.end(), {base - 1, base, base + 1});
      }
    }
  }
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const unsigned char* p = buf.data() + off;
      const std::uint32_t whole = crc_sw(p, n);
      ASSERT_EQ(hls::crc32c(p, n), whole) << "offset " << off << " len " << n;
      // Split anywhere around the boundary: chaining hw pieces agrees.
      const std::size_t cut = n / 3 + off;
      ASSERT_EQ(hls::crc32c(p + cut, n - cut, hls::crc32c(p, cut)), whole)
          << "offset " << off << " len " << n << " cut " << cut;
    }
  }
}

TEST(Crc32c, ThreeChainsMatchOneBufferAtATime) {
  // Lengths around the 8-byte word, at each alignment, and one page.
  const std::vector<unsigned char> buf = random_bytes(3 * 65536 + 64, 3);
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{8}, std::size_t{9}, std::size_t{63},
                          std::size_t{257}, std::size_t{65536}}) {
    for (std::size_t off = 0; off < 8; ++off) {
      const unsigned char* p[3] = {buf.data() + off,
                                   buf.data() + off + len + 5,
                                   buf.data() + off + 2 * len + 13};
      std::uint32_t got[3];
      hls::crc32c_x3(p, len, got);
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(got[k], crc_sw(p[k], len))
            << "len " << len << " off " << off << " chain " << k;
      }
    }
  }
}

TEST(Crc32c, LargeBufferMatchesSoftware) {
  const std::vector<unsigned char> buf = random_bytes(std::size_t{64} << 20, 3);
  EXPECT_EQ(hls::crc32c(buf.data(), buf.size()),
            crc_sw(buf.data(), buf.size()));
}

// ---- page cache -----------------------------------------------------

TEST(PageCache, ReadAheadServesCoResidentTouch) {
  const std::string dir = fresh_dir("hls_tier_pc_ra");
  const std::string why = readahead_fills_nothing(dir);
  if (!why.empty()) GTEST_SKIP() << why;
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);

  // Rank 0's cold touch of page 0 bulk-preads a read_ahead_pages window.
  pc.touch(rid, 0, 1, /*task=*/0);
  hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.prereads, 1u);
  EXPECT_EQ(s.preread_bytes, 4 * kPage);

  // A co-resident rank touching INSIDE the window faults from memory: a
  // hit, no new I/O — the whole point of the shared pre-read.
  pc.touch(rid, 2 * kPage, 1, /*task=*/1);
  s = pc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.prereads, 1u);

  // Outside the window: a fresh miss and a fresh (clipped) pre-read.
  pc.touch(rid, 6 * kPage, 1, /*task=*/1);
  s = pc.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.prereads, 2u);
  EXPECT_EQ(s.preread_bytes, 4 * kPage + 2 * kPage);  // window clipped at EOF
}

TEST(PageCache, WritebackCleansKernelDirtyPagesAndHashesUnhintedWrites) {
  const std::string dir = fresh_dir("hls_tier_pc_wb");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  auto* raw = static_cast<unsigned char*>(seg.base());
  const bool has_cachestat = cachestat_dirty_pages(seg.path()).has_value();
  std::string why;
  const bool cleans = kernel_dirty_pages(seg.path(), &why).has_value();

  // Two adjacent pages plus one distant page, written through the raw
  // mapping: one msync over the region writes back what the kernel holds
  // dirty, at least those three pages (large folios may round it up).
  // The kernel's own flusher may write a page back before writeback()
  // counts it, so a short count is retried with a fresh cache.
  std::optional<hls::PageCache> pc;
  int rid = -1;
  std::size_t written = 0;
  int tries = 0;
  do {
    std::memset(raw, 0, 2 * kPage);
    raw[5 * kPage + 99] = 0;
    pc.emplace(small_pages(dir));
    rid = pc->attach(&seg);
    pc->rebaseline(rid);  // baselines: all zeros
    std::memset(raw, 0x5A, 2 * kPage);
    raw[5 * kPage + 99] = 0x5A;
    written = pc->writeback(rid);
  } while (cleans && written < 3 * kPage && ++tries < 3);
  const hls::PageCache::Stats s = pc->stats();
  EXPECT_EQ(s.writebacks, 1u);  // one msync over the region
  EXPECT_EQ(s.writeback_bytes, written);
  if (cleans) {
    EXPECT_GE(written, 3 * kPage);
    EXPECT_EQ(kernel_dirty_pages(seg.path(), &why), 0u);
    EXPECT_EQ(pc->writeback(rid), 0u);  // nothing left to write
  } else if (!has_cachestat) {
    EXPECT_EQ(written, seg.size());  // the synced range: an upper bound
  } else {
    std::printf("kernel dirty count not checked: %s\n", why.c_str());
  }
  // Durability is not a checkpoint epoch: after the flush the scan still
  // folds the three pages into exactly two spans, until rebaseline().
  const auto spans = pc->scan(rid).spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], std::make_pair(std::size_t{0}, 2 * kPage));
  EXPECT_EQ(spans[1], std::make_pair(5 * kPage, kPage));
  pc->rebaseline(rid);

  // A write through the raw mapping (the warm get_addr path never
  // re-enters the runtime): the content hash must catch it.
  static_cast<unsigned char*>(seg.base())[3 * kPage + 7] = 0xAB;
  const auto hashed = pc->scan(rid).spans;
  ASSERT_EQ(hashed.size(), 1u);
  EXPECT_EQ(hashed[0], std::make_pair(3 * kPage, kPage));

  // rebaseline (the checkpoint epoch mark) declares current contents clean.
  pc->rebaseline(rid);
  EXPECT_TRUE(pc->scan(rid).spans.empty());
}

TEST(PageCache, TouchPricesByTheKernelsResidency) {
  const std::string dir = fresh_dir("hls_tier_pc_price");
  const std::string why = readahead_fills_nothing(dir);
  if (!why.empty()) GTEST_SKIP() << why;
  constexpr std::size_t kPages = 16;
  shm::MappedSegment seg(dir + "/seg", kPages * kPage);
  auto* p = static_cast<unsigned char*>(seg.base());
  for (std::size_t i = 0; i < kPages * kPage; ++i) {
    p[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  // Take pages 4..11 out of the kernel's page cache: written back,
  // unmapped from this process, then dropped.
  seg.sync(0, seg.size(), /*blocking=*/true);
  ASSERT_EQ(madvise(p + 4 * kPage, 8 * kPage, MADV_DONTNEED), 0);
  ASSERT_EQ(posix_fadvise(seg.fd(), 4 * kPage, 8 * kPage, POSIX_FADV_DONTNEED),
            0);
  const std::size_t absent = uncached_pages(seg, 0, kPages);
  ASSERT_GT(absent, 0u) << "the kernel kept every page cached";

  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  pc.touch(rid, 0, kPages * kPage, /*task=*/0);
  hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.misses, absent);
  EXPECT_EQ(s.hits, kPages - absent);
  EXPECT_GE(s.prereads, 1u);

  // The dropped pages fault back from the file, nothing lost; now cached,
  // a second touch prices every page a hit.
  for (std::size_t i = 0; i < kPages * kPage; ++i) {
    ASSERT_EQ(p[i], static_cast<unsigned char>(i * 31 + 7)) << "byte " << i;
  }
  ASSERT_EQ(uncached_pages(seg, 0, kPages), 0u);
  pc.touch(rid, 0, kPages * kPage, /*task=*/0);
  s = pc.stats();
  EXPECT_EQ(s.misses, absent);
  EXPECT_EQ(s.hits, 2 * kPages - absent);
}

TEST(PageCache, PrereadCountsBytesActuallyRead) {
  const std::string dir = fresh_dir("hls_tier_pc_short");
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  obs::Recorder rec({.ntasks = 1, .num_scopes = 0, .ring_capacity = 8});
  hls::PageCache pc(small_pages(dir), &rec);
  const int rid = pc.attach(&seg);

  // The backing file shrinks under the cache: the 4-page read-ahead
  // window now ends past EOF, and only the part within it is asked of
  // the kernel.
  const std::size_t short_size = 2 * kPage + 100;
  ASSERT_EQ(::ftruncate(seg.fd(), static_cast<off_t>(short_size)), 0);
  std::vector<char> probe(4 * kPage);
  const ssize_t n = ::pread(seg.fd(), probe.data(), probe.size(), 0);
  ASSERT_EQ(n, static_cast<ssize_t>(short_size));
  // The probe cached what it read: drop it, so page 0 is a miss again.
  ASSERT_EQ(posix_fadvise(seg.fd(), 0, 0, POSIX_FADV_DONTNEED), 0);
  ASSERT_EQ(uncached_pages(seg, 0, 1), 1u);

  pc.touch(rid, 0, 1, /*task=*/0);
  const hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.prereads, 1u);
  EXPECT_EQ(s.preread_bytes, static_cast<std::uint64_t>(n));
  EXPECT_EQ(rec.snapshot().value(obs::Counter::tier_preread_bytes),
            static_cast<std::uint64_t>(n));
  ASSERT_EQ(::ftruncate(seg.fd(), static_cast<off_t>(8 * kPage)), 0);
}

TEST(PageCache, TouchLongerThanThePoolReadsOnlyWhatItKeeps) {
  const std::string dir = fresh_dir("hls_tier_pc_long");
  const std::string why = readahead_fills_nothing(dir);
  if (!why.empty()) GTEST_SKIP() << why;
  shm::MappedSegment seg(dir + "/seg", 16 * kPage);
  hls::TierConfig cfg = small_pages(dir);
  cfg.pool_pages = 4;
  cfg.read_ahead_pages = 2;
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);

  // One cold touch of all 16 pages: every page is a miss, but one touch
  // reads ahead at most the trailing pool's worth.
  pc.touch(rid, 0, 16 * kPage, /*task=*/0);
  hls::PageCache::Stats s = pc.stats();
  EXPECT_EQ(s.misses, 16u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_LE(s.preread_bytes, cfg.pool_pages * kPage);
  EXPECT_GT(s.preread_bytes, 0u);

  // The kernel caches the trailing pool: the last page hits, page 0
  // (priced, never read) misses.
  pc.touch(rid, 15 * kPage, 1, /*task=*/0);
  s = pc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 16u);
  pc.touch(rid, 0, 1, /*task=*/0);
  s = pc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 17u);
}

namespace {

void adopted_scan_is_the_next_baseline(Pass pass) {
  std::optional<FullPassOnly> forced;
  if (pass == Pass::full) forced.emplace();
  const std::string dir = fresh_dir(tagged("hls_tier_pc_adopt", pass));
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  auto* p = static_cast<unsigned char*>(seg.base());

  // Attached, never rebaselined: no baselines, so the whole region is
  // one changed span. Adopting that scan makes it the baseline.
  const hls::TierScan first = pc.scan(rid);
  ASSERT_EQ(first.spans.size(), 1u);
  EXPECT_EQ(first.spans[0], std::make_pair(std::size_t{0}, 8 * kPage));
  pc.rebaseline(rid, &first);

  // Two raw writes: a scan that keeps CRCs hashes every page exactly once
  // on the full pass, and at least the two written pages on the kernel's.
  std::memset(p + 2 * kPage, 0x11, 10);
  p[6 * kPage + 5] = 0x22;
  const std::uint64_t h0 = pc.stats().hashed_pages;
  const hls::TierScan scan = pc.scan(rid);
  const std::uint64_t hashed = pc.stats().hashed_pages - h0;
  EXPECT_TRUE(hashed_as_expected(pass, hashed, 2, 8));
  ASSERT_EQ(scan.spans.size(), 2u);
  EXPECT_EQ(scan.spans[0], std::make_pair(2 * kPage, kPage));
  EXPECT_EQ(scan.spans[1], std::make_pair(6 * kPage, kPage));

  // Nothing moved since the scan: adoption installs it without hashing.
  pc.rebaseline(rid, &scan);
  EXPECT_EQ(pc.stats().hashed_pages - h0, hashed);
  EXPECT_TRUE(pc.scan(rid).spans.empty());
}

}  // namespace

TEST(PageCache, AdoptedScanIsTheNextBaseline) {
  adopted_scan_is_the_next_baseline(Pass::kernel);
}

TEST(PageCache, AdoptedScanIsTheNextBaselineOnFullPass) {
  adopted_scan_is_the_next_baseline(Pass::full);
}

namespace {

void write_between_scan_and_adopt_keeps_page_in_next_delta(Pass pass) {
  std::optional<FullPassOnly> forced;
  if (pass == Pass::full) forced.emplace();
  const std::string dir = fresh_dir(tagged("hls_tier_pc_race", pass));
  shm::MappedSegment seg(dir + "/seg", 8 * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  pc.rebaseline(rid);
  auto* p = static_cast<unsigned char*>(seg.base());

  p[1 * kPage] = 0x33;
  const hls::TierScan scan = pc.scan(rid);
  // What the save captured: the region as of its scan.
  const std::vector<unsigned char> saved(p, p + 8 * kPage);
  // A write lands before the save adopts its scan.
  std::memset(p + 5 * kPage + 9, 0x44, 4);
  pc.rebaseline(rid, &scan);

  // Ground truth: the pages that differ from the saved image.
  std::vector<std::pair<std::size_t, std::size_t>> want;
  for (std::size_t page = 0; page < 8; ++page) {
    if (std::memcmp(p + page * kPage, saved.data() + page * kPage, kPage) !=
        0) {
      want.emplace_back(page * kPage, kPage);
    }
  }
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(pc.scan(rid).spans, want);
}

}  // namespace

TEST(PageCache, WriteBetweenScanAndAdoptKeepsPageInNextDelta) {
  write_between_scan_and_adopt_keeps_page_in_next_delta(Pass::kernel);
}

TEST(PageCache, WriteBetweenScanAndAdoptKeepsPageInNextDeltaOnFullPass) {
  write_between_scan_and_adopt_keeps_page_in_next_delta(Pass::full);
}

namespace {

void scan_matches_serial_crc_of_every_page(Pass pass) {
  std::optional<FullPassOnly> forced;
  if (pass == Pass::full) forced.emplace();
  const std::string dir = fresh_dir(tagged("hls_tier_pc_scan", pass));
  shm::MappedSegment seg(dir + "/seg", kScanRegion);
  hls::TierConfig cfg = small_pages(dir);
  cfg.page_bytes = kScanPage;
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);
  const std::size_t npages = (kScanRegion + kScanPage - 1) / kScanPage;
  const auto* p = static_cast<const unsigned char*>(seg.base());
  std::mt19937_64 rng(25);

  // Checks one scan against the serial ground truth over `before`. A pass
  // without baselines hashes every page once, as does every full pass; a
  // kernel pass hashes at least the changed pages.
  const auto check = [&](const std::vector<unsigned char>& before,
                         const char* when) {
    SCOPED_TRACE(when);
    const hls::TierScan want = serial_scan(seg, kScanPage, before);
    const std::uint64_t h0 = pc.stats().hashed_pages;
    const hls::TierScan got = pc.scan(rid);
    std::size_t changed = 0;
    for (const auto& [off, len] : want.spans) {
      changed += (len + kScanPage - 1) / kScanPage;
    }
    EXPECT_TRUE(hashed_as_expected(before.empty() ? Pass::full : pass,
                                   pc.stats().hashed_pages - h0, changed,
                                   npages));
    EXPECT_EQ(got.crcs, want.crcs);
    EXPECT_EQ(got.spans, want.spans);
    EXPECT_FALSE(want.spans.empty());
    return got;
  };

  // No baselines yet: one whole-region span.
  random_stores(seg, rng, 200);
  const hls::TierScan first = check({}, "before the first rebaseline");
  ASSERT_EQ(first.spans.size(), 1u);

  // After adopting a published scan.
  pc.rebaseline(rid, &first);
  std::vector<unsigned char> image(p, p + kScanRegion);
  random_stores(seg, rng, 40);
  check(image, "after rebaseline(published)");

  // After a rebaseline that hashes the region itself.
  pc.rebaseline(rid);
  image.assign(p, p + kScanRegion);
  random_stores(seg, rng, 40);
  check(image, "after rebaseline()");
}

}  // namespace

TEST(PageCache, ScanMatchesSerialCrcOfEveryPage) {
  scan_matches_serial_crc_of_every_page(Pass::kernel);
}

TEST(PageCache, ScanMatchesSerialCrcOfEveryPageOnFullPass) {
  scan_matches_serial_crc_of_every_page(Pass::full);
}

// ---- dirty tracking by the kernel's write-protect bits ---------------

namespace {

/// Tier pages (kPage each) of the kernel-path regions below.
constexpr std::size_t kTrackPages = 32;

/// One scan of `rid` against ground truth: its spans are the pages of
/// `seg` whose bytes differ (memcmp) from `saved`, and its CRCs every
/// page's serial crc32c.
testing::AssertionResult scan_matches(hls::PageCache& pc, int rid,
                                      const shm::MappedSegment& seg,
                                      const std::vector<unsigned char>& saved) {
  const hls::TierScan want = serial_scan(seg, kPage, saved);
  const hls::TierScan got = pc.scan(rid);
  if (got.spans != want.spans) {
    return testing::AssertionFailure()
           << got.spans.size() << " spans, ground truth "
           << want.spans.size();
  }
  if (got.crcs != want.crcs) {
    return testing::AssertionFailure() << "CRCs differ from crc32c";
  }
  return testing::AssertionSuccess();
}

/// The mapping's bytes now: what a save taken at this point captured.
std::vector<unsigned char> image_of(const shm::MappedSegment& seg) {
  const auto* p = static_cast<const unsigned char*>(seg.base());
  return {p, p + seg.size()};
}

/// True once `pc` has taken a pass by the kernel's bits; a test that
/// needs them skips where the host refuses (no userfaultfd write
/// protection, or a kernel before 6.7).
bool kernel_tracked(const hls::PageCache& pc) {
  return pc.stats().tracked_passes > 0;
}

}  // namespace

TEST(PageCacheKernelBits, WrittenPageStaysInTheNextDelta) {
  const std::string dir = fresh_dir("hls_tier_wp_kinds");
  const std::string donor = dir + "/donor";
  {
    const std::vector<unsigned char> bytes(kPage, 0xC3);
    const int fd = ::open(donor.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, bytes.data(), kPage), static_cast<ssize_t>(kPage));
    ::close(fd);
  }
  const std::size_t size = kTrackPages * kPage;
  // What happens between a store and the next scan (or, where `before`,
  // between the last scan and the store, which then faults the page back
  // in). The kernel-mode case is itself the write: pread(2) from another
  // file into the mapping.
  using Act = int (*)(unsigned char* p, std::size_t size);
  const Act dontneed = [](unsigned char* p, std::size_t n) {
    return ::madvise(p, n, MADV_DONTNEED);
  };
  struct Case {
    const char* what;
    Act act;
    bool before;
    bool kernel_write;
  };
  const Case cases[] = {
      {"msync",
       [](unsigned char* p, std::size_t n) { return ::msync(p, n, MS_SYNC); },
       false, false},
      {"MADV_DONTNEED", dontneed, false, false},
      {"MADV_PAGEOUT",
       [](unsigned char* p, std::size_t n) {
         // A clean page is reclaimable: write it back first.
         return ::msync(p, n, MS_SYNC) != 0 ? -1
                                            : ::madvise(p, n, MADV_PAGEOUT);
       },
       false, false},
      {"store to a page MADV_DONTNEED unmapped", dontneed, true, false},
      {"kernel-mode write", nullptr, false, true},
  };
  const int donor_fd = ::open(donor.c_str(), O_RDONLY);
  ASSERT_GE(donor_fd, 0);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    shm::MappedSegment seg(dir + "/seg", size);
    hls::PageCache pc(small_pages(dir));
    const int rid = pc.attach(&seg);
    auto* p = static_cast<unsigned char*>(seg.base());
    for (std::size_t i = 0; i < size; ++i) p[i] = pattern(0, i, 3);
    pc.rebaseline(rid);
    // Two epochs: right after the full rebaseline, and after adopting a
    // scan, a different page each.
    for (std::size_t page : {std::size_t{5}, std::size_t{kTrackPages - 1}}) {
      const std::vector<unsigned char> saved = image_of(seg);
      if (c.before) {
        ASSERT_EQ(c.act(p, size), 0) << std::strerror(errno);
      }
      if (c.kernel_write) {
        ASSERT_EQ(::pread(donor_fd, p + page * kPage, kPage, 0),
                  static_cast<ssize_t>(kPage));
      } else {
        p[page * kPage + 17] ^= 0xFF;
      }
      if (c.act != nullptr && !c.before) {
        ASSERT_EQ(c.act(p, size), 0) << std::strerror(errno);
      }
      const hls::TierScan scan = pc.scan(rid);
      const std::vector<std::pair<std::size_t, std::size_t>> want = {
          {page * kPage, kPage}};
      EXPECT_EQ(scan.spans, want) << "page " << page;
      pc.rebaseline(rid, &scan);
      // The adopted scan is the new ground truth's baseline.
      EXPECT_TRUE(scan_matches(pc, rid, seg, image_of(seg)));
    }
  }
  ::close(donor_fd);
}

TEST(PageCacheKernelBits, WriteAfterTheAdoptedScanSurvivesALaterScan) {
  const std::string dir = fresh_dir("hls_tier_wp_abab");
  shm::MappedSegment seg(dir + "/seg", kTrackPages * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  auto* p = static_cast<unsigned char*>(seg.base());
  pc.rebaseline(rid);

  p[2 * kPage] = 0x61;
  const hls::TierScan a = pc.scan(rid);
  const std::vector<unsigned char> saved = image_of(seg);  // what A saved
  // Written after A; scan B drains the kernel's bit for it, and B is
  // never adopted: A is.
  p[9 * kPage + 100] = 0x62;
  const hls::TierScan b = pc.scan(rid);
  ASSERT_EQ(b.spans.size(), 2u);
  pc.rebaseline(rid, &a);
  EXPECT_TRUE(scan_matches(pc, rid, seg, saved));
  EXPECT_EQ(pc.scan(rid).spans,
            (std::vector<std::pair<std::size_t, std::size_t>>{
                {9 * kPage, kPage}}));
}

TEST(PageCacheKernelBits, DrainOfMoreRangesThanOneScanCallReturns) {
  const std::string dir = fresh_dir("hls_tier_wp_ranges");
  constexpr std::size_t kPages = 1024;  // 4 MiB in system-page tier pages
  shm::MappedSegment seg(dir + "/seg", kPages * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  auto* p = static_cast<unsigned char*>(seg.base());
  std::memset(p, 0x17, kPages * kPage);
  pc.rebaseline(rid);
  const std::vector<unsigned char> saved = image_of(seg);
  // Every other page: 512 separate written ranges.
  for (std::size_t page = 0; page < kPages; page += 2) p[page * kPage] = 0x71;

  hlsmpc::fault::FaultInjector inj;  // armed nowhere: counts the calls
  hlsmpc::fault::ScopedFaultInjection installed(inj);
  const std::uint64_t h0 = pc.stats().hashed_pages;
  EXPECT_TRUE(scan_matches(pc, rid, seg, saved));
  if (!kernel_tracked(pc)) GTEST_SKIP() << "the kernel refuses the bits";
  EXPECT_GE(inj.hits("tier:uffd"), 2u) << "one PAGEMAP_SCAN call";
  EXPECT_GE(pc.stats().hashed_pages - h0, kPages / 2);
}

TEST(PageCacheKernelBits, CheckpointShapedDeltaHashesAtMostFourTimesWritten) {
  // tier_ckpt's shape at a quarter of its size: four ranks each rewrite
  // one 256 KiB slice of their share per interval, then a flush and a
  // delta save (scan, adopt).
  constexpr std::size_t kRegion = std::size_t{16} << 20;
  constexpr std::size_t kSlice = 256 * 1024;
  constexpr std::size_t kRanks = 4;
  const std::string dir = fresh_dir("hls_tier_wp_ckpt");
  shm::MappedSegment seg(dir + "/seg", kRegion);
  hls::TierConfig cfg = small_pages(dir);
  cfg.page_bytes = kScanPage;
  hls::PageCache pc(cfg);
  const int rid = pc.attach(&seg);
  auto* p = static_cast<unsigned char*>(seg.base());
  for (std::size_t i = 0; i < kRegion; ++i) p[i] = pattern(1, i, 4);
  pc.writeback(rid);
  pc.rebaseline(rid);  // the first, full save
  const std::size_t written = kRanks * kSlice / kScanPage;
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<unsigned char> saved = image_of(seg);
    for (std::size_t rank = 0; rank < kRanks; ++rank) {
      const std::size_t off =
          rank * (kRegion / kRanks) + (round % 8) * 2 * kSlice;
      for (std::size_t i = 0; i < kSlice; ++i) {
        p[off + i] = static_cast<unsigned char>(round * 13 + i);
      }
    }
    pc.writeback(rid);
    const hls::TierScan want = serial_scan(seg, kScanPage, saved);
    const std::uint64_t h0 = pc.stats().hashed_pages;
    const hls::TierScan scan = pc.scan(rid);
    const std::uint64_t hashed = pc.stats().hashed_pages - h0;
    pc.rebaseline(rid, &scan);
    EXPECT_EQ(scan.spans, want.spans);
    EXPECT_EQ(scan.crcs, want.crcs);
    if (!kernel_tracked(pc)) GTEST_SKIP() << "the kernel refuses the bits";
    EXPECT_GE(hashed, written);
    EXPECT_LE(hashed, 4 * written);
  }
}

TEST(PageCacheKernelBits, DrainThatFailsAfterTrackingLosesNoPage) {
  const std::string dir = fresh_dir("hls_tier_wp_fail");
  constexpr std::size_t kPages = 1024;
  shm::MappedSegment seg(dir + "/seg", kPages * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  auto* p = static_cast<unsigned char*>(seg.base());
  pc.rebaseline(rid);
  std::vector<unsigned char> saved = image_of(seg);
  for (std::size_t page = 0; page < kPages; page += 2) p[page * kPage] = 0x72;

  // The drain's second PAGEMAP_SCAN call fails: the first already
  // re-protected the pages it reported, so the region must not trust
  // what it read.
  hlsmpc::fault::FaultInjector inj;
  hlsmpc::fault::ScopedFaultInjection installed(inj);
  inj.arm("tier:uffd", 2);
  const hls::PageCache::Stats s0 = pc.stats();
  EXPECT_TRUE(scan_matches(pc, rid, seg, saved));
  if (s0.tracked_passes == 0 && inj.hits("tier:uffd") == 0) {
    GTEST_SKIP() << "the kernel refuses the bits";
  }
  EXPECT_EQ(inj.fired("tier:uffd"), 1u);
  EXPECT_EQ(pc.stats().full_passes, s0.full_passes + 1);

  // The full pass is for good: a later scan asks the kernel nothing.
  const std::uint64_t calls = inj.hits("tier:uffd");
  pc.rebaseline(rid);
  saved = image_of(seg);
  p[3 * kPage + 1] = 0x73;
  EXPECT_TRUE(scan_matches(pc, rid, seg, saved));
  EXPECT_EQ(inj.hits("tier:uffd"), calls);
  EXPECT_EQ(pc.stats().tracked_passes, s0.tracked_passes);
}

TEST(PageCacheKernelBits, ForkedChildTakesTheFullPassAndLeavesTheParentsBits) {
  const std::string dir = fresh_dir("hls_tier_wp_fork");
  shm::MappedSegment seg(dir + "/seg", kTrackPages * kPage);
  hls::PageCache pc(small_pages(dir));
  const int rid = pc.attach(&seg);
  auto* p = static_cast<unsigned char*>(seg.base());
  pc.rebaseline(rid);  // armed by this process
  const std::vector<unsigned char> saved = image_of(seg);
  p[3 * kPage] = 0x81;  // not yet drained

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The inherited descriptors name the parent's page tables: a drain
    // here would take the parent's bits. The child hashes every page.
    p[7 * kPage] = 0x82;
    const hls::PageCache::Stats s0 = pc.stats();
    const hls::TierScan got = pc.scan(rid);
    const hls::TierScan want = serial_scan(seg, kPage, saved);
    const hls::PageCache::Stats s1 = pc.stats();
    int bad = 0;
    if (got.spans != want.spans || got.crcs != want.crcs) bad |= 1;
    if (s1.full_passes != s0.full_passes + 1) bad |= 2;
    if (s1.hashed_pages - s0.hashed_pages != kTrackPages) bad |= 4;
    ::_exit(bad);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "1: wrong scan, 2: not the full "
                                       "pass, 4: not every page hashed";

  // The parent's own store is still reported. The child's store through
  // its own mapping is the stated limit: the parent's bits never see it.
  const hls::TierScan scan = pc.scan(rid);
  ASSERT_FALSE(scan.spans.empty());
  EXPECT_EQ(scan.spans.front(), std::make_pair(3 * kPage, kPage));
  if (kernel_tracked(pc)) {
    EXPECT_EQ(scan.spans.size(), 1u);
  }
}

// ---- the persistence substrate ---------------------------------------

TEST(MappedSegmentTier, ReopenIsBitIdenticalAndMismatchRecreates) {
  const std::string dir = fresh_dir("hls_tier_reopen");
  const std::string path = dir + "/persist";
  {
    shm::MappedSegment seg(path, 2 * kPage);
    EXPECT_FALSE(seg.reopened());
    auto* p = static_cast<unsigned char*>(seg.base());
    for (std::size_t i = 0; i < 2 * kPage; ++i) {
      p[i] = static_cast<unsigned char>(i * 13 + 5);
    }
    seg.sync(0, 2 * kPage, /*blocking=*/true);
  }
  {
    // Same path, same size: the previous run's bytes, bit-identical.
    shm::MappedSegment seg(path, 2 * kPage);
    EXPECT_TRUE(seg.reopened());
    const auto* p = static_cast<const unsigned char*>(seg.base());
    for (std::size_t i = 0; i < 2 * kPage; ++i) {
      ASSERT_EQ(p[i], static_cast<unsigned char>(i * 13 + 5)) << "byte " << i;
    }
  }
  {
    // Size mismatch: recreated as zeros — stale bytes must never leak
    // into a region registered with a different layout.
    shm::MappedSegment seg(path, 4 * kPage);
    EXPECT_FALSE(seg.reopened());
    const auto* p = static_cast<const unsigned char*>(seg.base());
    for (std::size_t i = 0; i < 4 * kPage; ++i) {
      ASSERT_EQ(p[i], 0u) << "byte " << i;
    }
  }
}

// ---- runtime integration ---------------------------------------------

TEST(TierRuntime, FileBackedReadsAndWritesLikeAnonymous) {
  const std::string dir = fresh_dir("hls_tier_rt_basic");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);
  hls::Runtime rt(m, 1, o);
  const TierVars v = register_blob(rt);
  rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
  EXPECT_EQ(rt.storage().tier_of(v.blob.scope, v.blob.module),
            hls::Tier::file_backed);

  fill_all(rt, v.blob, /*salt=*/5);
  EXPECT_TRUE(all_match(rt, v.blob, 5));
  // File-tier bytes are paged by the kernel against the file — they are
  // deliberately NOT charged as allocated DRAM.
  EXPECT_EQ(rt.storage().bytes_allocated(), 0u);
}

TEST(TierRuntime, FileBackedSurvivesRestartBitIdenticalThroughGetAddr) {
  const std::string dir = fresh_dir("hls_tier_rt_persist");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);

  // "Process" 1: write instance 0 through the compiled get_addr path and
  // flush the dirty pages to the backing file.
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
    ult::ThreadExecutor ex;
    std::size_t flushed = 0;
    ex.run(1, {0}, [&](ult::TaskContext& ctx) {
      rt.bind_task(ctx);
      auto* p = static_cast<std::uint8_t*>(rt.get_addr(v.blob, ctx));
      for (std::size_t i = 0; i < v.blob.size; ++i) p[i] = pattern(0, i, 5);
      flushed = rt.tier_flush(ctx);
    });
    EXPECT_GT(flushed, 0u);
    const obs::Snapshot snap = rt.obs()->snapshot();
    EXPECT_GE(snap.value(obs::Counter::tier_spills), 1u);
    EXPECT_GE(snap.value(obs::Counter::tier_cache_misses), 1u);
    EXPECT_GT(snap.value(obs::Counter::tier_writeback_bytes), 0u);
  }
  // The stable-path backing file outlives the runtime.
  EXPECT_GE(count_files(dir), 1);

  // "Process" 2 (the restart): the same registration re-opens the file —
  // initializers are skipped — and reads back bit-identical through
  // hls_get_addr.
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
    std::atomic<bool> ok{true};
    ult::ThreadExecutor ex;
    ex.run(1, {0}, [&](ult::TaskContext& ctx) {
      rt.bind_task(ctx);
      const auto* p =
          static_cast<const std::uint8_t*>(rt.get_addr(v.blob, ctx));
      for (std::size_t i = 0; i < v.blob.size; ++i) {
        if (p[i] != pattern(0, i, 5)) ok.store(false);
      }
      // A second resolve of the whole range, priced again.
      rt.storage().get_addr(v.blob.scope, v.blob.module, 0, v.blob.size, 0,
                            &ctx);
    });
    EXPECT_TRUE(ok.load());
    // Run 1's pages may still be in the kernel's page cache, so each
    // touched page is a hit or a miss as the kernel holds it: two
    // whole-region touches price every page twice.
    const obs::Snapshot snap = rt.obs()->snapshot();
    EXPECT_EQ(snap.value(obs::Counter::tier_cache_misses) +
                  snap.value(obs::Counter::tier_cache_hits),
              2 * v.blob.size / kPage);
    EXPECT_GE(snap.value(obs::Counter::tier_spills), 1u);
  }
}

TEST(TierRuntime, SpillFilesAreRemovedAtDestruction) {
  const std::string dir = fresh_dir("hls_tier_rt_spill");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(dir);
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_spill);
    fill_all(rt, v.blob, /*salt=*/3);
    EXPECT_TRUE(all_match(rt, v.blob, 3));
    // One pid-stamped scratch file per materialized instance.
    EXPECT_GE(count_files(dir), 1);
  }
  // Scratch is scratch: destruction unlinks every spill file.
  EXPECT_EQ(count_files(dir), 0);
}

// ---- durability against the kernel's dirty count ----------------------

namespace {

/// A runtime whose one file-tier region is an 8 MiB node-scope array
/// filled by an initializer.
struct InitedRt {
  static constexpr std::size_t kWords = 2048 * kPage / sizeof(std::uint64_t);
  hls::Runtime rt;
  hls::VarHandle h;
  explicit InitedRt(const std::string& tier_dir)
      : rt(topo::Machine::nehalem_ex(2), 1, [&] {
          hls::Runtime::Options o;
          o.tier = small_pages(tier_dir);
          o.tier.pool_pages = 2048;  // no eviction: only the flush writes
          return o;
        }()) {
    hls::ModuleBuilder mb(rt.registry(), "inited");
    h = hls::add_array<std::uint64_t>(mb, "state", kWords, topo::node_scope(),
                                      [](std::uint64_t* p, std::size_t n) {
                                        for (std::size_t i = 0; i < n; ++i) {
                                          p[i] = i * 0x9E3779B97F4A7C15ull + 1;
                                        }
                                      })
            .handle();
    mb.commit();
    rt.storage().set_module_tier(h.scope, h.module, hls::Tier::file_backed);
  }
  std::uint64_t* state() {
    return static_cast<std::uint64_t*>(rt.storage().get_addr(h, /*cpu=*/0));
  }
};

}  // namespace

TEST(TierRuntime, FlushLeavesNothingDirtyInThePageCache) {
  const std::string tier_dir = fresh_dir("hls_tier_durable");
  InitedRt t(tier_dir);
  std::uint64_t* state = t.state();
  const std::string file = sole_file(tier_dir);
  std::string why;
  if (!kernel_dirty_pages(file, &why)) GTEST_SKIP() << why;

  // The initializer's pages are dirty in the kernel, and no checkpoint
  // epoch says anything about them: the flush must write them. (Only
  // the count after a flush is asserted: the kernel's own flusher may
  // clean pages at any time, but nothing dirties them behind us.)
  t.rt.tier_flush();
  EXPECT_EQ(kernel_dirty_pages(file, &why), 0u);

  // A page written, then checkpointed: the save moves the dirty-tracking
  // epoch, which must not hide the page from the next flush.
  hls::CheckpointStore store({fresh_dir("hls_tier_durable_ckpt")});
  t.rt.checkpoint(store, topo::node_scope());
  state[3 * kPage / sizeof(std::uint64_t)] ^= 1;
  t.rt.checkpoint_incremental(store, topo::node_scope());
  t.rt.tier_flush();
  EXPECT_EQ(kernel_dirty_pages(file, &why), 0u);
}

TEST(TierRuntime, FailedMsyncSurfacesAsCorruptionAndARetryFlushes) {
  const std::string tier_dir = fresh_dir("hls_tier_msync_fault");
  InitedRt t(tier_dir);
  t.state()[0] ^= 1;
  hlsmpc::fault::FaultInjector inj;
  hlsmpc::fault::ScopedFaultInjection installed(inj);
  inj.arm("shm:msync");
  try {
    t.rt.tier_flush();
    ADD_FAILURE() << "tier_flush returned although its msync failed";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::corruption) << e.what();
  }
  EXPECT_EQ(inj.fired("shm:msync"), 1u);
  inj.disarm("shm:msync");

  // The failed flush released the cache lock (a held one would hang here,
  // caught by the ctest timeout) and left the pages dirty for a retry.
  t.rt.tier_flush();
  std::string why;
  if (const auto left = kernel_dirty_pages(sole_file(tier_dir), &why)) {
    EXPECT_EQ(*left, 0u);
  } else {
    std::printf("kernel dirty count not checked: %s\n", why.c_str());
  }
}

// ---- incremental checkpoints over dirty page tracking ------------------

TEST(TierRuntime, IncrementalCheckpointSnapshotsOnlyDirtyPages) {
  const std::string ckpt_dir = fresh_dir("hls_tier_ckpt");
  const std::string tier_dir = fresh_dir("hls_tier_ckpt_tier");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(tier_dir);
  hls::Runtime rt(m, 1, o);
  const TierVars v = register_blob(rt);
  rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
  const auto& st = rt.registry().scopes();
  const int sid = hls::scope_id(st, v.blob.scope);
  const int ninstances = [&] {
    int n = 0;
    for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
      n = std::max(n, st.instance_of(sid, cpu) + 1);
    }
    return n;
  }();
  ASSERT_GE(ninstances, 1);

  fill_all(rt, v.blob, /*salt=*/1);
  hls::CheckpointStore store({ckpt_dir});
  const hls::CheckpointStore::Report full =
      store.save(rt.storage(), rt.registry(), v.blob.scope);
  EXPECT_FALSE(full.delta);
  EXPECT_EQ(full.version, 1u);
  // A full save carries every instance, whole.
  EXPECT_EQ(full.payload_bytes,
            static_cast<std::size_t>(ninstances) * v.blob.size);

  // Dirty exactly one page per instance (page 2), through get_addr like a
  // task write between checkpoint epochs.
  for (int cpu = 0; cpu < st.num_cpus(); ++cpu) {
    const int inst = st.instance_of(sid, cpu);
    auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(
        v.blob.scope, v.blob.module, 2 * kPage, 64, cpu));
    for (std::size_t j = 0; j < 64; ++j) {
      p[j] = pattern(inst, 2 * kPage + j, 2);
    }
  }
  const hls::CheckpointStore::Report inc =
      store.save_incremental(rt.storage(), rt.registry(), v.blob.scope);
  EXPECT_TRUE(inc.delta);
  EXPECT_EQ(inc.version, 2u);
  EXPECT_EQ(inc.base_version, 1u);
  EXPECT_EQ(inc.regions, ninstances);  // one dirty span per instance
  // One dirty page per instance — not the whole region.
  EXPECT_EQ(inc.payload_bytes, static_cast<std::size_t>(ninstances) * kPage);
  EXPECT_LT(inc.payload_bytes, full.payload_bytes);

  // Restore the chain (full v1 + delta v2) into a fresh runtime whose
  // tier directory is EMPTY — the bytes must come from the checkpoint,
  // not from a surviving backing file.
  const std::string tier_dir2 = fresh_dir("hls_tier_ckpt_tier2");
  hls::Runtime::Options o2;
  o2.tier = small_pages(tier_dir2);
  hls::Runtime rt2(m, 1, o2);
  const TierVars v2 = register_blob(rt2);
  rt2.storage().set_tier(v2.blob.scope, hls::Tier::file_backed);
  const hls::CheckpointStore::Report restored =
      store.restore(rt2.storage(), rt2.registry(), v2.blob.scope);
  EXPECT_EQ(restored.version, 2u);
  EXPECT_TRUE(restored.delta);
  EXPECT_EQ(restored.base_version, 1u);

  const auto& st2 = rt2.registry().scopes();
  const int sid2 = hls::scope_id(st2, v2.blob.scope);
  for (int cpu = 0; cpu < st2.num_cpus(); ++cpu) {
    const int inst = st2.instance_of(sid2, cpu);
    const auto* p =
        static_cast<const std::uint8_t*>(rt2.storage().get_addr(v2.blob, cpu));
    for (std::size_t i = 0; i < v2.blob.size; ++i) {
      const bool overwritten = i >= 2 * kPage && i < 2 * kPage + 64;
      const std::uint8_t want = pattern(inst, i, overwritten ? 2 : 1);
      ASSERT_EQ(p[i], want) << "instance " << inst << " byte " << i;
    }
  }
}

namespace {

constexpr std::size_t kWidePages = 32;

hls::VarHandle register_wide(hls::Runtime& rt) {
  hls::ModuleBuilder mb(rt.registry(), "wide");
  auto blob = hls::add_array<std::uint8_t>(mb, "blob", kWidePages * kPage,
                                           topo::node_scope());
  mb.commit();
  return blob.handle();
}

/// A file_backed runtime over `tier_dir` with `h` registered.
struct TierRt {
  hls::Runtime rt;
  hls::VarHandle h;
  TierRt(const topo::Machine& m, const std::string& tier_dir)
      : rt(m, 1, [&] {
          hls::Runtime::Options o;
          o.tier = small_pages(tier_dir);
          return o;
        }()),
        h(register_wide(rt)) {
    rt.storage().set_tier(h.scope, hls::Tier::file_backed);
  }

  /// One warm base pointer per scope instance (materializing each).
  std::vector<std::uint8_t*> bases() { return instance_bases(rt, h); }
};

/// Every instance's bytes after restoring the newest version of `dir`
/// into a fresh runtime on an empty tier directory.
std::vector<std::vector<std::uint8_t>> restored_image(
    const topo::Machine& m, const std::string& ckpt_dir,
    const std::string& tier_dir) {
  TierRt fresh(m, fresh_dir(tier_dir));
  hls::CheckpointStore reader({ckpt_dir});
  reader.restore(fresh.rt.storage(), fresh.rt.registry(), fresh.h.scope);
  std::vector<std::vector<std::uint8_t>> img;
  for (std::uint8_t* b : fresh.bases()) img.emplace_back(b, b + fresh.h.size);
  return img;
}

/// Pages (per instance) whose bytes differ from `img`, and the number of
/// maximal runs they form — what an exact delta manifest must hold.
struct Diff {
  std::size_t pages = 0;
  int runs = 0;
};
Diff diff_pages(const std::vector<std::uint8_t*>& live,
                const std::vector<std::vector<std::uint8_t>>& img) {
  Diff d;
  for (std::size_t i = 0; i < live.size(); ++i) {
    bool prev = false;
    for (std::size_t page = 0; page < kWidePages; ++page) {
      const bool differs = std::memcmp(live[i] + page * kPage,
                                       img[i].data() + page * kPage,
                                       kPage) != 0;
      if (differs) ++d.pages;
      if (differs && !prev) ++d.runs;
      prev = differs;
    }
  }
  return d;
}

testing::AssertionResult same_bytes(
    const std::vector<std::uint8_t*>& live,
    const std::vector<std::vector<std::uint8_t>>& img) {
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (std::memcmp(live[i], img[i].data(), img[i].size()) != 0) {
      return testing::AssertionFailure()
             << "instance " << i << " differs from its restored image";
    }
  }
  return testing::AssertionSuccess();
}

}  // namespace

namespace {

void raw_write_after_delta_save_appears_in_next_delta(Pass pass) {
  std::optional<FullPassOnly> forced;
  if (pass == Pass::full) forced.emplace();
  const std::string ckpt_dir =
      fresh_dir(tagged("hls_tier_raw_ckpt", pass));
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  TierRt t(m, fresh_dir(tagged("hls_tier_raw_tier", pass)));
  const std::vector<std::uint8_t*> live = t.bases();
  for (std::uint8_t* b : live) std::memset(b, 0x5A, t.h.size);
  hls::CheckpointStore store({ckpt_dir, "hls", /*keep=*/8});
  EXPECT_EQ(t.rt.checkpoint(store, topo::node_scope()), 1u);

  // Writes through the warm pointer only — the runtime never sees them.
  live[0][1 * kPage + 3] = 0x01;
  const hls::CheckpointStore::Report d1 =
      store.save_incremental(t.rt.storage(), t.rt.registry(), t.h.scope);
  ASSERT_TRUE(d1.delta);
  EXPECT_EQ(d1.payload_bytes, kPage);

  // The save adopted its own scan as the new baseline: the next delta
  // holds exactly the page written since, not page 1 again.
  live[0][3 * kPage + 7] = 0x02;
  hls::PageCache* pc = t.rt.storage().page_cache();
  ASSERT_NE(pc, nullptr);
  const std::uint64_t h0 = pc->stats().hashed_pages;
  EXPECT_EQ(t.rt.checkpoint_incremental(store, topo::node_scope()), 3u);
  // At most one hash per page for the whole delta checkpoint (scan, then
  // adopt): every page on the full pass, at least the written one on the
  // kernel's.
  EXPECT_TRUE(hashed_as_expected(pass, pc->stats().hashed_pages - h0, 1,
                                 live.size() * kWidePages));
  const auto img =
      restored_image(m, ckpt_dir, tagged("hls_tier_raw_tier2", pass));
  EXPECT_TRUE(same_bytes(live, img));

  const hls::CheckpointStore::Report d3 =
      store.save_incremental(t.rt.storage(), t.rt.registry(), t.h.scope);
  EXPECT_TRUE(d3.delta);
  EXPECT_EQ(d3.payload_bytes, 0u);  // nothing written since version 3
}

}  // namespace

TEST(TierRuntime, RawWriteAfterDeltaSaveAppearsInNextDelta) {
  raw_write_after_delta_save_appears_in_next_delta(Pass::kernel);
}

TEST(TierRuntime, RawWriteAfterDeltaSaveAppearsInNextDeltaOnFullPass) {
  raw_write_after_delta_save_appears_in_next_delta(Pass::full);
}

namespace {

void delta_spans_match_memcmp_ground_truth(Pass pass) {
  std::optional<FullPassOnly> forced;
  if (pass == Pass::full) forced.emplace();
  const std::string ckpt_dir =
      fresh_dir(tagged("hls_tier_rounds_ckpt", pass));
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  TierRt t(m, fresh_dir(tagged("hls_tier_rounds_tier", pass)));
  const std::vector<std::uint8_t*> live = t.bases();
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t b = 0; b < t.h.size; ++b) {
      live[i][b] = pattern(static_cast<int>(i), b, 9);
    }
  }
  // keep > rounds: every incremental save stays a delta.
  hls::CheckpointStore store({ckpt_dir, "hls", /*keep=*/16});
  store.save(t.rt.storage(), t.rt.registry(), t.h.scope);
  auto prev =
      restored_image(m, ckpt_dir, tagged("hls_tier_rounds_r", pass));
  ASSERT_TRUE(same_bytes(live, prev));

  std::mt19937_64 rng(7);
  for (int round = 0; round < 10; ++round) {
    // Raw writes through warm pointers, some straddling a page edge.
    const int writes = 1 + static_cast<int>(rng() % 6);
    for (int w = 0; w < writes; ++w) {
      const std::size_t inst = rng() % live.size();
      const std::size_t len = 1 + rng() % 300;
      const std::size_t off = rng() % (t.h.size - len);
      for (std::size_t b = 0; b < len; ++b) {
        live[inst][off + b] = static_cast<std::uint8_t>(rng());
      }
    }
    // Every third round also a write through import_region that
    // certainly changes its bytes.
    if (round % 3 == 0) {
      const std::size_t page = rng() % kWidePages;
      std::vector<std::uint8_t> flipped(live[0] + page * kPage,
                                        live[0] + page * kPage + 64);
      for (auto& b : flipped) b ^= 0xA5;
      t.rt.storage().import_region(
          t.h.scope, 0, t.h.module, page * kPage, flipped.size(),
          [&](std::byte* dst) {
            std::memcpy(dst, flipped.data(), flipped.size());
          });
    }
    if (round % 2 == 1) t.rt.tier_flush();  // moves no epoch

    const Diff want = diff_pages(live, prev);
    const hls::CheckpointStore::Report rep =
        store.save_incremental(t.rt.storage(), t.rt.registry(), t.h.scope);
    ASSERT_TRUE(rep.delta) << "round " << round;
    EXPECT_EQ(rep.payload_bytes, want.pages * kPage) << "round " << round;
    EXPECT_EQ(rep.regions, want.runs) << "round " << round;
    // The payload covers exactly the differing pages' byte count, and the
    // chain restores to the live bytes: so no differing page is missing
    // and no clean page took its place.
    prev = restored_image(
        m, ckpt_dir,
        tagged("hls_tier_rounds_r" + std::to_string(round), pass));
    ASSERT_TRUE(same_bytes(live, prev)) << "round " << round;
  }
}

}  // namespace

TEST(TierRuntime, DeltaSpansMatchMemcmpGroundTruthOverRandomRounds) {
  delta_spans_match_memcmp_ground_truth(Pass::kernel);
}

TEST(TierRuntime, DeltaSpansMatchMemcmpGroundTruthOverRandomRoundsOnFullPass) {
  delta_spans_match_memcmp_ground_truth(Pass::full);
}

TEST(TierRuntime, SoftwareCrcTrailerStillRestores) {
  const std::string ckpt_dir = fresh_dir("hls_tier_swcrc_ckpt");
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  TierRt t(m, fresh_dir("hls_tier_swcrc_tier"));
  const std::vector<std::uint8_t*> live = t.bases();
  for (std::uint8_t* b : live) std::memset(b, 0x3C, t.h.size);
  hls::CheckpointStore store({ckpt_dir});
  store.save(t.rt.storage(), t.rt.registry(), t.h.scope);

  DIR* d = opendir(ckpt_dir.c_str());
  ASSERT_NE(d, nullptr);
  std::string path;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') path = ckpt_dir + "/" + e->d_name;
  }
  closedir(d);
  ASSERT_FALSE(path.empty());

  // The version file ends [... last payload byte][CRC-32C trailer]. Flip
  // that payload byte and re-seal the file with the SOFTWARE CRC: restore
  // must accept it, i.e. both implementations agree on the format.
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  struct stat st;
  ASSERT_EQ(::fstat(fd, &st), 0);
  std::vector<unsigned char> file(static_cast<std::size_t>(st.st_size));
  ASSERT_EQ(::pread(fd, file.data(), file.size(), 0),
            static_cast<ssize_t>(file.size()));
  const std::size_t body = file.size() - sizeof(std::uint32_t);
  std::uint32_t trailer;
  std::memcpy(&trailer, file.data() + body, sizeof(trailer));
  EXPECT_EQ(trailer, crc_sw(file.data(), body));
  file[body - 1] = 0xC3;
  trailer = crc_sw(file.data(), body);
  std::memcpy(file.data() + body, &trailer, sizeof(trailer));
  ASSERT_EQ(::pwrite(fd, file.data(), file.size(), 0),
            static_cast<ssize_t>(file.size()));
  ::close(fd);

  const auto img = restored_image(m, ckpt_dir, "hls_tier_swcrc_tier2");
  std::size_t changed = 0;
  for (const auto& inst : img) {
    for (const std::uint8_t b : inst) {
      if (b != 0x3C) {
        EXPECT_EQ(b, 0xC3);
        ++changed;
      }
    }
  }
  EXPECT_EQ(changed, 1u);
}

TEST(TierRuntime, RestoreSkipsTheInitializerOfARegionItOverwritesWhole) {
  static std::atomic<int> inits{0};
  const auto register_counted = [](hls::Runtime& rt) {
    hls::ModuleBuilder mb(rt.registry(), "counted");
    auto blob = hls::add_array<std::uint8_t>(
        mb, "blob", 4 * kPage, topo::node_scope(),
        [](std::uint8_t* p, std::size_t n) {
          inits.fetch_add(1);
          std::memset(p, 0x11, n);
        });
    mb.commit();
    rt.storage().set_tier(blob.handle().scope, hls::Tier::file_backed);
    return blob.handle();
  };
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  const std::string ckpt_dir = fresh_dir("hls_tier_noinit_ckpt");
  hls::CheckpointStore store({ckpt_dir});
  {
    hls::Runtime rt(m, 1, {.tier = small_pages(fresh_dir("hls_tier_noinit"))});
    const hls::VarHandle h = register_counted(rt);
    auto* p = static_cast<std::uint8_t*>(rt.storage().get_addr(h, 0));
    for (std::size_t i = 0; i < h.size; ++i) p[i] = pattern(0, i, 4);
    store.save(rt.storage(), rt.registry(), h.scope);
  }
  ASSERT_EQ(inits.load(), 1);

  // A full version overwrites the region whole: restore materializes it
  // with the checkpoint's bytes in place of the initializer's.
  hls::Runtime rt2(m, 1, {.tier = small_pages(fresh_dir("hls_tier_noinit2"))});
  const hls::VarHandle h2 = register_counted(rt2);
  store.restore(rt2.storage(), rt2.registry(), h2.scope);
  EXPECT_EQ(inits.load(), 1);
  const auto* q = static_cast<const std::uint8_t*>(rt2.storage().get_addr(h2, 0));
  for (std::size_t i = 0; i < h2.size; ++i) {
    ASSERT_EQ(q[i], pattern(0, i, 4)) << "byte " << i;
  }

  // A span covering part of a fresh region: the rest is the
  // initializer's, so it runs first.
  hls::Runtime rt3(m, 1, {.tier = small_pages(fresh_dir("hls_tier_noinit3"))});
  const hls::VarHandle h3 = register_counted(rt3);
  rt3.storage().import_region(h3.scope, 0, h3.module, kPage, 8,
                              [](std::byte* dst) { std::memset(dst, 0x22, 8); });
  EXPECT_EQ(inits.load(), 2);
  const auto* r = static_cast<const std::uint8_t*>(rt3.storage().get_addr(h3, 0));
  EXPECT_EQ(r[0], 0x11);
  EXPECT_EQ(r[kPage], 0x22);
  EXPECT_EQ(r[kPage + 8], 0x11);
}

TEST(TierRuntime, DeltaCarriesARegionFirstTouchedAfterTheLastSaveWhole) {
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime::Options o;
  o.tier = small_pages(fresh_dir("hls_tier_late_tier"));
  // An earlier run leaves the region's backing file behind.
  {
    hls::Runtime rt(m, 1, o);
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
    fill_all(rt, v.blob, /*salt=*/5);
    rt.tier_flush();
  }
  // This run saves before touching the region, then re-opens it (the
  // earlier run's bytes) and writes one page of each instance.
  hls::Runtime rt(m, 1, o);
  const TierVars v = register_blob(rt);
  rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
  const std::string ckpt_dir = fresh_dir("hls_tier_late_ckpt");
  hls::CheckpointStore store({ckpt_dir});
  store.save(rt.storage(), rt.registry(), v.blob.scope);
  const std::vector<std::uint8_t*> live = instance_bases(rt, v.blob);
  for (std::uint8_t* b : live) b[2 * kPage] ^= 0xFF;
  const hls::CheckpointStore::Report inc =
      store.save_incremental(rt.storage(), rt.registry(), v.blob.scope);
  ASSERT_TRUE(inc.delta);
  // No save has seen the region: the delta carries it whole.
  EXPECT_EQ(inc.payload_bytes, live.size() * v.blob.size);

  // Restored where no backing file survives, every byte comes from the
  // checkpoint chain.
  hls::Runtime rt2(m, 1,
                   {.tier = small_pages(fresh_dir("hls_tier_late_tier2"))});
  const TierVars v2 = register_blob(rt2);
  rt2.storage().set_tier(v2.blob.scope, hls::Tier::file_backed);
  hls::CheckpointStore reader({ckpt_dir});
  reader.restore(rt2.storage(), rt2.registry(), v2.blob.scope);
  const std::vector<std::uint8_t*> back = instance_bases(rt2, v2.blob);
  ASSERT_EQ(back.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    std::size_t differ = 0;
    for (std::size_t b = 0; b < v.blob.size; ++b) {
      differ += live[i][b] != back[i][b];
    }
    EXPECT_EQ(differ, 0u) << "instance " << i << ": " << differ << " of "
                          << v.blob.size
                          << " bytes differ from the saved image";
  }
}

TEST(TierRuntime, MaterializingHashesNothingAndRestoreHashesEachRegionOnce) {
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  const std::string ckpt_dir = fresh_dir("hls_tier_hash_ckpt");
  std::size_t regions = 0;
  {
    hls::Runtime rt(m, 1, {.tier = small_pages(fresh_dir("hls_tier_hash"))});
    const TierVars v = register_blob(rt);
    rt.storage().set_tier(v.blob.scope, hls::Tier::file_backed);
    fill_all(rt, v.blob, /*salt=*/6);  // materializes every instance
    EXPECT_EQ(rt.storage().page_cache()->stats().hashed_pages, 0u);
    regions = instance_bases(rt, v.blob).size();
    hls::CheckpointStore store({ckpt_dir});
    store.save(rt.storage(), rt.registry(), v.blob.scope);
  }
  hls::Runtime rt2(m, 1, {.tier = small_pages(fresh_dir("hls_tier_hash2"))});
  const TierVars v2 = register_blob(rt2);
  rt2.storage().set_tier(v2.blob.scope, hls::Tier::file_backed);
  hls::CheckpointStore reader({ckpt_dir});
  reader.restore(rt2.storage(), rt2.registry(), v2.blob.scope);
  // One pass per region: the restore's rebaseline.
  EXPECT_EQ(rt2.storage().page_cache()->stats().hashed_pages,
            regions * (v2.blob.size / kPage));
  EXPECT_TRUE(all_match(rt2, v2.blob, 6));
}

// ---- memory footprint against the kernel's own accounting -------------
//
// The tier's claim is that DRAM holds the region's pages once: in the
// kernel page cache, mapped by the region. These check that claim with
// /proc/self/status, not with the cache's bookkeeping.

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// A /proc/self/status field ("VmHWM", "VmRSS", "RssAnon") in bytes.
std::size_t status_bytes(const std::string& field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot open /proc/self/status");
  char line[256];
  std::size_t kib = 0;
  bool found = false;
  while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
    found = std::strncmp(line, (field + ":").c_str(), field.size() + 1) == 0 &&
            std::sscanf(line + field.size() + 1, "%zu", &kib) == 1;
  }
  std::fclose(f);
  if (!found) throw std::runtime_error("no " + field + " in /proc/self/status");
  return kib * 1024;
}

constexpr std::size_t kBigPage = 64 * 1024;

hls::Runtime::Options big_pages(const std::string& dir) {
  hls::Runtime::Options o;
  o.tier.dir = dir;
  o.tier.page_bytes = kBigPage;
  o.tier.pool_pages = 16;       // 1 MiB
  o.tier.read_ahead_pages = 8;  // 512 KiB
  return o;
}

hls::VarHandle register_words(hls::Runtime& rt, std::size_t bytes) {
  hls::ModuleBuilder mb(rt.registry(), "big");
  auto h = hls::add_array<std::uint64_t>(
      mb, "words", bytes / sizeof(std::uint64_t), topo::node_scope(),
      [](std::uint64_t* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) p[i] = ~i;
      });
  mb.commit();
  rt.storage().set_tier(h.handle().scope, hls::Tier::file_backed);
  return h.handle();
}

std::uint64_t restored_word(std::size_t i) { return i * 0x9E3779B97F4A7C15ull; }

}  // namespace

TEST(TierMemory, ColdResolveOfARegionSixteenPoolsLongCopiesNothing) {
  const std::string dir = fresh_dir("hls_tier_mem_cold");
  const hls::Runtime::Options o = big_pages(dir);
  const std::size_t pool = o.tier.pool_pages * kBigPage;
  const std::size_t window = o.tier.read_ahead_pages * kBigPage;
  constexpr std::size_t kRegion = std::size_t{16} << 20;  // 16 pools
  hls::Runtime rt(topo::Machine::nehalem_ex(2), 1, o);
  const hls::VarHandle h = register_words(rt, kRegion);
  // Materialized first: the mapping and its initializer are file pages.
  rt.storage().resolve(h.scope, h.module, 0);

  // The cold, whole-range resolve a task's first get_addr performs. The
  // read-ahead is the kernel's business: no anonymous copy of the region
  // (nor of any window of it) may appear in this process.
  const std::size_t anon0 = status_bytes("RssAnon");
  ASSERT_NE(rt.storage().get_addr(h, 0), nullptr);
  const std::size_t anon1 = status_bytes("RssAnon");
  const std::size_t grown = anon1 > anon0 ? anon1 - anon0 : 0;
  EXPECT_LT(grown, pool + window)
      << "RssAnon grew by " << grown << " bytes over a cold resolve";
  const hls::PageCache::Stats s = rt.storage().page_cache()->stats();
  EXPECT_EQ(s.hits + s.misses, kRegion / kBigPage);
}

TEST(TierMemory, RestoreNeverHoldsTheCheckpointAndTheRegionAtOnce) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer shadow memory inflates VmHWM";
  }
  constexpr std::size_t kRegion = std::size_t{32} << 20;
  const topo::Machine m = topo::Machine::nehalem_ex(2);
  const std::string ckpt_dir = fresh_dir("hls_tier_mem_ckpt");

  // A child writes the checkpoint: filling 32 MiB here would raise this
  // process's VmHWM before the measured restore starts.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    int rc = 1;
    try {
      hls::Runtime rt(m, 1, big_pages(fresh_dir("hls_tier_mem_src")));
      const hls::VarHandle h = register_words(rt, kRegion);
      auto* w = static_cast<std::uint64_t*>(rt.storage().get_addr(h, 0));
      for (std::size_t i = 0; i < kRegion / sizeof(std::uint64_t); ++i) {
        w[i] = restored_word(i);
      }
      hls::CheckpointStore store({ckpt_dir});
      store.save(rt.storage(), rt.registry(), h.scope);
      rc = 0;
    } catch (...) {
    }
    ::_exit(rc);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "checkpoint writer failed, status " << status;

  hls::Runtime rt(m, 1, big_pages(fresh_dir("hls_tier_mem_dst")));
  const hls::VarHandle h = register_words(rt, kRegion);
  hls::CheckpointStore store({ckpt_dir});
  const std::size_t rss0 = status_bytes("VmRSS");
  const std::size_t hwm0 = status_bytes("VmHWM");
  if (hwm0 > rss0 + kRegion / 2) {
    GTEST_SKIP() << "VmHWM already " << (hwm0 - rss0)
                 << " bytes above VmRSS: a restore peak would not show";
  }
  store.restore(rt.storage(), rt.registry(), h.scope);
  const std::size_t peak = status_bytes("VmHWM") - rss0;
  // The region's pages once, plus a bounded streaming window — never the
  // version file and the region together.
  EXPECT_LE(peak, kRegion + kRegion / 4)
      << "restore raised the peak RSS by " << peak << " bytes";

  const auto* w =
      static_cast<const std::uint64_t*>(rt.storage().get_addr(h, 0));
  for (std::size_t i = 0; i < kRegion / sizeof(std::uint64_t); ++i) {
    ASSERT_EQ(w[i], restored_word(i)) << "word " << i;
  }
}
