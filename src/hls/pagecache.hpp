// Node-local page cache fronting file-backed HLS regions.
//
// A file-tier region's base pointer IS its MAP_SHARED file mapping, so
// plain loads/stores already work and the warm hls_get_addr path is
// byte-identical to the anonymous tier. The kernel's page cache is the
// cache: it holds each file page once for every rank of the node, pages
// it against the file and knows what is dirty. This layer keeps only what
// the kernel cannot tell (the bbThemis bulk pattern on top of it):
//
//  - pricing and read-ahead: a touch asks the kernel (mincore(2)) which
//    pages it holds — those are hits, the rest misses — and hints it
//    (readahead(2) on the kept-open fd) to read a window at each run of
//    misses; nothing is copied into process memory. One rank's pre-read
//    of shared input makes every co-resident rank's later touch a hit. A
//    touch longer than pool_pages reads ahead only its trailing
//    pool_pages.
//  - write-back: writeback() is one blocking msync over the region that
//    hashes nothing and reports the kernel's own dirty count
//    (cachestat(2)).
//  - dirty tracking: per-page CRC-32C baselines of the last checkpoint
//    epoch. Content hashing stays correct when tasks write through warm
//    cached pointers that never re-enter the runtime. Baselines move
//    only at rebaseline() — the checkpoint layer's epoch mark — so scan()
//    is exactly "changed since the last checkpoint". The page-cache dirty
//    bit cannot tell that (msync clears it); the userfaultfd write-protect
//    bit can, because only a drain here clears it. Each pass first drains
//    those bits (PAGEMAP_SCAN, which re-protects what it reports) into
//    per-page candidate marks, then hashes only the candidates: pages
//    reported since the drain of the pass whose CRCs are the baselines.
//    The kernel names a superset of the pages written, and the CRC
//    decides among them, so spans and CRCs are those of hashing every
//    page. A region has no baselines until its first rebaseline(): until
//    then it is changed whole, and a pass without baselines, a full
//    rebaseline(), and every pass where the kernel refuses the bits (no
//    userfaultfd, a kernel before 6.7, seccomp, a failed drain — for good
//    — or a process other than the one that armed them) hash every page.
//    Every query is one locked pass that hashes each page at most once; a
//    delta save hands its scan back to rebaseline(), which installs those
//    CRCs instead of hashing again. A pass runs on the caller's thread.
//    The bits see stores made through this process's own mapping, by
//    user or kernel code; a pwrite(2) through the file, or a store
//    through another process's mapping or a second mapping of the file,
//    they do not see.
//
// Coherence: the cache never mediates data visibility (the mapping is the
// single copy everyone addresses); tasks synchronize region contents with
// barriers/singles under the HLS quiescence contract.
//
// Concurrency: one mutex over the bookkeeping. touch() runs on the COLD
// resolve path only (warm get_addr never reaches the StorageManager), so
// the lock is not on any hot path; a CRC pass holds it throughout.
#pragma once

#include "hls/tier.hpp"

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/event.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::shm {
class MappedSegment;
}  // namespace hlsmpc::shm

namespace hlsmpc::hls {

class PageCache {
 public:
  /// `obs`, when given, receives
  /// tier_cache_hits/misses/preread_bytes/writeback_bytes counters,
  /// tier_preread/tier_writeback events and the tier_crc_full_passes /
  /// tier_crc_tracked_passes counters (on task 0: a pass serves the
  /// checkpoint, which the runtime counts there too).
  explicit PageCache(TierConfig cfg, obs::Recorder* obs = nullptr);
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;
  ~PageCache();

  /// Aggregate cache behaviour, independent of the obs layer (tests and
  /// the bench gate read these).
  struct Stats {
    std::uint64_t hits = 0;    ///< touched pages the kernel held cached
    std::uint64_t misses = 0;  ///< touched pages it did not (wholly) hold
    std::uint64_t prereads = 0;  ///< read-ahead hints issued
    /// Bytes those hints asked of the kernel, each window clipped to the
    /// backing file's size at the time (a hint past EOF reads nothing).
    std::uint64_t preread_bytes = 0;
    std::uint64_t writebacks = 0;       ///< region flushes (one msync each)
    std::uint64_t writeback_bytes = 0;  ///< bytes those msyncs wrote
    std::uint64_t hashed_pages = 0;     ///< page CRCs computed (scan cost)
    /// CRC passes (scans and hashing rebaselines) that hashed every page.
    std::uint64_t full_passes = 0;
    /// CRC passes that hashed only the pages the kernel's write-protect
    /// bits reported written since the baselines' drain.
    std::uint64_t tracked_passes = 0;
  };

  /// Register a mapped segment; returns its region id for the calls
  /// below. `sid`/`instance` only label obs events. The segment must
  /// outlive the cache. Hashes nothing: the region has no baselines yet.
  int attach(shm::MappedSegment* seg, int sid = -1, int instance = -1);

  /// Price the access of [offset, offset+len): a page whose every system
  /// page is in the kernel's page cache (mincore) is a hit, any other a
  /// miss. Each run of misses within the range's trailing pool_pages
  /// issues one read-ahead hint (extended to read_ahead_pages, never
  /// beyond pool_pages); earlier misses are priced, not read. `task`
  /// labels obs counters/events.
  void touch(int rid, std::size_t offset, std::size_t len, int task = -1);

  /// Make `rid` durable: one blocking msync over the region. Returns the
  /// bytes the kernel held dirty or under write-back just before it (what
  /// the msync writes), or the region size, an upper bound, on kernels
  /// without cachestat. Baselines do not change.
  std::size_t writeback(int rid, int task = -1);

  /// Maximal contiguous (offset, length) byte spans of pages whose
  /// content differs from the baseline, clipped to the region size — the
  /// incremental checkpoint's manifest; one whole-region span before the
  /// first rebaseline() — plus every page's CRC, for rebaseline(). Hashes
  /// only the pages the kernel reported written since the baselines were
  /// taken where it tracks the region (Stats::tracked_passes), every page
  /// otherwise (Stats::full_passes).
  TierScan scan(int rid) const;

  /// Start a new dirty-tracking epoch: baselines := current contents.
  /// Called after a checkpoint save or a restore. Given `published` — the
  /// scan whose spans a delta save just wrote — its CRCs are installed
  /// without hashing again. A page written after that scan still differs
  /// from its adopted CRC, and stays a candidate of every later scan
  /// until a scan taken after it is adopted, so it lands in the next
  /// delta. Without `published` the kernel's bits are re-protected first
  /// and every page hashed after.
  void rebaseline(int rid, const TierScan* published = nullptr);

  Stats stats() const;

 private:
  struct Region;

  /// Drains the kernel's write-protect bits of `r` into its candidate
  /// marks, arming the region at its first pass. False when this pass
  /// must hash every page: the kernel refused the bits (then for good),
  /// or the caller is not the process that armed them.
  bool track_locked(Region& r) const;

  /// The one dirty-tracking pass over `r`: hashes the ascending `pages`
  /// (every page when null) once each and stores each CRC at crcs[p].
  /// `dirty`, when given, receives 0/1 per hashed page (content differs
  /// from the baseline, or there is none).
  void scan_locked(const Region& r, const std::vector<std::size_t>* pages,
                   unsigned char* dirty, std::uint32_t* crcs) const;
  Region* region_locked(int rid) const;

  TierConfig cfg_;
  obs::Recorder* obs_ = nullptr;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Region>> regions_;
  mutable Stats stats_;  // const scans still count hashed_pages
  // The kernel's write bits: a userfaultfd every region registers with,
  // and /proc/self/pagemap for PAGEMAP_SCAN. Opened at the first pass of
  // the first region, by the process recorded in uffd_pid_ (a forked
  // child inherits both descriptors, which still name the parent's
  // memory); -1 until then, and for good when the kernel refused.
  mutable int uffd_ = -1;
  mutable int pagemap_ = -1;
  mutable bool uffd_refused_ = false;
  mutable pid_t uffd_pid_ = 0;
};

}  // namespace hlsmpc::hls
