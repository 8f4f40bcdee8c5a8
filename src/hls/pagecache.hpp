// Node-local page cache fronting file-backed HLS regions.
//
// A file-tier region's base pointer IS its MAP_SHARED file mapping, so
// plain loads/stores already work and the warm hls_get_addr path is
// byte-identical to the anonymous tier. What the mapping alone does not
// give is *managed* I/O, and that is this layer's job (the bbThemis bulk
// pattern):
//
//  - read-ahead: a cold touch hints the kernel (readahead(2) on the
//    kept-open fd) to read a window of pages; nothing is copied into
//    process memory. The hint's product is the KERNEL page cache — a
//    node-local resource — so one rank's pre-read of shared input makes
//    every co-resident rank's later fault a memory hit. Our resident
//    bitmap mirrors that state and prices touches as hits/misses.
//  - pool pressure: a fixed budget of resident pages across all regions;
//    exceeding it evicts the least-recently-touched page (written back
//    first when the kernel holds it dirty, then MADV_DONTNEED) — the
//    out-of-core bound. A touch longer than the pool reads ahead only
//    its trailing pool_pages: the rest it would evict itself.
//  - write-back: the kernel tracks which file pages were stored to, so
//    writeback() is one blocking msync over the region that hashes
//    nothing and reports the kernel's own dirty count (cachestat(2)).
//  - dirty tracking: per-page CRC-32C baselines. Content hashing is the
//    only scheme that stays correct when tasks write through warm cached
//    pointers that never re-enter the runtime; note_write() hint bits
//    cover the (cheap) runtime-visible writes, the hash catches the rest.
//    Baselines and hints move only at rebaseline() — the checkpoint
//    layer's epoch mark — so scan() is exactly "changed since the last
//    checkpoint", which the kernel's dirty bits cannot tell. Every query
//    is one locked scan that hashes each page at most once; a delta save
//    hands its scan back to rebaseline(), which installs those CRCs
//    instead of hashing the region again.
//
// Coherence: pages are published with plain release/acquire on the
// resident bookkeeping, nothing per-byte. That suffices because of the
// HLS quiescence contract — tasks synchronize region contents with
// barriers/singles; the cache only manages residency, never mediates
// data visibility (the mapping is the single copy everyone addresses).
//
// Concurrency: one mutex over the bookkeeping. touch() runs on the COLD
// resolve path only (warm get_addr never reaches the StorageManager), so
// the lock is not on any hot path.
#pragma once

#include "hls/tier.hpp"

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
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
  /// tier_cache_hits/misses/preread_bytes/writeback_bytes counters and
  /// tier_preread/tier_writeback events.
  explicit PageCache(TierConfig cfg, obs::Recorder* obs = nullptr);
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;
  ~PageCache();

  /// Aggregate cache behaviour, independent of the obs layer (tests and
  /// the bench gate read these).
  struct Stats {
    std::uint64_t hits = 0;        ///< touched pages found resident
    std::uint64_t misses = 0;      ///< touched pages not resident
    std::uint64_t prereads = 0;    ///< read-ahead hints issued
    /// Bytes those hints asked of the kernel, each window clipped to the
    /// backing file's size at the time (a hint past EOF reads nothing).
    std::uint64_t preread_bytes = 0;
    std::uint64_t writebacks = 0;  ///< msyncs: region flushes + evictions
    std::uint64_t writeback_bytes = 0;  ///< bytes those msyncs wrote
    std::uint64_t evictions = 0;   ///< pages dropped under pool pressure
    std::uint64_t hashed_pages = 0;  ///< page CRCs computed (scan cost)
  };

  /// Register a mapped segment; returns its region id for the calls
  /// below. `sid`/`instance` only label obs events. The segment must
  /// outlive the cache.
  /// Baselines are captured from the segment's current contents.
  int attach(shm::MappedSegment* seg, int sid = -1, int instance = -1);

  /// Price the access of [offset, offset+len): resident pages count as
  /// hits; each run of non-resident pages counts misses and issues one
  /// read-ahead hint (extended to read_ahead_pages, never beyond
  /// pool_pages). Of a range longer than the pool only the trailing
  /// pool_pages are read ahead; the leading misses are priced, not read.
  /// May evict under pool pressure. `task` labels obs counters/events.
  void touch(int rid, std::size_t offset, std::size_t len, int task = -1);

  /// Hint that [offset, offset+len) was (or will be) written — marks the
  /// covered pages dirty without waiting for the content hash to notice.
  void note_write(int rid, std::size_t offset, std::size_t len);

  /// Make `rid` durable: one blocking msync over the region. Returns the
  /// bytes the kernel held dirty or under write-back just before it (what
  /// the msync writes), or the region size, an upper bound, on kernels
  /// without cachestat. Baselines and hint bits do not change.
  std::size_t writeback(int rid, int task = -1);

  /// Maximal contiguous (offset, length) byte spans of pages whose
  /// content differs from the baseline (or carry a note_write hint),
  /// clipped to the region size — the incremental checkpoint's manifest —
  /// plus every page's CRC, for rebaseline().
  TierScan scan(int rid) const;

  /// Start a new dirty-tracking epoch: baselines := current contents,
  /// hint bits cleared. Called after a checkpoint save or a restore.
  /// Given `published` — the scan whose spans a delta save just wrote —
  /// its CRCs are installed without hashing again. A page written after
  /// that scan still differs from its adopted CRC, so it lands in the
  /// next delta by hash whether or not the write was hinted.
  void rebaseline(int rid, const TierScan* published = nullptr);

  Stats stats() const;

 private:
  struct Region;

  void evict_down_to_budget_locked(int task);
  /// Stats and obs for one msync that wrote `bytes` over `pages` pages.
  void count_writeback_locked(const Region& r, std::size_t bytes,
                              std::size_t pages, int task);
  void writeback_page_locked(Region& r, std::size_t page, int task);
  /// The one dirty-tracking pass over `r`: hashes each page once and
  /// stores its CRC at crcs[p]. `dirty`, when given, receives 0/1 per
  /// page (content differs from the baseline, or a note_write hint).
  void scan_locked(const Region& r, unsigned char* dirty,
                   std::uint32_t* crcs) const;
  /// scan_locked() over the whole region, folded into maximal spans.
  std::vector<std::pair<std::size_t, std::size_t>> spans_locked(
      const Region& r, std::uint32_t* crcs) const;
  Region* region_locked(int rid) const;

  TierConfig cfg_;
  obs::Recorder* obs_ = nullptr;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Region>> regions_;
  std::size_t resident_pages_ = 0;
  std::uint64_t tick_ = 0;
  mutable Stats stats_;  // const scans still count hashed_pages
};

}  // namespace hlsmpc::hls
