// Storage tiers for HLS module regions.
//
// The paper's scopes live entirely in anonymous/SHM memory: a region can
// never exceed DRAM and never outlives the job. The storage tier lifts
// both limits by materializing selected regions onto file-backed mappings
// ("MPI Windows on Storage" shows the pattern costs little for
// out-of-core access): the kernel pages the mapping against an SSD/tmpfs
// file, a node-local page cache (hls/pagecache.hpp) fronts the file with
// read-ahead hints and one-msync write-backs, and a file_backed region
// names a stable path, so the data survives process restart and re-opens
// bit-identical through hls_get_addr.
//
// The tier is always compiled in and costs nothing until a scope or
// module declares a non-anonymous tier (StorageManager::set_tier); every
// region stays anonymous by default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hlsmpc::hls {

/// Where a module region's bytes live.
enum class Tier : std::uint8_t {
  /// Anonymous memory charged to the memtrack tracker — the default.
  anonymous,
  /// A file at a stable path derived from (scope, instance, module): the
  /// region persists across process restarts — a re-run that declares the
  /// same tier re-opens the previous contents instead of running
  /// initializers.
  file_backed,
  /// A file at a pid-stamped unique path: scratch capacity beyond DRAM
  /// for large/cold regions, deleted when the StorageManager goes away
  /// (crashed runs are reclaimed by MappedSegment::cleanup_stale).
  file_spill,
};

inline const char* to_string(Tier t) {
  switch (t) {
    case Tier::anonymous:
      return "anonymous";
    case Tier::file_backed:
      return "file_backed";
    case Tier::file_spill:
      return "file_spill";
  }
  return "?";
}

/// Knobs of the storage tier, set once via Runtime::Options (or
/// StorageManager::set_tier_config) before any file-tier region is
/// first-touched.
struct TierConfig {
  /// Directory holding backing files — point it at the node's SSD or a
  /// tmpfs. Created if missing (one level; the parent must exist).
  std::string dir = "/tmp/hlsmpc-tier";
  /// Filename prefix separating runs/apps sharing `dir`. file_backed
  /// regions live at "<dir>/<file_prefix>.<scope>.i<instance>.m<module>";
  /// spill regions at "<dir>/hlsmpc.<file_prefix>.<pid>.<seq>".
  std::string file_prefix = "tier";
  /// Page-cache granularity: hit/miss pricing, dirty tracking, and
  /// read-ahead are per page of this many bytes. Must be a power of two
  /// and a multiple of the system page size in practice; 64 KiB balances
  /// bookkeeping against I/O batching.
  std::size_t page_bytes = 64 * 1024;
  /// The most one touch reads ahead: of a longer touch only the trailing
  /// pool_pages are hinted to the kernel. Residency itself is the
  /// kernel's page cache's, which nothing here bounds.
  std::size_t pool_pages = 1024;
  /// Pages read ahead per miss: one cold touch asks the kernel to read
  /// this window (readahead(2), at most pool_pages) so the pre-read
  /// serves the touching rank's neighbours and every co-resident rank
  /// that follows.
  std::size_t read_ahead_pages = 8;
};

/// One dirty-tracking scan of a file-tier region (PageCache::scan): the
/// incremental checkpoint's manifest plus what the save needs to adopt
/// the scan as the next epoch's baselines instead of hashing again.
struct TierScan {
  /// Maximal (offset, length) byte spans of dirty pages.
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::vector<std::uint32_t> crcs;  ///< every page's CRC-32C at scan time
  /// The region's kernel drain the CRCs were hashed after: adopting the
  /// scan keeps every page reported by a later drain a candidate.
  std::uint64_t drain = 0;
};

}  // namespace hlsmpc::hls
