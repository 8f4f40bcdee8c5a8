// Versioned file-backed checkpoints of HLS scope storage.
//
// A CheckpointStore snapshots the materialized regions of one canonical
// scope into a single self-describing file ("HLSCKPT1" magic, format 2:
// header, per-span manifest, CRC-32C trailer) published atomically: the
// writer streams into a pid-stamped temporary, fsyncs it, renames it to
// "<tag>.<scope>.v<N>", then fsyncs the parent directory — rename alone
// is not crash-durable; the directory entry itself must reach disk.
// Readers walk versions newest-first and take the first one whose CRC and
// manifest verify — a torn write (crash or the "ckpt:write" injection)
// costs one version, never the store. This is the warm-restart half of
// shrink-and-recover: a respawned node restores the committed scope data
// its predecessor checkpointed (ClusterComm::shrink / SimCluster::respawn
// handle the membership half).
//
// Two save shapes share the format:
//  - full (kind 0): every region, whole. What save() writes.
//  - delta (kind 1): only the byte spans that changed since the version
//    named by base_version — file-tier regions contribute their page
//    cache's dirty spans (hls/pagecache.hpp), anonymous regions (no dirty
//    tracking) are written whole. What save_incremental() writes; restore
//    resolves the delta chain (full base + deltas in version order) and
//    applies it atomically, skipping to an older target when any link is
//    torn. Chains are bounded: after `keep` deltas the next incremental
//    save is promoted to a full one.
//
// Pruning keeps the newest `keep` versions but never deletes the newest
// CRC-valid version or a link of its chain — with keep == 2, two torn
// saves in a row must not delete the last restorable state.
//
// Files are host-local (native endianness, no cross-machine portability):
// the intended reader is a replacement process on the same node, per the
// paper's single-address-space node model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hls/crc32c.hpp"
#include "hls/registry.hpp"
#include "hls/storage.hpp"

namespace hlsmpc::hls {

class CheckpointStore {
 public:
  struct Options {
    /// Directory holding the version files; created if missing (one
    /// level — the parent must exist).
    std::string dir;
    /// Filename prefix separating stores sharing a directory.
    std::string tag = "hls";
    /// Newest versions retained per scope after a save. At least 2, so a
    /// torn newest version always leaves a consistent fallback.
    int keep = 2;
  };

  /// Opens the store (creating `dir` if needed) and reclaims temporaries
  /// leaked by crashed writers (pid-stamped, like shm segment names).
  explicit CheckpointStore(Options opts);

  struct Report {
    std::uint64_t version = 0;
    std::size_t payload_bytes = 0;  ///< span payload total (manifest excl.)
    int regions = 0;                ///< manifest spans written / applied
    bool delta = false;             ///< true when a delta was written
    std::uint64_t base_version = 0; ///< delta only: version it applies on
  };

  /// Snapshot every materialized region of `scope` into a new full
  /// version. Quiescent callers only (no task mutating the scope's
  /// storage). Returns the published version; prunes versions beyond
  /// `keep` (protecting the newest valid chain).
  Report save(StorageManager& storage, const Registry& reg,
              const CanonicalScope& scope);

  /// Snapshot only what changed since the last successful save/restore
  /// of `scope` through THIS store instance: file-tier regions write
  /// their dirty page spans, anonymous regions their whole payload.
  /// Falls back to a full save when there is no base to delta against
  /// (fresh store, fresh process) or the delta chain reached `keep`
  /// links. Same contract as save() otherwise.
  Report save_incremental(StorageManager& storage, const Registry& reg,
                          const CanonicalScope& scope);

  /// Rehydrate `scope` from the newest version whose delta chain fully
  /// validates (magic, scope identity, CRC, and every span fitting the
  /// current registry layout — all-or-nothing per chain). Regions never
  /// touched in this runtime are first-touched before being overwritten.
  /// Throws HlsError when no version survives: ErrorCode::corruption if
  /// candidates existed (all torn or stale), ErrorCode::invalid_argument
  /// if the store holds none for this scope.
  Report restore(StorageManager& storage, const Registry& reg,
                 const CanonicalScope& scope);

  /// Version numbers present for `scope`, ascending (torn files included —
  /// consistency is only established by restore()).
  std::vector<std::uint64_t> versions(const CanonicalScope& scope) const;

  /// Unlink temporaries whose writing process is gone. Returns the number
  /// removed. The constructor runs this once; long-lived stores may rerun
  /// it at will.
  int cleanup_stale_tmp() const;

  const std::string& dir() const { return opts_.dir; }

 private:
  std::string stem(const CanonicalScope& scope) const;
  std::string version_path(const CanonicalScope& scope,
                           std::uint64_t v) const;
  Report save_impl(StorageManager& storage, const Registry& reg,
                   const CanonicalScope& scope, bool incremental);
  void prune(const CanonicalScope& scope, std::uint64_t known_valid);

  Options opts_;
  /// Base for the next delta: version of the last successful save or
  /// restore per scope, this process only (a fresh process full-saves
  /// first). Tracks the dirty epoch StorageManager::tier_rebaseline set.
  std::map<CanonicalScope, std::uint64_t> last_saved_;
  /// Delta links since the last full save, per scope (bounds chains).
  std::map<CanonicalScope, int> chain_len_;
};

}  // namespace hlsmpc::hls
