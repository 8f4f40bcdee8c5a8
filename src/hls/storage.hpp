// Per-scope-instance storage: the hls_get_addr_<scope> machinery.
//
// One ScopeInstanceStorage exists per (canonical scope, instance index);
// tasks pinned to cpus of the same instance resolve a VarHandle to the
// same address, which is the entire HLS sharing mechanism (paper fig. 2).
//
// Resolution is lock-free: scope instances are indexed through the
// registry's frozen DenseScopeTable, and each instance holds a chunked
// array of atomic ModuleRegion pointers, so a warm lookup is three
// dependent acquire loads (chunk -> region -> published base) and never
// touches a mutex. Module regions are still allocated and initialized
// lazily on first access — "allocate and initialize memory if first use",
// §IV.A — but the per-(instance, module) lock of the paper is demoted to a
// double-checked slow path behind an atomic publish of the region base.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hls/registry.hpp"
#include "hls/tier.hpp"
#include "memtrack/memtrack.hpp"
#include "obs/event.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::shm {
class MappedSegment;
}  // namespace hlsmpc::shm

namespace hlsmpc::hls {

class PageCache;

class StorageManager {
 public:
  /// `obs`, when given, receives a first_touch counter/event plus
  /// per-scope-level byte accounting for every region this manager
  /// materializes.
  StorageManager(const Registry& reg, memtrack::Tracker& tracker,
                 obs::Recorder* obs = nullptr);
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;
  ~StorageManager();

  /// A materialized module region: base address and byte size of the copy
  /// owned by one scope instance.
  struct Resolved {
    std::byte* base = nullptr;
    std::size_t size = 0;
  };

  /// Resolve the region of (scope, module) for the instance containing
  /// `cpu`, materializing and initializing it on first touch. `ctx`, when
  /// given, receives sync_point callbacks on the first-touch path (never
  /// with a lock held) so the deterministic checker can interleave tasks
  /// inside the lazy-initialization race window.
  Resolved resolve(const CanonicalScope& scope, int module, int cpu,
                   ult::TaskContext* ctx = nullptr);

  /// resolve() plus access pricing: validates [offset, offset + size) like
  /// get_addr and routes file-tier accesses through the page cache, but
  /// returns the whole region so the caller can fill its own cache from
  /// the same lookup. The runtime's cold path uses this: the first access
  /// of a file-backed region by each task is priced (triggering read-ahead
  /// that serves co-resident tasks) exactly once, after which the per-task
  /// warm path bypasses storage entirely.
  Resolved resolve_accessed(const CanonicalScope& scope, int module,
                            std::size_t offset, std::size_t size, int cpu,
                            ult::TaskContext* ctx = nullptr);

  /// hls_get_addr_<scope>(module, offset) for the task pinned to `cpu`.
  /// Validates the whole accessed range: [offset, offset + size) must lie
  /// inside the module's region for `scope`.
  void* get_addr(const CanonicalScope& scope, int module, std::size_t offset,
                 std::size_t size, int cpu, ult::TaskContext* ctx = nullptr);
  void* get_addr(const VarHandle& h, int cpu) {
    return get_addr(h.scope, h.module, h.offset, h.size, cpu);
  }

  /// Enumerate every materialized (instance, module) region of `scope` in
  /// ascending (instance, module) order — the checkpoint writer's stable
  /// iteration. Published bases are read with acquire loads, so `fn` sees
  /// fully initialized regions; the *contents* are only a consistent
  /// snapshot if the caller is quiescent (no task mutating scope storage
  /// while the walk runs), which is the checkpoint contract.
  void for_each_materialized(
      const CanonicalScope& scope,
      const std::function<void(int instance, int module, Resolved)>& fn) const;

  /// Checkpoint-restore hook: overwrite [offset, offset + bytes) of the
  /// (scope, instance, module) region with what `write(dst)` stores at
  /// dst (exactly those bytes). A region never resolved is materialized
  /// first: when the range covers it whole, `write` takes the place of
  /// the module initializers — whose output it would overwrite anyway —
  /// and runs before the region is published; otherwise initializers run
  /// as on any first touch. Throws HlsError(corruption) when the range
  /// exceeds the region: the checkpoint was taken against a different
  /// module layout and importing it would tear the region.
  using Writer = std::function<void(std::byte* dst)>;
  void import_region(const CanonicalScope& scope, int instance, int module,
                     std::size_t offset, std::size_t bytes,
                     const Writer& write);

  /// Bytes currently materialized for HLS storage (all scopes/instances).
  /// Anonymous (DRAM-charged) regions only: file-tier regions are paged
  /// by the kernel against their files and deliberately not counted.
  std::size_t bytes_allocated() const;
  /// Number of distinct materialized copies of `module`'s region for
  /// `scope` — the data-duplication factor the paper's tables measure.
  int copies(const CanonicalScope& scope, int module) const;

  // --- storage tier (hls/tier.hpp) ------------------------------------
  //
  // Tier declarations only affect regions not yet materialized: declare
  // tiers right after building the registry, before any task touches the
  // scope.

  /// Default tier for every module region of `scope`.
  void set_tier(const CanonicalScope& scope, Tier tier);
  /// Tier of one (scope, module) region; overrides the scope default.
  void set_module_tier(const CanonicalScope& scope, int module, Tier tier);
  /// Effective tier a first touch of (scope, module) would use.
  Tier tier_of(const CanonicalScope& scope, int module) const;
  /// Replace the tier configuration. Must run before the first file-tier
  /// materialization (the page cache is built from it then).
  void set_tier_config(TierConfig cfg);
  /// PageCache::writeback() of every file-tier region: durable on return.
  /// Returns the bytes written; the dirty-tracking epoch does not move.
  std::size_t tier_flush(int task = -1);
  /// Dirty byte-spans of the (scope, instance, module) region since its
  /// last rebaseline — the incremental checkpoint's manifest — with the
  /// per-page CRCs the scan computed. Returns false (out untouched) when
  /// the region is not a materialized file-tier region.
  bool tier_scan(const CanonicalScope& scope, int instance, int module,
                 TierScan* out) const;
  /// Mark the region's current contents as the new dirty-tracking epoch
  /// (after a successful save or a restore). A delta save passes the
  /// scan it published, whose CRCs then become the baselines without a
  /// second hash (PageCache::rebaseline). No-op for anonymous regions.
  void tier_rebaseline(const CanonicalScope& scope, int instance, int module,
                       const TierScan* published = nullptr);
  /// The page cache fronting file-tier regions; nullptr until the first
  /// file-tier region materializes.
  PageCache* page_cache() { return cache_.get(); }

 private:
  struct ModuleRegion {
    std::atomic<std::byte*> base{nullptr};  ///< published last (release)
    std::size_t bytes = 0;                  ///< valid once base is non-null
    std::mutex init_mu;  // first-touch only ("a lock per module", §IV.A)
    memtrack::Buffer mem;
    Tier tier = Tier::anonymous;  ///< valid once base is non-null
    std::unique_ptr<shm::MappedSegment> file;  ///< file tiers only
    int cache_rid = -1;  ///< page-cache region id; -1 = anonymous
  };

  // Module slots are reached through a fixed two-level table of atomic
  // pointers: readers never see a resize (there is none), so lookups are
  // lock-free while modules keep being committed concurrently.
  static constexpr int kChunkBits = 6;
  static constexpr int kChunkSize = 1 << kChunkBits;  // regions per chunk
  static constexpr int kMaxChunks = 64;  // kChunkSize * kMaxChunks modules
  struct Chunk {
    std::array<std::atomic<ModuleRegion*>, kChunkSize> slots{};
  };
  struct InstanceStorage {
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
  };

  ModuleRegion& region_slot(InstanceStorage& st, int module);
  /// First touch of `region`: allocate or map it, then fill it — by
  /// `fill` when given, else by the module initializers — and publish.
  Resolved materialize(ModuleRegion& region, const CanonicalScope& scope,
                       int module, int sid, int instance,
                       ult::TaskContext* ctx, bool* did_init,
                       const Writer* fill);
  /// resolve() plus the region slot, for callers that need the tier
  /// bookkeeping (page-cache touches) behind the Resolved. `fill` and
  /// `did_init` as for materialize(); did_init stays false when the
  /// region was already published.
  Resolved resolve_at(const CanonicalScope& scope, int module, int cpu,
                      ult::TaskContext* ctx, ModuleRegion** out_region,
                      const Writer* fill = nullptr, bool* did_init = nullptr);
  Tier tier_policy(int sid, int module) const;
  /// Region of (sid, instance, module) if materialized, else nullptr.
  ModuleRegion* find_region(int sid, int instance, int module) const;

  const Registry* reg_;
  memtrack::Tracker* tracker_;
  obs::Recorder* obs_ = nullptr;
  // [sid][instance]; fully sized at construction from the frozen table.
  std::vector<std::vector<std::unique_ptr<InstanceStorage>>> instances_;
  mutable std::mutex tier_mu_;  // tier policy + config + spill list
  TierConfig tier_cfg_;
  std::map<int, Tier> scope_tier_;                  // sid -> default
  std::map<std::pair<int, int>, Tier> module_tier_;  // (sid, module)
  std::unique_ptr<PageCache> cache_;
  std::vector<std::string> spill_paths_;  // unlinked at destruction
};

}  // namespace hlsmpc::hls
