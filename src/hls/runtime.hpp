// HLS runtime facade: ties registry, storage and synchronization together.
//
// This is the library a `-fhls`-style compiler would generate calls into
// (paper §IV): get_addr resolves a (module, offset, scope) triple for the
// calling task; single_enter/single_done and barrier implement the
// directives; migrate implements MPC_Move's counter check. The typed
// front end (Var<T>, TaskView) lives in var.hpp; applications include the
// umbrella header hls/hls.hpp.
//
// Directive surface: the four `*_scope` entry points are the canonical
// core — what compiled calls hit after the compiler resolved a variable
// list to one scope. The variable-list forms are thin inline wrappers
// that resolve a ScopeSet; call sites inside loops should build the
// ScopeSet once and pass it directly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "hls/registry.hpp"
#include "hls/storage.hpp"
#include "hls/sync.hpp"
#include "memtrack/memtrack.hpp"
#include "obs/recorder.hpp"

namespace hlsmpc::hls {

class Runtime;
class CheckpointStore;

/// A directive's variable list with its scope checks done once: the
/// common scope (what `single` needs — all variables share it) and the
/// widest scope (what `barrier` synchronizes). Resolve once per call
/// site, then every directive call through it is a direct `*_scope`
/// dispatch with no per-call list walk.
class ScopeSet {
 public:
  ScopeSet() = default;
  /// Validates every handle and resolves both scopes. Throws HlsError on
  /// an invalid handle or an empty list. A mixed-scope list is legal here
  /// (barrier accepts it); common() then throws, like the compiler
  /// rejecting `single` on variables of different scopes (§II.B.2).
  ScopeSet(const Runtime& rt, std::initializer_list<VarHandle> vars);

  bool valid() const { return valid_; }
  /// True when every variable in the list shares one scope.
  bool single_scoped() const { return single_scoped_; }

  /// Scope shared by all variables (single/single_nowait). Throws
  /// HlsError when the list mixes scopes.
  const CanonicalScope& common() const;
  /// Widest scope in the list (barrier).
  const CanonicalScope& widest() const;

 private:
  CanonicalScope common_{};
  CanonicalScope widest_{};
  bool valid_ = false;
  bool single_scoped_ = false;
};

class Runtime {
 public:
  /// Construction-time knobs. Pass the node tracker to account HLS
  /// storage alongside app/runtime memory; pass a shared obs::Recorder to
  /// merge this runtime's counters/events with the rest of the node
  /// (mpc::Node does), or leave it null to let the runtime own one.
  struct Options {
    memtrack::Tracker* tracker = nullptr;
    /// Observability recorder. Null = the runtime owns a private one.
    /// Must be sized for >= ntasks.
    obs::Recorder* obs = nullptr;
    /// Extra sink chained onto the event stream (correctness tracers,
    /// exporters). Must outlive the runtime's tasks.
    obs::Sink* obs_sink = nullptr;
    /// Ring capacity of the owned recorder (events per task; 0 = counters
    /// only, and no clock read unless `obs_sink` is set). Callers that
    /// drain events() ask for one. Ignored when `obs` is supplied.
    std::size_t obs_ring_capacity = 0;
    /// Sync watchdog deadline: a task stuck inside a barrier/single for
    /// longer than this throws HlsError(ErrorCode::deadlock) with a dump
    /// naming the arrived and missing tasks (see
    /// SyncManager::set_watchdog_ms). 0 = off (the default; keeps the
    /// sync hot paths untouched).
    int watchdog_ms = 0;
    /// Storage-tier configuration (hls/tier.hpp): backing directory,
    /// page-cache page/pool sizes. Installed before any region can
    /// materialize; declare which scopes/modules actually use a file
    /// tier via storage().set_tier()/set_module_tier().
    TierConfig tier = {};
  };

  /// `ntasks` MPI tasks will use this runtime.
  Runtime(const topo::Machine& machine, int ntasks, Options opts);
  /// Default options (owned tracker, owned recorder).
  Runtime(const topo::Machine& machine, int ntasks);
  /// Legacy form; forwards to the Options constructor.
  Runtime(const topo::Machine& machine, int ntasks,
          memtrack::Tracker* tracker)
      : Runtime(machine, ntasks, Options{.tracker = tracker}) {}
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const topo::Machine& machine() const { return machine_; }
  const topo::ScopeMap& scope_map() const { return sm_; }
  Registry& registry() { return reg_; }
  StorageManager& storage() { return storage_; }
  SyncManager& sync() { return sync_; }
  int ntasks() const { return ntasks_; }

  /// The runtime's observability recorder: Options::obs, or the one it
  /// owns. Never null.
  obs::Recorder* obs() const { return obs_; }

  /// Must be called by each task before any other HLS operation
  /// (TaskView's constructor does it): records the task's pinning.
  void bind_task(const ult::TaskContext& ctx);

  /// hls_get_addr_<scope> — the accessor the compiler would emit. The
  /// warm path is inline so call sites can hoist its loop-invariant work;
  /// it runs five checks in this order — handle validity (plus the `sid`
  /// fallback for hand-built handles), task-id bounds, the cache's `cpu`
  /// against `ctx.cpu()`, a resolved entry at the handle's index, and
  /// `[offset, offset + size)` within the cached region — then bumps the
  /// task's own `get_addr_warm` cell (a relaxed load/add/store, no RMW)
  /// and returns base + offset. No locks. An invalid handle, a cold or
  /// post-move entry and a range failure leave the inline path; a range
  /// failure on a warm entry throws without re-resolving. `ctx` is
  /// non-const because a cold call may suspend at the first-touch
  /// sync_point.
  void* get_addr(const VarHandle& h, ult::TaskContext& ctx) {
    if (!h.valid()) throw_invalid_handle();
    const int sid = h.sid >= 0 ? h.sid : scope_id(reg_.scopes(), h.scope);
    const std::size_t idx =
        static_cast<std::size_t>(h.module) *
            static_cast<std::size_t>(num_scopes_) +
        static_cast<std::size_t>(sid);
    const int task = ctx.task_id();
    if (static_cast<unsigned>(task) < static_cast<unsigned>(ncaches_)) {
      const TaskCache& c = caches_[static_cast<std::size_t>(task)];
      // The cpu check guards against any path that changed the task's
      // cpu without dropping the cache: ult::Scheduler and the executors
      // re-pin through ctx.set_cpu without calling the runtime.
      if (c.cpu == ctx.cpu() && idx < c.entries.size()) {
        const CacheEntry& e = c.entries[idx];
        if (e.base != nullptr) {
          if (h.offset > e.size || h.size > e.size - h.offset) {
            throw_range_error();
          }
          // Formed before the bump: the counter store may alias anything,
          // so nothing read above has to be reloaded after it.
          std::byte* const addr = e.base + h.offset;
          std::atomic<std::uint64_t>& n = *c.warm_hits;
          n.store(n.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
          return addr;
        }
      }
    }
    return get_addr_cold(h, ctx, idx);
  }

  // Scope-level entry points — THE canonical directive core (what the
  // compiled calls pass after the compiler resolved the variable lists).
  void barrier_scope(const CanonicalScope& s, ult::TaskContext& ctx);
  bool single_enter_scope(const CanonicalScope& s, ult::TaskContext& ctx);
  void single_done_scope(const CanonicalScope& s, ult::TaskContext& ctx);
  bool single_nowait_scope(const CanonicalScope& s, ult::TaskContext& ctx);

  // Pre-resolved list forms: direct dispatch to the scope core.
  void barrier(const ScopeSet& s, ult::TaskContext& ctx) {
    barrier_scope(s.widest(), ctx);
  }
  bool single_enter(const ScopeSet& s, ult::TaskContext& ctx) {
    return single_enter_scope(s.common(), ctx);
  }
  void single_done(const ScopeSet& s, ult::TaskContext& ctx) {
    single_done_scope(s.common(), ctx);
  }
  bool single_nowait(const ScopeSet& s, ult::TaskContext& ctx) {
    return single_nowait_scope(s.common(), ctx);
  }

  // Variable-list conveniences: thin wrappers resolving a ScopeSet per
  // call. They validate variables the way the compiler would: `single`
  // requires all variables to share one scope (§II.B.2); `barrier`
  // synchronizes the *largest* scope in its list.
  void barrier(std::initializer_list<VarHandle> vars, ult::TaskContext& ctx) {
    barrier(ScopeSet(*this, vars), ctx);
  }
  bool single_enter(std::initializer_list<VarHandle> vars,
                    ult::TaskContext& ctx) {
    return single_enter(ScopeSet(*this, vars), ctx);
  }
  void single_done(std::initializer_list<VarHandle> vars,
                   ult::TaskContext& ctx) {
    single_done(ScopeSet(*this, vars), ctx);
  }
  bool single_nowait(std::initializer_list<VarHandle> vars,
                     ult::TaskContext& ctx) {
    return single_nowait(ScopeSet(*this, vars), ctx);
  }

  /// MPC_Move: re-pin the task to `new_cpu`. Throws HlsError unless the
  /// task has seen exactly as many single/barrier episodes as the
  /// destination's scope instances (paper §IV.A).
  void migrate(ult::TaskContext& ctx, int new_cpu);

  /// Scope backing for a one-sided RMA window (mpi::rma): registers a
  /// fresh single-variable module "rma:<name>" of `bytes` per scope
  /// instance and returns its handle. At the default core scope every
  /// task resolves a private region (one task per core), which each rank
  /// passes to Comm::win_create — the window then IS scope storage, so
  /// put/get are single-copy loads/stores into HLS-placed memory. Wider
  /// scopes alias ranks sharing an instance onto one region (deliberate:
  /// that is the paper's flexible-sharing knob).
  VarHandle rma_backing(const std::string& name, std::size_t bytes,
                        const topo::ScopeSpec& scope = topo::core_scope());

  /// Write every dirty file-tier page back to its backing file and wait
  /// until it is durable (see StorageManager::tier_flush). Quiescent
  /// callers only, like checkpoint(). Returns the bytes written. The
  /// next incremental checkpoint's delta is unaffected. The TaskContext
  /// overload attributes the tier_writeback_bytes obs counter to the
  /// calling task; the bare form writes back unattributed.
  std::size_t tier_flush() { return storage_.tier_flush(); }
  std::size_t tier_flush(ult::TaskContext& ctx) {
    return storage_.tier_flush(ctx.task_id());
  }

  /// Snapshot every materialized region of `scope` into `store` as a new
  /// checkpoint version (see hls/checkpoint.hpp for format and atomic
  /// publication). Quiescent callers only: run it between episodes, after
  /// a barrier of at least `scope`, so the payload is committed data.
  /// Counts the bytes to obs::Counter::ckpt_bytes. Returns the version.
  std::uint64_t checkpoint(CheckpointStore& store,
                           const topo::ScopeSpec& scope);
  /// Incremental variant: snapshot only what changed since the last
  /// successful save/restore of `scope` through `store` (file-tier
  /// regions contribute their dirty page spans; anonymous regions are
  /// written whole). Falls back to a full save when the store has no
  /// base version to delta against. Same quiescence contract as
  /// checkpoint(). Returns the version.
  std::uint64_t checkpoint_incremental(CheckpointStore& store,
                                       const topo::ScopeSpec& scope);
  /// Rehydrate `scope` storage from the newest consistent version in
  /// `store` — the warm-restart path of a respawned node. Regions never
  /// touched in this runtime are first-touched before being overwritten,
  /// so a fresh process restores straight into lazily-built storage.
  /// In-place overwrite: resolved addresses (and task caches) stay valid.
  /// Throws HlsError when no version passes validation. Returns the
  /// version restored.
  std::uint64_t restore(CheckpointStore& store, const topo::ScopeSpec& scope);

  /// Widest scope of the list (for barrier).
  CanonicalScope widest_scope(std::initializer_list<VarHandle> vars) const;

 private:
  /// One resolved (module, scope) region as seen from the task's current
  /// cpu. `base` doubles as the valid flag.
  struct CacheEntry {
    std::byte* base = nullptr;
    std::size_t size = 0;
  };
  /// Per-task resolved-address cache, indexed `module * num_scopes + sid`.
  /// Owned and touched exclusively by its task, so no synchronization is
  /// needed — but it MUST be dropped whenever the task changes cpu
  /// (migrate / bind_task): a cached pointer names a scope *instance*,
  /// and the instance containing the task follows its cpu. The `cpu`
  /// field double-checks that rule on every hit.
  struct alignas(64) TaskCache {
    int cpu = -1;
    std::vector<CacheEntry> entries;
    /// The task's get_addr_warm counter cell, resolved once at
    /// construction: the warm path bumps it with one relaxed
    /// load/add/store instead of going through Recorder::count()'s
    /// bounds check and block indexing (which cost ~25% of the ~2.5ns
    /// inline path; DESIGN §9). Never null: a task the recorder has no
    /// block for counts into `unrecorded`, so the warm path needs no
    /// null test.
    std::atomic<std::uint64_t>* warm_hits = &unrecorded;
    std::atomic<std::uint64_t> unrecorded{0};
  };

  void invalidate_cache(int task);

  /// get_addr's out-of-line miss path: resolves through storage (which
  /// validates the range and prices file-tier regions), refills the
  /// task's cache for its current cpu and counts get_addr_cold. `idx` is
  /// the cache index the inline path computed. Marked cold, like the
  /// throw helpers, so call sites lay the warm hit out as the straight
  /// fall-through path.
  [[gnu::cold]] void* get_addr_cold(const VarHandle& h, ult::TaskContext& ctx,
                                    std::size_t idx);
  [[noreturn, gnu::cold]] static void throw_invalid_handle();
  [[noreturn, gnu::cold]] static void throw_range_error();

  topo::Machine machine_;
  topo::ScopeMap sm_;
  std::unique_ptr<memtrack::Tracker> owned_tracker_;
  memtrack::Tracker* tracker_;
  Registry reg_;
  std::unique_ptr<obs::Recorder> owned_obs_;
  obs::Recorder* obs_;
  StorageManager storage_;
  SyncManager sync_;
  int ntasks_;
  int num_scopes_;
  std::vector<TaskCache> caches_;
  /// caches_.size(), kept as a plain count for the inline bounds check.
  int ncaches_;
};

}  // namespace hlsmpc::hls
