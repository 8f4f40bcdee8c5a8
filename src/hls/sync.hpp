// HLS synchronization: barrier, single, single nowait (paper §IV.B).
//
// Three mechanisms per scope instance:
//  - barrier: for scopes no wider than a shared cache, a flat
//    counter+generation barrier; for wider scopes (numa/node spanning
//    several LLC domains) the paper's shared-cache-aware algorithm: tasks
//    synchronize within their LLC group first, one representative per
//    group proceeds to a top-level barrier, then releases its group.
//  - single: a *modified barrier* — the last task to arrive executes the
//    code block before releasing the others (no second barrier needed).
//  - single nowait: generation counters; the first task whose private
//    counter runs ahead of the instance counter executes the block.
//
// Every completed episode advances per-task and per-instance counters;
// migration (MPC_Move) is legal only when the task's counters match the
// destination's (§IV.A).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hls/registry.hpp"
#include "obs/event.hpp"
#include "ult/episode_barrier.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::hls {

/// One observable synchronization step. Emitted by SyncManager (and by
/// Runtime::migrate via report_migration) when an observer is installed;
/// the race checker in src/check/ consumes these to verify the paper's
/// correctness conditions at run time.
struct SyncEvent {
  enum class Kind {
    barrier_enter,      ///< task reached a barrier directive
    barrier_exit,       ///< task left the barrier (episode complete for it)
    single_enter,       ///< task reached a single directive
    single_exec_begin,  ///< task was elected executor and starts the block
    single_exec_end,    ///< executor finished the block (before releases)
    single_exit,        ///< non-executor released from the single
    nowait_claim,       ///< task claimed a single-nowait site
    nowait_skip,        ///< task skipped an already-claimed nowait site
    migrate_ok,         ///< MPC_Move accepted (cpu = destination)
    migrate_rejected,   ///< MPC_Move refused (cpu = attempted destination)
    // One-sided RMA steps, emitted by mpi::rma::Win when an observer is
    // installed (window id in `instance`, details in the rma_* fields;
    // `scope` is unused). Emission order is disciplined so log order
    // respects the real synchronization order: fence_enter precedes the
    // epoch publication, fence_exit follows the last acquire, lock
    // follows the acquiring CAS, unlock precedes the releasing store.
    rma_put,            ///< one-sided put by `task` into rma_target
    rma_get,            ///< one-sided get by `task` from rma_target
    rma_acc,            ///< one-sided accumulate by `task` into rma_target
    rma_fence_enter,    ///< task entered a window fence (task_count = epoch)
    rma_fence_exit,     ///< task left the fence (saw all ranks at the epoch)
    rma_lock,           ///< passive-target lock acquired (rma_excl set)
    rma_unlock,         ///< passive-target lock about to be released
  };

  Kind kind = Kind::barrier_enter;
  int task = -1;
  int cpu = -1;       ///< task's cpu (destination cpu for migrate events)
  CanonicalScope scope;
  int instance = -1;  ///< scope instance index; window id for rma events
  /// Task's episode count for `scope` at emission time (incl. nowait);
  /// the fence epoch number for rma_fence_* events.
  std::uint64_t task_count = 0;
  /// Instance's episode count for `scope` at emission time (incl. nowait).
  std::uint64_t instance_count = 0;
  // RMA payload (rma_* kinds only).
  int rma_target = -1;          ///< target rank of the op / lock word
  std::uint64_t rma_offset = 0; ///< byte offset inside the target region
  std::uint64_t rma_bytes = 0;  ///< bytes touched by the op
  bool rma_excl = false;        ///< lock/unlock: exclusive (vs shared)
};

const char* to_string(SyncEvent::Kind k);

/// Receives every SyncEvent; may be called concurrently from all tasks.
/// Install before tasks start running and keep alive until they joined.
class SyncObserver {
 public:
  virtual ~SyncObserver() = default;
  virtual void on_sync_event(const SyncEvent& e) = 0;
};

class SyncManager {
 public:
  /// `ntasks` MPI tasks; initial pinning provided via set_task_cpu before
  /// any synchronization call. `obs`, when given, receives episode
  /// counters and timed barrier/single/nowait events.
  SyncManager(const topo::ScopeMap& sm, int ntasks,
              obs::Recorder* obs = nullptr);
  SyncManager(const SyncManager&) = delete;
  SyncManager& operator=(const SyncManager&) = delete;

  void set_task_cpu(int task, int cpu);

  void barrier(const CanonicalScope& scope, ult::TaskContext& ctx);
  /// Returns true for exactly one task (the last to arrive), which must
  /// execute the protected block and then call single_done. All other
  /// tasks return false only after single_done ran.
  bool single_enter(const CanonicalScope& scope, ult::TaskContext& ctx);
  void single_done(const CanonicalScope& scope, ult::TaskContext& ctx);
  /// Returns true for the first task reaching this (per-task counted)
  /// nowait site; never blocks.
  bool single_nowait(const CanonicalScope& scope, ult::TaskContext& ctx);

  /// Synchronization episodes the task has completed for `scope`.
  std::uint64_t task_sync_count(int task, const CanonicalScope& scope) const;
  /// Episodes completed by the instance of `scope` containing `cpu`.
  std::uint64_t instance_sync_count(const CanonicalScope& scope,
                                    int cpu) const;
  /// Number of tasks currently pinned inside the instance of `scope`
  /// containing `cpu` — the barrier's expected arrival count.
  int participants(const CanonicalScope& scope, int cpu) const;

  /// Use the hierarchical algorithm for scopes spanning several LLC
  /// domains (true on multi-socket machines for numa/node). Exposed for
  /// the micro-benchmarks' flat-vs-hierarchical comparison.
  bool uses_hierarchy(const CanonicalScope& scope) const;
  void force_flat(bool v) { force_flat_ = v; }

  /// Install an event observer (nullptr to detach). Must happen before
  /// tasks synchronize; emission is skipped entirely when unset.
  void set_observer(SyncObserver* o) { observer_ = o; }
  SyncObserver* observer() const { return observer_; }

  /// Opt-in sync watchdog: a task waiting inside a barrier/single longer
  /// than `ms` throws HlsError(ErrorCode::deadlock) with a diagnostic dump
  /// naming the tasks that arrived and, for each missing participant, its
  /// cpu, last sync epoch, and where it currently is (idle / stuck in
  /// another primitive). 0 (the default) disables the watchdog and keeps
  /// the wait loop byte-for-byte on its lock-free fast path. Set before
  /// tasks synchronize. With the watchdog armed, waiters poll (yield)
  /// instead of blocking on the barrier word — std::atomic::wait has no
  /// timeout — so enable it for debugging runs, not peak-throughput ones.
  void set_watchdog_ms(int ms);
  int watchdog_ms() const {
    return watchdog_ms_.load(std::memory_order_relaxed);
  }

  /// True while `task` executes a single block (between being elected
  /// executor and its single_done). Migration is illegal in that window.
  bool in_single(int task) const;

  /// Forward a migration decision to the observer (called by
  /// Runtime::migrate; `to_cpu` is the attempted destination).
  void report_migration(const ult::TaskContext& ctx, int to_cpu, bool ok);

 private:
  /// Cache-line-padded sense-reversing episode barrier. The word layout
  /// and wait loop live in ult::EpisodeBarrier (shared with the MPI
  /// shared-memory collective engine); SyncManager layers the HLS
  /// specifics on top: watchdog polling, watch-slot diagnostics, and the
  /// per-task episode counters that gate migration legality.
  using Flat = ult::EpisodeBarrier;

  struct alignas(64) InstanceSync {
    Flat top;
    std::vector<Flat> groups;  // one per LLC domain inside (hierarchy only)
    std::atomic<std::uint64_t> episodes{0};
    std::atomic<std::uint64_t> nowait_count{0};
  };

  /// Per-task watchdog diagnostics slot, written by its own task (and only
  /// when the watchdog is armed): which primitive/scope instance the task
  /// is currently inside, and its episode count for that scope at entry.
  /// The firing task reads every slot to name who arrived and who is
  /// missing.
  struct alignas(64) WatchSlot {
    /// 0 = not inside a sync primitive; else 1 | sid << 8 | inst << 32.
    std::atomic<std::uint64_t> where{0};
    std::atomic<const char*> prim{nullptr};
    std::atomic<std::uint64_t> epoch{0};
  };

  int sid(const CanonicalScope& scope) const {
    return scope_id(scopes_, scope);
  }
  InstanceSync& instance(const CanonicalScope& scope, int cpu, int* inst_out);
  /// Arrive at a flat barrier. With `hold_last` the last arriver returns
  /// true immediately (generation not yet advanced: single semantics);
  /// otherwise the last arriver releases everyone. `expected` is
  /// re-evaluated on every waiting probe: a migration can shrink the
  /// instance's participant count, turning a waiter into the completing
  /// arrival.
  bool flat_arrive(Flat& f, const std::function<int()>& expected,
                   ult::TaskContext& ctx, bool hold_last,
                   const CanonicalScope& scope, int inst, const char* prim);
  void flat_release(Flat& f);
  /// Build the stuck-sync diagnostic, emit it as an obs::Event, and throw
  /// HlsError(ErrorCode::deadlock). Called from flat_arrive's wait loop
  /// when the watchdog deadline passes.
  [[noreturn]] void watchdog_fire(const CanonicalScope& scope, int inst,
                                  const char* prim, ult::TaskContext& ctx,
                                  long long waited_ms);
  int group_index(const CanonicalScope& scope, int inst, int cpu) const;
  int group_participants(const CanonicalScope& scope, int inst,
                         int group) const;
  int active_groups(const CanonicalScope& scope, int inst) const;
  void bump_task(int task, const CanonicalScope& scope);
  void emit(SyncEvent::Kind kind, const CanonicalScope& scope, int inst,
            const InstanceSync* is, const ult::TaskContext& ctx);

  const topo::ScopeMap* sm_;
  topo::DenseScopeTable scopes_;
  int llc_span_ = 1;  ///< cpus per last-level-cache instance
  SyncObserver* observer_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  /// Per-task stash of the single_enter timestamp, so the executor's
  /// single_done can emit one single_exec event spanning the whole block.
  /// Each slot is written only by its own task.
  std::vector<std::uint64_t> single_t0_;
  std::vector<std::atomic<int>> task_cpu_;
  std::vector<std::atomic<int>> single_depth_;
  // Per-task counters indexed [task][sid]; each row written only by its
  // own task. Barrier / single episodes and nowait sites are counted
  // separately because the nowait claim compares the task's site count
  // against the instance's nowait counter alone.
  std::vector<std::vector<std::uint64_t>> task_counts_;
  std::vector<std::vector<std::uint64_t>> task_nowait_counts_;
  // [sid][instance]; fully materialized at construction (the dense index
  // space is frozen then), so resolution never takes a lock.
  std::vector<std::vector<std::unique_ptr<InstanceSync>>> instances_;
  bool force_flat_ = false;
  /// 0 = off. Loaded (relaxed) once per primitive entry; the slow-path
  /// wait loop re-checks the deadline only when armed.
  std::atomic<int> watchdog_ms_{0};
  std::vector<WatchSlot> watch_;  // [task], written by owner when armed
};

}  // namespace hlsmpc::hls
