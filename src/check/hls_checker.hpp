// Runtime verifier for the paper's HLS correctness conditions.
//
// Installed as a SyncObserver, the checker consumes the SyncEvent stream
// and verifies, incrementally:
//  - single-block mutual exclusion: never two elected executors on one
//    scope instance at the same time;
//  - counter monotonicity: per-task and per-instance episode counters in
//    SyncManager never go backwards;
//  - migration legality (§IV.A): MPC_Move must only succeed when the
//    task's episode counters match the destination instance's, and never
//    while the task is inside a single block.
//  - RMA epoch discipline (mpi/rma.hpp): at most one exclusive holder
//    (and no readers beside a writer) per window lock word, and strictly
//    increasing fence epochs per rank.
// verify() then re-checks exclusion with the vector-clock machinery from
// src/hb/: each completed episode is rebuilt from the log as an
// all-to-all hb::SyncWave (participants -> representative ->
// participants), each single block as a write on its instance; two writes
// on one instance that the happens-before order leaves parallel are a
// violation. RMA events join the same trace — fence groups as all-to-all
// SyncWaves, lock-release chains as two-member fan-outs from each unlock
// to the lock acquisitions it released, and every
// put/get/accumulate as an access node — so conflicting one-sided
// accesses that neither an epoch nor a lock orders are flagged as races.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "hls/sync.hpp"
#include "topo/scope_map.hpp"

namespace hlsmpc::check {

struct Diagnostic {
  enum class Code {
    single_overlap,      ///< two executors active on one instance at once
    single_unordered,    ///< hb analysis: two single blocks left parallel
    counter_regression,  ///< an episode counter went backwards
    migrate_mismatch,    ///< move accepted despite counter mismatch
    migrate_in_single,   ///< move accepted inside a single block
    rma_race,            ///< hb analysis: conflicting one-sided accesses
                         ///< that no epoch orders
    rma_lock_overlap,    ///< RMA lock protocol violated (incompatible
                         ///< holders observed concurrently)
    structural,          ///< malformed event stream
  };

  Code code = Code::structural;
  std::string message;
  int task = -1;
  hls::CanonicalScope scope;
  int instance = -1;
};

const char* to_string(Diagnostic::Code c);

class HlsChecker final : public hls::SyncObserver {
 public:
  HlsChecker(const topo::ScopeMap& sm, int ntasks);

  /// SyncObserver: thread-safe; records the event and runs the
  /// incremental checks.
  void on_sync_event(const hls::SyncEvent& e) override;

  /// Post-hoc pass: rebuild episodes from the log, derive happens-before
  /// with hb::Analyzer, and flag parallel single blocks per instance.
  /// Returns ok() afterwards. Call once tasks have joined.
  bool verify();

  bool ok() const;
  std::vector<Diagnostic> violations() const;
  /// Human-readable summary of all violations ("" when ok).
  std::string report() const;

  std::size_t events_recorded() const;
  std::vector<hls::SyncEvent> events() const;

 private:
  using ScopeKey = std::pair<hls::CanonicalScope, int>;  // (scope, instance)

  /// One reconstructed barrier/single episode on a scope instance.
  struct Episode {
    bool is_single = false;
    ScopeKey key;
    std::vector<int> participants;  // in arrival (log) order
    int executor = -1;              // single only
    bool sealed = false;            // release observed: no more arrivals
    bool exec_end_seen = false;
    std::set<int> exited;
    long uid = 0;  // globally unique; doubles as the message tag base
  };

  void add(Diagnostic::Code code, const hls::SyncEvent& e, std::string msg);
  void check_counters(const hls::SyncEvent& e);
  void check_exclusion(const hls::SyncEvent& e);
  void check_migration(const hls::SyncEvent& e);
  /// Incremental RMA checks: lock-word holder compatibility and fence
  /// epoch monotonicity. RMA events carry no scope, so they route here
  /// and never through check_counters/check_exclusion.
  void check_rma(const hls::SyncEvent& e);
  /// Pass 1 of verify(): episode reconstruction. Fills `episodes` and the
  /// per-log-index assignment (-1 = not part of an episode).
  void assign_episodes(std::vector<Episode>& episodes,
                       std::vector<long>& episode_of);
  static bool episode_complete(const Episode& ep);

  const topo::ScopeMap* sm_;
  int ntasks_;

  mutable std::mutex mu_;
  std::vector<hls::SyncEvent> log_;
  std::vector<Diagnostic> diags_;

  // Incremental state.
  std::map<std::pair<hls::CanonicalScope, int>, std::uint64_t>
      last_task_count_;  // (scope, task) -> last emitted count
  std::map<std::tuple<hls::CanonicalScope, int, int>, std::uint64_t>
      last_instance_count_;  // (scope, inst, task) -> last count seen by task
  std::map<std::pair<hls::CanonicalScope, int>, std::uint64_t>
      instance_floor_;  // (scope, inst) -> max instance count ever observed
  std::map<ScopeKey, int> active_executor_;
  std::vector<int> single_depth_;  // per task
  bool migration_seen_ = false;

  // Incremental RMA state, keyed by (window id, target rank).
  struct LockState {
    int excl = -1;          // task holding exclusively, -1 none
    std::set<int> shared;   // tasks holding shared
  };
  std::map<std::pair<int, int>, LockState> rma_locks_;
  std::map<std::pair<int, int>, std::uint64_t>
      rma_fence_epoch_;  // (win, task) -> last fence epoch entered
};

}  // namespace hlsmpc::check
