#include "hls/sync.hpp"

#include <algorithm>
#include <chrono>

#include "obs/recorder.hpp"

namespace hlsmpc::hls {

const char* to_string(SyncEvent::Kind k) {
  switch (k) {
    case SyncEvent::Kind::barrier_enter:
      return "barrier_enter";
    case SyncEvent::Kind::barrier_exit:
      return "barrier_exit";
    case SyncEvent::Kind::single_enter:
      return "single_enter";
    case SyncEvent::Kind::single_exec_begin:
      return "single_exec_begin";
    case SyncEvent::Kind::single_exec_end:
      return "single_exec_end";
    case SyncEvent::Kind::single_exit:
      return "single_exit";
    case SyncEvent::Kind::nowait_claim:
      return "nowait_claim";
    case SyncEvent::Kind::nowait_skip:
      return "nowait_skip";
    case SyncEvent::Kind::migrate_ok:
      return "migrate_ok";
    case SyncEvent::Kind::migrate_rejected:
      return "migrate_rejected";
    case SyncEvent::Kind::rma_put:
      return "rma_put";
    case SyncEvent::Kind::rma_get:
      return "rma_get";
    case SyncEvent::Kind::rma_acc:
      return "rma_acc";
    case SyncEvent::Kind::rma_fence_enter:
      return "rma_fence_enter";
    case SyncEvent::Kind::rma_fence_exit:
      return "rma_fence_exit";
    case SyncEvent::Kind::rma_lock:
      return "rma_lock";
    case SyncEvent::Kind::rma_unlock:
      return "rma_unlock";
  }
  return "?";
}

SyncManager::SyncManager(const topo::ScopeMap& sm, int ntasks,
                         obs::Recorder* obs)
    : sm_(&sm),
      scopes_(sm.machine()),
      obs_(obs),
      single_t0_(static_cast<std::size_t>(std::max(ntasks, 1))),
      task_cpu_(static_cast<std::size_t>(std::max(ntasks, 1))),
      single_depth_(static_cast<std::size_t>(std::max(ntasks, 1))),
      task_counts_(static_cast<std::size_t>(std::max(ntasks, 1)),
                   std::vector<std::uint64_t>(
                       static_cast<std::size_t>(scopes_.num_scopes()))),
      task_nowait_counts_(static_cast<std::size_t>(std::max(ntasks, 1)),
                          std::vector<std::uint64_t>(
                              static_cast<std::size_t>(scopes_.num_scopes()))),
      watch_(static_cast<std::size_t>(std::max(ntasks, 1))) {
  if (ntasks < 1) throw HlsError("SyncManager: need at least one task");
  // Default MPC pinning (task i -> cpu i, wrapping) is established up
  // front: barrier arrival counts must be stable before the first task
  // reaches a synchronization point, not trickle in as tasks start.
  const int ncpus = sm.machine().num_cpus();
  for (std::size_t i = 0; i < task_cpu_.size(); ++i) {
    task_cpu_[i].store(static_cast<int>(i) % ncpus);
  }
  llc_span_ =
      sm.machine().cache_level(sm.machine().llc_level()).cpus_per_instance;
  // The dense index space freezes here: every (scope, instance) gets its
  // barrier state up front, so the sync hot path is pure array indexing.
  instances_.resize(static_cast<std::size_t>(scopes_.num_scopes()));
  for (int s = 0; s < scopes_.num_scopes(); ++s) {
    const int span = scopes_.cpus_per_instance(s);
    const int ngroups = span > llc_span_ ? span / llc_span_ : 0;
    auto& vec = instances_[static_cast<std::size_t>(s)];
    vec.reserve(static_cast<std::size_t>(scopes_.num_instances(s)));
    for (int i = 0; i < scopes_.num_instances(s); ++i) {
      auto is = std::make_unique<InstanceSync>();
      is->groups = std::vector<Flat>(static_cast<std::size_t>(ngroups));
      vec.push_back(std::move(is));
    }
  }
}

void SyncManager::set_task_cpu(int task, int cpu) {
  if (task < 0 || task >= static_cast<int>(task_cpu_.size())) {
    throw HlsError("SyncManager: bad task id");
  }
  if (cpu < 0 || cpu >= sm_->machine().num_cpus()) {
    throw HlsError("SyncManager: bad cpu");
  }
  task_cpu_[static_cast<std::size_t>(task)].store(cpu,
                                                  std::memory_order_release);
  // A migration changes barrier arrival counts. Spinning/yielding waiters
  // re-evaluate their expected participant count on every probe, but a
  // waiter that escalated to blocking (atomic wait) only wakes when its
  // Flat word *changes* — so flip the poke bit on every barrier word. The
  // woken waiters re-read task_cpu_ and recount; one of them takes over
  // the now-complete episode if the shrink finished it. This replaces the
  // old implementation's condvar broadcast (migration is rare; the walk
  // is off every hot path).
  for (auto& per_scope : instances_) {
    for (auto& is : per_scope) {
      is->top.poke();
      for (Flat& g : is->groups) g.poke();
    }
  }
}

bool SyncManager::uses_hierarchy(const CanonicalScope& scope) const {
  if (force_flat_) return false;
  return scopes_.cpus_per_instance(sid(scope)) > llc_span_;
}

SyncManager::InstanceSync& SyncManager::instance(const CanonicalScope& scope,
                                                 int cpu, int* inst_out) {
  const int s = sid(scope);
  const int inst = scopes_.instance_of(s, cpu);
  if (inst_out != nullptr) *inst_out = inst;
  return *instances_[static_cast<std::size_t>(s)]
                    [static_cast<std::size_t>(inst)];
}

int SyncManager::group_index(const CanonicalScope& scope, int inst,
                             int cpu) const {
  const int llc = sm_->machine().llc_level();
  const int llc_inst = sm_->machine().cache_instance_of_cpu(llc, cpu);
  const int first_cpu = inst * scopes_.cpus_per_instance(sid(scope));
  const int first_group = first_cpu / llc_span_;
  return llc_inst - first_group;
}

int SyncManager::group_participants(const CanonicalScope& scope, int inst,
                                    int group) const {
  const int first_cpu =
      inst * scopes_.cpus_per_instance(sid(scope)) + group * llc_span_;
  int count = 0;
  for (const auto& c : task_cpu_) {
    const int cpu = c.load(std::memory_order_acquire);
    if (cpu >= first_cpu && cpu < first_cpu + llc_span_) ++count;
  }
  return count;
}

int SyncManager::active_groups(const CanonicalScope& scope, int inst) const {
  const int span = scopes_.cpus_per_instance(sid(scope));
  const int first_cpu = inst * span;
  const int ngroups = std::max(1, span / llc_span_);
  int active = 0;
  for (int g = 0; g < ngroups; ++g) {
    for (const auto& c : task_cpu_) {
      const int cpu = c.load(std::memory_order_acquire);
      if (cpu >= first_cpu + g * llc_span_ &&
          cpu < first_cpu + (g + 1) * llc_span_) {
        ++active;
        break;
      }
    }
  }
  return active;
}

int SyncManager::participants(const CanonicalScope& scope, int cpu) const {
  const int s = sid(scope);
  const int inst = scopes_.instance_of(s, cpu);
  const int span = scopes_.cpus_per_instance(s);
  const int first = inst * span;
  int count = 0;
  for (const auto& c : task_cpu_) {
    const int t_cpu = c.load(std::memory_order_acquire);
    if (t_cpu >= first && t_cpu < first + span) ++count;
  }
  return count;
}

bool SyncManager::flat_arrive(Flat& f, const std::function<int()>& expected,
                              ult::TaskContext& ctx, bool hold_last,
                              const CanonicalScope& scope, int inst,
                              const char* prim) {
  // Preemption window between deciding to arrive and arriving: the
  // deterministic checker schedules through here to expose ordering bugs.
  ctx.sync_point("flat:arrive");
  const int wd_ms = watchdog_ms_.load(std::memory_order_relaxed);
  if (wd_ms == 0) {
    // Fast path: the extracted barrier's wait loop, nothing layered on.
    return f.arrive(ctx, expected, hold_last);
  }
  // Watchdog armed. Publish where this task is about to wait, so a peer
  // whose watchdog fires can name it as arrived (or as stuck elsewhere),
  // and run the barrier in polled mode: blocking on the word is off the
  // table (std::atomic::wait has no timeout), so the poll hook checks the
  // deadline on every spin/yield probe. The slot stays published on fire
  // (watchdog_fire throws through arrive) so peers that fire later still
  // see us here.
  WatchSlot& slot = watch_[static_cast<std::size_t>(ctx.task_id())];
  slot.prim.store(prim, std::memory_order_relaxed);
  slot.epoch.store(task_sync_count(ctx.task_id(), scope),
                   std::memory_order_relaxed);
  slot.where.store(1ull | (static_cast<std::uint64_t>(sid(scope)) << 8) |
                       (static_cast<std::uint64_t>(inst) << 32),
                   std::memory_order_release);
  const auto wd_start = std::chrono::steady_clock::now();
  const auto poll = [&] {
    const auto waited = std::chrono::steady_clock::now() - wd_start;
    if (waited >= std::chrono::milliseconds(wd_ms)) {
      watchdog_fire(
          scope, inst, prim, ctx,
          std::chrono::duration_cast<std::chrono::milliseconds>(waited)
              .count());
    }
  };
  const bool won = f.arrive(ctx, expected, hold_last, &poll);
  slot.where.store(0, std::memory_order_release);
  return won;
}

void SyncManager::set_watchdog_ms(int ms) {
  if (ms < 0) throw HlsError("SyncManager: watchdog_ms must be >= 0");
  watchdog_ms_.store(ms, std::memory_order_release);
}

void SyncManager::watchdog_fire(const CanonicalScope& scope, int inst,
                                const char* prim, ult::TaskContext& ctx,
                                long long waited_ms) {
  const int s = sid(scope);
  const int span = scopes_.cpus_per_instance(s);
  const int first_cpu = inst * span;
  const std::uint64_t here = 1ull | (static_cast<std::uint64_t>(s) << 8) |
                             (static_cast<std::uint64_t>(inst) << 32);

  std::string arrived_list, missing_list;
  std::int64_t missing_mask = 0;
  int n_arrived = 0;
  int n_expected = 0;
  for (int t = 0; t < static_cast<int>(task_cpu_.size()); ++t) {
    const int cpu =
        task_cpu_[static_cast<std::size_t>(t)].load(std::memory_order_acquire);
    if (cpu < first_cpu || cpu >= first_cpu + span) continue;  // not a member
    ++n_expected;
    const WatchSlot& slot = watch_[static_cast<std::size_t>(t)];
    const std::uint64_t where = slot.where.load(std::memory_order_acquire);
    if (where == here) {
      if (!arrived_list.empty()) arrived_list += ", ";
      arrived_list += std::to_string(t);
      ++n_arrived;
      continue;
    }
    if (t < 64) missing_mask |= std::int64_t{1} << t;
    if (!missing_list.empty()) missing_list += "; ";
    missing_list += "task " + std::to_string(t) + " (cpu " +
                    std::to_string(cpu) + ", last sync epoch " +
                    std::to_string(slot.epoch.load(std::memory_order_relaxed));
    if (where == 0) {
      missing_list += ", not in any sync primitive";
    } else {
      const char* p = slot.prim.load(std::memory_order_relaxed);
      missing_list += std::string(", inside ") + (p != nullptr ? p : "?") +
                      " of sid " + std::to_string((where >> 8) & 0xffffff) +
                      " instance " + std::to_string(where >> 32);
    }
    // Counter snapshot for the missing task: how much it synchronized at
    // all (a task with zero entries never reached the directive; one with
    // many is stuck elsewhere or livelocked).
    if (obs_ != nullptr) {
      missing_list +=
          ", obs barriers=" +
          std::to_string(obs_->counter(t, obs::Counter::barrier_entries)) +
          " singles=" +
          std::to_string(obs_->counter(t, obs::Counter::single_wins) +
                         obs_->counter(t, obs::Counter::single_losses));
    }
    missing_list += ")";
  }

  std::string msg = std::string("watchdog: ") + prim + " on scope " +
                    to_string(scope) + " instance " + std::to_string(inst) +
                    " stuck for " + std::to_string(waited_ms) + " ms: " +
                    std::to_string(n_arrived) + "/" +
                    std::to_string(n_expected) + " participant task(s) arrived";
  if (!arrived_list.empty()) msg += " (" + arrived_list + ")";
  if (!missing_list.empty()) msg += "; missing: " + missing_list;

  if (obs_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::watchdog;
    e.sid = static_cast<std::int16_t>(s);
    e.task = ctx.task_id();
    e.cpu = ctx.cpu();
    e.instance = inst;
    e.t0 = e.t1 = obs_->now();
    e.arg = waited_ms;
    e.arg2 = missing_mask;
    obs_->record(e);
  }
  throw HlsError(msg, ErrorCode::deadlock);
}

void SyncManager::flat_release(Flat& f) {
  // Only the claimed single executor releases. An arrival that slipped in
  // after the claim (a task migrating into the instance) is wiped with the
  // count but leaves via the generation check, exactly as it would have
  // under the old mutex/condvar episode accounting.
  f.release();
}

void SyncManager::bump_task(int task, const CanonicalScope& scope) {
  ++task_counts_[static_cast<std::size_t>(task)]
                [static_cast<std::size_t>(sid(scope))];
}

bool SyncManager::in_single(int task) const {
  if (task < 0 || task >= static_cast<int>(single_depth_.size())) return false;
  return single_depth_[static_cast<std::size_t>(task)].load() > 0;
}

void SyncManager::emit(SyncEvent::Kind kind, const CanonicalScope& scope,
                       int inst, const InstanceSync* is,
                       const ult::TaskContext& ctx) {
  if (observer_ == nullptr) return;
  SyncEvent e;
  e.kind = kind;
  e.task = ctx.task_id();
  e.cpu = ctx.cpu();
  e.scope = scope;
  e.instance = inst;
  e.task_count = task_sync_count(ctx.task_id(), scope);
  if (is != nullptr) {
    e.instance_count = is->episodes.load(std::memory_order_relaxed) +
                       is->nowait_count.load(std::memory_order_relaxed);
  }
  observer_->on_sync_event(e);
}

void SyncManager::report_migration(const ult::TaskContext& ctx, int to_cpu,
                                   bool ok) {
  if (observer_ == nullptr) return;
  SyncEvent e;
  e.kind = ok ? SyncEvent::Kind::migrate_ok : SyncEvent::Kind::migrate_rejected;
  e.task = ctx.task_id();
  e.cpu = to_cpu;
  observer_->on_sync_event(e);
}

void SyncManager::barrier(const CanonicalScope& scope,
                          ult::TaskContext& ctx) {
  int inst = 0;
  InstanceSync& is = instance(scope, ctx.cpu(), &inst);
  std::uint64_t obs_t0 = 0;
  if (obs_ != nullptr) {
    obs_->count(ctx.task_id(), obs::Counter::barrier_entries);
    obs_t0 = obs_->now();
  }
  emit(SyncEvent::Kind::barrier_enter, scope, inst, &is, ctx);
  ctx.sync_point("barrier:enter");
  if (!uses_hierarchy(scope)) {
    const int cpu = ctx.cpu();
    if (flat_arrive(is.top, [&, cpu] { return participants(scope, cpu); },
                    ctx, /*hold_last=*/false, scope, inst, "barrier")) {
      is.episodes.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Shared-cache-aware barrier: synchronize inside the LLC group, send
    // one representative up, then release the group (paper §IV.B).
    const int gi = group_index(scope, inst, ctx.cpu());
    Flat& group = is.groups[static_cast<std::size_t>(gi)];
    if (flat_arrive(group,
                    [&] { return group_participants(scope, inst, gi); }, ctx,
                    /*hold_last=*/true, scope, inst, "barrier:group")) {
      if (flat_arrive(is.top, [&] { return active_groups(scope, inst); }, ctx,
                      /*hold_last=*/false, scope, inst, "barrier:top")) {
        is.episodes.fetch_add(1, std::memory_order_relaxed);
      }
      flat_release(group);
    }
  }
  bump_task(ctx.task_id(), scope);
  if (obs_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::barrier;
    e.sid = static_cast<std::int16_t>(sid(scope));
    e.task = ctx.task_id();
    e.cpu = ctx.cpu();
    e.instance = inst;
    e.t0 = obs_t0;
    e.t1 = obs_->now();
    obs_->record(e);
  }
  emit(SyncEvent::Kind::barrier_exit, scope, inst, &is, ctx);
  ctx.sync_point("barrier:exit");
}

bool SyncManager::single_enter(const CanonicalScope& scope,
                               ult::TaskContext& ctx) {
  int inst = 0;
  InstanceSync& is = instance(scope, ctx.cpu(), &inst);
  std::uint64_t obs_t0 = 0;
  if (obs_ != nullptr) obs_t0 = obs_->now();
  emit(SyncEvent::Kind::single_enter, scope, inst, &is, ctx);
  ctx.sync_point("single:enter");
  bool executor = false;
  if (!uses_hierarchy(scope)) {
    const int cpu = ctx.cpu();
    executor = flat_arrive(is.top, [&, cpu] { return participants(scope, cpu); },
                           ctx, /*hold_last=*/true, scope, inst, "single");
  } else {
    const int gi = group_index(scope, inst, ctx.cpu());
    Flat& group = is.groups[static_cast<std::size_t>(gi)];
    if (flat_arrive(group,
                    [&] { return group_participants(scope, inst, gi); }, ctx,
                    /*hold_last=*/true, scope, inst, "single:group")) {
      if (flat_arrive(is.top, [&] { return active_groups(scope, inst); }, ctx,
                      /*hold_last=*/true, scope, inst, "single:top")) {
        executor = true;  // releases happen in single_done
      } else {
        // Top single completed by the executor; release my LLC group.
        flat_release(group);
      }
    }
  }
  if (executor) {
    ++single_depth_[static_cast<std::size_t>(ctx.task_id())];
    if (obs_ != nullptr) {
      obs_->count(ctx.task_id(), obs::Counter::single_wins);
      // Stashed until single_done closes the single_exec event.
      single_t0_[static_cast<std::size_t>(ctx.task_id())] = obs_t0;
    }
    emit(SyncEvent::Kind::single_exec_begin, scope, inst, &is, ctx);
    ctx.sync_point("single:exec");
  } else {
    bump_task(ctx.task_id(), scope);
    if (obs_ != nullptr) {
      obs_->count(ctx.task_id(), obs::Counter::single_losses);
      obs::Event e;
      e.kind = obs::EventKind::single_wait;
      e.sid = static_cast<std::int16_t>(sid(scope));
      e.task = ctx.task_id();
      e.cpu = ctx.cpu();
      e.instance = inst;
      e.t0 = obs_t0;
      e.t1 = obs_->now();
      obs_->record(e);
    }
    emit(SyncEvent::Kind::single_exit, scope, inst, &is, ctx);
    ctx.sync_point("single:exit");
  }
  return executor;
}

void SyncManager::single_done(const CanonicalScope& scope,
                              ult::TaskContext& ctx) {
  int inst = 0;
  InstanceSync& is = instance(scope, ctx.cpu(), &inst);
  is.episodes.fetch_add(1, std::memory_order_relaxed);
  bump_task(ctx.task_id(), scope);
  if (obs_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::single_exec;
    e.sid = static_cast<std::int16_t>(sid(scope));
    e.task = ctx.task_id();
    e.cpu = ctx.cpu();
    e.instance = inst;
    e.t0 = single_t0_[static_cast<std::size_t>(ctx.task_id())];
    e.t1 = obs_->now();
    obs_->record(e);
  }
  // Emit before the releases so the executor's exec_end is always logged
  // ahead of the waiters' exits (the checker's episode reconstruction
  // relies on that order).
  emit(SyncEvent::Kind::single_exec_end, scope, inst, &is, ctx);
  if (!uses_hierarchy(scope)) {
    flat_release(is.top);
  } else {
    flat_release(is.top);  // other representatives release their groups
    const int gi = group_index(scope, inst, ctx.cpu());
    flat_release(is.groups[static_cast<std::size_t>(gi)]);
  }
  --single_depth_[static_cast<std::size_t>(ctx.task_id())];
  ctx.sync_point("single:done");
}

bool SyncManager::single_nowait(const CanonicalScope& scope,
                                ult::TaskContext& ctx) {
  int inst = 0;
  InstanceSync& is = instance(scope, ctx.cpu(), &inst);
  ctx.sync_point("nowait:enter");
  // Paper §IV.B: each task counts the nowait sites it passed; a task whose
  // private counter runs ahead of the instance counter claims the site.
  const std::uint64_t mine =
      ++task_nowait_counts_[static_cast<std::size_t>(ctx.task_id())]
                           [static_cast<std::size_t>(sid(scope))];
  // Window between counting the site and claiming it: the claim must stay
  // exactly-once under any interleaving here.
  ctx.sync_point("nowait:claim");
  std::uint64_t shared = is.nowait_count.load(std::memory_order_relaxed);
  bool claimed_site = false;
  while (mine > shared) {
    if (is.nowait_count.compare_exchange_weak(shared, mine,
                                              std::memory_order_acq_rel)) {
      claimed_site = true;
      break;
    }
  }
  // Counters only on this path: nowait is a ~30ns wait-free operation and
  // a clock read would dominate it (see DESIGN.md §9 overhead budget).
  if (obs_ != nullptr) {
    obs_->count(ctx.task_id(), claimed_site ? obs::Counter::nowait_claims
                                            : obs::Counter::nowait_skips);
  }
  emit(claimed_site ? SyncEvent::Kind::nowait_claim
                    : SyncEvent::Kind::nowait_skip,
       scope, inst, &is, ctx);
  return claimed_site;
}

std::uint64_t SyncManager::task_sync_count(int task,
                                           const CanonicalScope& scope) const {
  const std::size_t s = static_cast<std::size_t>(sid(scope));
  return task_counts_[static_cast<std::size_t>(task)][s] +
         task_nowait_counts_[static_cast<std::size_t>(task)][s];
}

std::uint64_t SyncManager::instance_sync_count(const CanonicalScope& scope,
                                               int cpu) const {
  const int s = sid(scope);
  const int inst = scopes_.instance_of(s, cpu);
  const InstanceSync& is =
      *instances_[static_cast<std::size_t>(s)][static_cast<std::size_t>(inst)];
  return is.episodes.load(std::memory_order_relaxed) +
         is.nowait_count.load(std::memory_order_relaxed);
}

}  // namespace hlsmpc::hls
