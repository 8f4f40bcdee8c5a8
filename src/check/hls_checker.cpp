#include "check/hls_checker.hpp"

#include <algorithm>
#include <sstream>

#include "hb/analyzer.hpp"
#include "hb/trace.hpp"

namespace hlsmpc::check {

namespace {

using hls::SyncEvent;

bool is_enter(SyncEvent::Kind k) {
  return k == SyncEvent::Kind::barrier_enter ||
         k == SyncEvent::Kind::single_enter;
}

bool is_migrate(SyncEvent::Kind k) {
  return k == SyncEvent::Kind::migrate_ok ||
         k == SyncEvent::Kind::migrate_rejected;
}

bool is_rma(SyncEvent::Kind k) {
  return k >= SyncEvent::Kind::rma_put;  // the RMA kinds close the enum
}

bool is_rma_access(SyncEvent::Kind k) {
  return k == SyncEvent::Kind::rma_put || k == SyncEvent::Kind::rma_get ||
         k == SyncEvent::Kind::rma_acc;
}

topo::ScopeSpec spec_of(const hls::CanonicalScope& scope) {
  return topo::ScopeSpec{scope.kind, scope.cache_level};
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

std::string describe(const SyncEvent& e) {
  std::ostringstream os;
  os << hls::to_string(e.kind) << " task=" << e.task << " cpu=" << e.cpu;
  if (is_rma(e.kind)) {
    os << " win=" << e.instance;
    if (e.rma_target >= 0) os << " target=" << e.rma_target;
    if (is_rma_access(e.kind)) {
      os << " range=[" << e.rma_offset << ", "
         << (e.rma_offset + e.rma_bytes) << ")";
    }
    if (e.kind == SyncEvent::Kind::rma_fence_enter ||
        e.kind == SyncEvent::Kind::rma_fence_exit) {
      os << " epoch=" << e.task_count;
    }
    if (e.kind == SyncEvent::Kind::rma_lock ||
        e.kind == SyncEvent::Kind::rma_unlock) {
      os << (e.rma_excl ? " exclusive" : " shared");
    }
  } else if (!is_migrate(e.kind)) {
    os << " scope=" << hls::to_string(e.scope) << " inst=" << e.instance
       << " task_count=" << e.task_count
       << " instance_count=" << e.instance_count;
  }
  return os.str();
}

}  // namespace

const char* to_string(Diagnostic::Code c) {
  switch (c) {
    case Diagnostic::Code::single_overlap:
      return "single_overlap";
    case Diagnostic::Code::single_unordered:
      return "single_unordered";
    case Diagnostic::Code::counter_regression:
      return "counter_regression";
    case Diagnostic::Code::migrate_mismatch:
      return "migrate_mismatch";
    case Diagnostic::Code::migrate_in_single:
      return "migrate_in_single";
    case Diagnostic::Code::rma_race:
      return "rma_race";
    case Diagnostic::Code::rma_lock_overlap:
      return "rma_lock_overlap";
    case Diagnostic::Code::structural:
      return "structural";
  }
  return "?";
}

HlsChecker::HlsChecker(const topo::ScopeMap& sm, int ntasks)
    : sm_(&sm),
      ntasks_(ntasks),
      single_depth_(static_cast<std::size_t>(std::max(0, ntasks)), 0) {
  if (ntasks < 1) throw hls::HlsError("HlsChecker: need at least one task");
}

void HlsChecker::add(Diagnostic::Code code, const SyncEvent& e,
                     std::string msg) {
  Diagnostic d;
  d.code = code;
  d.message = std::move(msg);
  d.task = e.task;
  d.scope = e.scope;
  d.instance = e.instance;
  diags_.push_back(std::move(d));
}

void HlsChecker::check_counters(const SyncEvent& e) {
  const auto task_key = std::make_pair(e.scope, e.task);
  auto it = last_task_count_.find(task_key);
  if (it != last_task_count_.end() && e.task_count < it->second) {
    add(Diagnostic::Code::counter_regression, e,
        "task episode counter went backwards (" +
            std::to_string(it->second) + " -> " +
            std::to_string(e.task_count) + ") at " + describe(e));
  }
  last_task_count_[task_key] = e.task_count;

  // Instance counts are compared per observing task: two tasks' emissions
  // can legitimately land in the log out of counter order.
  const auto inst_key = std::make_tuple(e.scope, e.instance, e.task);
  auto iit = last_instance_count_.find(inst_key);
  if (iit != last_instance_count_.end() && e.instance_count < iit->second) {
    add(Diagnostic::Code::counter_regression, e,
        "instance episode counter went backwards (" +
            std::to_string(iit->second) + " -> " +
            std::to_string(e.instance_count) + ") at " + describe(e));
  }
  last_instance_count_[inst_key] = e.instance_count;

  auto& floor = instance_floor_[std::make_pair(e.scope, e.instance)];
  floor = std::max(floor, e.instance_count);
}

void HlsChecker::check_exclusion(const SyncEvent& e) {
  const ScopeKey key{e.scope, e.instance};
  if (e.kind == SyncEvent::Kind::single_exec_begin) {
    auto it = active_executor_.find(key);
    if (it != active_executor_.end()) {
      add(Diagnostic::Code::single_overlap, e,
          "task " + std::to_string(e.task) +
              " elected single executor while task " +
              std::to_string(it->second) + " still runs the block on " +
              hls::to_string(e.scope) + " instance " +
              std::to_string(e.instance));
    }
    active_executor_[key] = e.task;
    if (e.task >= 0 && e.task < ntasks_) {
      ++single_depth_[static_cast<std::size_t>(e.task)];
    }
  } else if (e.kind == SyncEvent::Kind::single_exec_end) {
    auto it = active_executor_.find(key);
    if (it == active_executor_.end() || it->second != e.task) {
      add(Diagnostic::Code::structural, e,
          "single_exec_end without matching single_exec_begin: " +
              describe(e));
    } else {
      active_executor_.erase(it);
    }
    if (e.task >= 0 && e.task < ntasks_ &&
        single_depth_[static_cast<std::size_t>(e.task)] > 0) {
      --single_depth_[static_cast<std::size_t>(e.task)];
    }
  }
}

void HlsChecker::check_migration(const SyncEvent& e) {
  if (e.kind != SyncEvent::Kind::migrate_ok) return;
  migration_seen_ = true;
  if (e.task >= 0 && e.task < ntasks_ &&
      single_depth_[static_cast<std::size_t>(e.task)] > 0) {
    add(Diagnostic::Code::migrate_in_single, e,
        "task " + std::to_string(e.task) + " migrated to cpu " +
            std::to_string(e.cpu) + " while inside a single block");
  }
  // Mirror the §IV.A legality check against what the log proves: every
  // instance count the checker ever saw is a floor on the true count, so
  // floor(destination) > task's count means the counters could not have
  // matched when the move was accepted. (The converse needs an upper
  // bound the log cannot give, so wrong rejections are not flagged here.)
  for (const auto& [floor_key, floor] : instance_floor_) {
    const hls::CanonicalScope& scope = floor_key.first;
    const int dest_inst = sm_->instance_of(spec_of(scope), e.cpu);
    if (dest_inst != floor_key.second) continue;
    std::uint64_t task_cnt = 0;
    auto it = last_task_count_.find(std::make_pair(scope, e.task));
    if (it != last_task_count_.end()) task_cnt = it->second;
    if (floor > task_cnt) {
      add(Diagnostic::Code::migrate_mismatch, e,
          "task " + std::to_string(e.task) + " moved to cpu " +
              std::to_string(e.cpu) + " with " + hls::to_string(scope) +
              " count " + std::to_string(task_cnt) +
              " but destination instance " + std::to_string(dest_inst) +
              " had already completed " + std::to_string(floor) +
              " episodes");
    }
  }
}

void HlsChecker::check_rma(const SyncEvent& e) {
  const auto word_key = std::make_pair(e.instance, e.rma_target);
  switch (e.kind) {
    case SyncEvent::Kind::rma_lock: {
      LockState& ls = rma_locks_[word_key];
      // Win emits the lock event after the winning CAS and the unlock
      // event before the releasing store, so genuinely serialized
      // critical sections can never interleave in the log: any overlap
      // seen here is a real protocol violation.
      if (e.rma_excl) {
        if (ls.excl >= 0 || !ls.shared.empty()) {
          add(Diagnostic::Code::rma_lock_overlap, e,
              "task " + std::to_string(e.task) +
                  " acquired rank " + std::to_string(e.rma_target) +
                  "'s lock of window " + std::to_string(e.instance) +
                  " exclusively while " +
                  (ls.excl >= 0
                       ? "task " + std::to_string(ls.excl) + " holds it"
                       : std::to_string(ls.shared.size()) +
                             " shared holder(s) remain"));
        }
        ls.excl = e.task;
      } else {
        if (ls.excl >= 0) {
          add(Diagnostic::Code::rma_lock_overlap, e,
              "task " + std::to_string(e.task) + " acquired rank " +
                  std::to_string(e.rma_target) + "'s lock of window " +
                  std::to_string(e.instance) +
                  " shared while task " + std::to_string(ls.excl) +
                  " holds it exclusively");
        }
        ls.shared.insert(e.task);
      }
      break;
    }
    case SyncEvent::Kind::rma_unlock: {
      LockState& ls = rma_locks_[word_key];
      if (e.rma_excl) {
        if (ls.excl != e.task) {
          add(Diagnostic::Code::structural, e,
              "exclusive unlock by a task that does not hold the lock: " +
                  describe(e));
        } else {
          ls.excl = -1;
        }
      } else if (ls.shared.erase(e.task) == 0) {
        add(Diagnostic::Code::structural, e,
            "shared unlock by a task that does not hold the lock: " +
                describe(e));
      }
      break;
    }
    case SyncEvent::Kind::rma_fence_enter: {
      auto& last = rma_fence_epoch_[std::make_pair(e.instance, e.task)];
      if (e.task_count <= last) {
        add(Diagnostic::Code::counter_regression, e,
            "fence epoch did not advance (" + std::to_string(last) +
                " -> " + std::to_string(e.task_count) + ") at " +
                describe(e));
      }
      last = e.task_count;
      break;
    }
    default:
      break;  // accesses and fence exits carry no incremental invariant
  }
}

void HlsChecker::on_sync_event(const SyncEvent& e) {
  std::lock_guard<std::mutex> lk(mu_);
  log_.push_back(e);
  if (is_migrate(e.kind)) {
    check_migration(e);
    return;
  }
  // RMA events carry window coordinates, not scope/episode counters —
  // routing them through the scope checks would trip counter_regression
  // on the defaulted fields.
  if (is_rma(e.kind)) {
    check_rma(e);
    return;
  }
  check_counters(e);
  check_exclusion(e);
}

void HlsChecker::assign_episodes(std::vector<Episode>& episodes,
                                 std::vector<long>& episode_of) {
  episode_of.assign(log_.size(), -1);
  // Open episodes per (scope, instance), oldest first. Episodes complete
  // in generation order, so releases match FIFO; an arrival after the
  // release would have joined the *next* generation, hence sealing.
  std::map<ScopeKey, std::vector<long>> open;

  auto find_open = [&](const ScopeKey& key, auto&& pred) -> long {
    auto it = open.find(key);
    if (it == open.end()) return -1;
    for (long idx : it->second) {
      if (pred(episodes[static_cast<std::size_t>(idx)])) return idx;
    }
    return -1;
  };
  auto close_if_done = [&](const ScopeKey& key, long idx) {
    if (!episode_complete(episodes[static_cast<std::size_t>(idx)])) return;
    auto& vec = open[key];
    vec.erase(std::find(vec.begin(), vec.end(), idx));
  };

  for (std::size_t k = 0; k < log_.size(); ++k) {
    const SyncEvent& e = log_[k];
    const ScopeKey key{e.scope, e.instance};
    switch (e.kind) {
      case SyncEvent::Kind::barrier_enter:
      case SyncEvent::Kind::single_enter: {
        const bool single = e.kind == SyncEvent::Kind::single_enter;
        long idx = find_open(key, [&](const Episode& ep) {
          return ep.is_single == single && !ep.sealed &&
                 !contains(ep.participants, e.task);
        });
        if (idx < 0) {
          Episode ep;
          ep.is_single = single;
          ep.key = key;
          ep.uid = static_cast<long>(episodes.size());
          episodes.push_back(std::move(ep));
          idx = static_cast<long>(episodes.size()) - 1;
          open[key].push_back(idx);
        }
        episodes[static_cast<std::size_t>(idx)].participants.push_back(e.task);
        episode_of[k] = idx;
        break;
      }
      case SyncEvent::Kind::single_exec_begin: {
        const long idx = find_open(key, [&](const Episode& ep) {
          return ep.is_single && ep.executor < 0 &&
                 contains(ep.participants, e.task);
        });
        if (idx < 0) {
          add(Diagnostic::Code::structural, e,
              "single_exec_begin with no open episode: " + describe(e));
          break;
        }
        Episode& ep = episodes[static_cast<std::size_t>(idx)];
        ep.executor = e.task;
        ep.sealed = true;
        episode_of[k] = idx;
        break;
      }
      case SyncEvent::Kind::single_exec_end: {
        const long idx = find_open(key, [&](const Episode& ep) {
          return ep.is_single && ep.executor == e.task && !ep.exec_end_seen;
        });
        if (idx < 0) break;  // already flagged by check_exclusion
        episodes[static_cast<std::size_t>(idx)].exec_end_seen = true;
        episode_of[k] = idx;
        close_if_done(key, idx);
        break;
      }
      case SyncEvent::Kind::single_exit:
      case SyncEvent::Kind::barrier_exit: {
        const bool single = e.kind == SyncEvent::Kind::single_exit;
        const long idx = find_open(key, [&](const Episode& ep) {
          return ep.is_single == single && ep.executor != e.task &&
                 contains(ep.participants, e.task) &&
                 ep.exited.find(e.task) == ep.exited.end();
        });
        if (idx < 0) {
          add(Diagnostic::Code::structural, e,
              "exit with no matching arrival: " + describe(e));
          break;
        }
        Episode& ep = episodes[static_cast<std::size_t>(idx)];
        ep.sealed = true;
        ep.exited.insert(e.task);
        episode_of[k] = idx;
        close_if_done(key, idx);
        break;
      }
      default:
        break;  // nowait/migrate events take no part in episodes
    }
  }
}

bool HlsChecker::episode_complete(const Episode& ep) {
  if (ep.is_single) {
    return ep.executor >= 0 && ep.exec_end_seen &&
           ep.exited.size() + 1 == ep.participants.size();
  }
  return ep.sealed && ep.exited.size() == ep.participants.size();
}

bool HlsChecker::verify() {
  std::lock_guard<std::mutex> lk(mu_);

  std::vector<Episode> episodes;
  std::vector<long> episode_of;
  assign_episodes(episodes, episode_of);

  // ---- RMA reconstruction, pass 1: plan the waves --------------------
  // Wave tags continue after the episode uids so the two families never
  // collide (episodes use uid*2 / uid*2+1 with uid < size()).
  long next_uid = static_cast<long>(episodes.size());

  // Fence groups, keyed (window, epoch): an all-to-all wave through the
  // lowest fencing task, only when every rank that ever fences on the
  // window entered AND exited this epoch — a real fence cannot complete
  // with a participant missing, so anything less is a truncated log
  // (crash, throw) whose model would leave unmatched receives.
  std::map<std::pair<int, std::uint64_t>, hb::SyncWave> fences;
  {
    std::map<int, std::set<int>> fencers;  // window -> every fencing task
    std::map<std::pair<int, std::uint64_t>,
             std::pair<std::set<int>, std::set<int>>>
        groups;  // (window, epoch) -> (entered, exited)
    for (const SyncEvent& e : log_) {
      if (e.kind == SyncEvent::Kind::rma_fence_enter) {
        fencers[e.instance].insert(e.task);
        groups[{e.instance, e.task_count}].first.insert(e.task);
      } else if (e.kind == SyncEvent::Kind::rma_fence_exit) {
        groups[{e.instance, e.task_count}].second.insert(e.task);
      }
    }
    for (const auto& [key, g] : groups) {
      const std::set<int>& all = fencers[key.first];
      if (all.size() < 2 || g.first != all || g.second != all) continue;
      fences[key] = {hb::SyncWave::Shape::all_to_all,
                     {all.begin(), all.end()}, *all.begin(), next_uid++ * 2};
    }
  }

  // Lock-release chains per (window, target) word: an exclusive
  // acquisition synchronizes with the previous exclusive release and
  // every shared release since (the CAS from 0 reads the end of that
  // release sequence); a shared acquisition synchronizes with the
  // previous exclusive release alone. Win's emission discipline (lock
  // after the CAS, unlock before the store) guarantees each edge's
  // unlock precedes its lock in the log. Each edge is a two-member
  // fan-out from the unlocking task, keyed by both log indices.
  std::map<std::size_t, std::vector<hb::SyncWave>> lock_edges;
  {
    struct WordChain {
      long last_excl_unlock = -1;          // log index, -1 none
      std::vector<long> shared_unlocks;    // since last_excl_unlock
    };
    std::map<std::pair<int, int>, WordChain> chains;
    auto edge = [&](long from, std::size_t to) {
      const int src = log_[static_cast<std::size_t>(from)].task;
      const int dst = log_[to].task;
      if (src == dst) return;  // program order already covers it
      const hb::SyncWave w{hb::SyncWave::Shape::fan_out, {src, dst}, src,
                           next_uid++ * 2};
      lock_edges[static_cast<std::size_t>(from)].push_back(w);
      lock_edges[to].push_back(w);
    };
    for (std::size_t k = 0; k < log_.size(); ++k) {
      const SyncEvent& e = log_[k];
      if (e.kind == SyncEvent::Kind::rma_lock) {
        WordChain& c = chains[{e.instance, e.rma_target}];
        if (c.last_excl_unlock >= 0) edge(c.last_excl_unlock, k);
        if (e.rma_excl) {
          for (long s : c.shared_unlocks) edge(s, k);
        }
      } else if (e.kind == SyncEvent::Kind::rma_unlock) {
        WordChain& c = chains[{e.instance, e.rma_target}];
        if (e.rma_excl) {
          c.last_excl_unlock = static_cast<long>(k);
          c.shared_unlocks.clear();
        } else {
          c.shared_unlocks.push_back(static_cast<long>(k));
        }
      }
    }
  }

  // Rebuild the log as an hb::Trace: each complete episode is an
  // all-to-all SyncWave through its representative (the single executor,
  // or the lowest-id participant for a barrier), which arrives at its
  // release point, then does a single block's write. Only complete
  // episodes are emitted — a partial one would leave unmatched receives
  // the Analyzer rejects.
  hb::Trace trace(ntasks_);
  std::vector<hb::SyncWave> waves(episodes.size());
  for (const Episode& ep : episodes) {
    if (!episode_complete(ep)) continue;
    waves[static_cast<std::size_t>(ep.uid)] = {
        hb::SyncWave::Shape::all_to_all, ep.participants,
        ep.is_single ? ep.executor
                     : *std::min_element(ep.participants.begin(),
                                         ep.participants.end()),
        ep.uid * 2};
  }
  struct SingleWrite {
    int event_id;
    long episode;
  };
  std::map<ScopeKey, std::vector<SingleWrite>> writes;

  /// One one-sided access as a node in the trace, for the pairwise
  /// conflict scan below.
  struct RmaAccess {
    int event_id;
    std::size_t log_idx;
  };
  std::vector<RmaAccess> accesses;
  long next_value = next_uid;  // unique write values for access nodes

  for (std::size_t k = 0; k < log_.size(); ++k) {
    if (is_rma(log_[k].kind)) {
      const SyncEvent& re = log_[k];
      if (re.task < 0 || re.task >= ntasks_) continue;
      // A fence's representative arrives at its exit: Win logs an exit
      // only after acquiring every rank's publication.
      const bool fence_exit = re.kind == SyncEvent::Kind::rma_fence_exit;
      auto fit = fence_exit || re.kind == SyncEvent::Kind::rma_fence_enter
                     ? fences.find({re.instance, re.task_count})
                     : fences.end();
      if (fit != fences.end()) {
        const hb::SyncWave& w = fit->second;
        if (!fence_exit && re.task != w.rep) w.arrive(trace, re.task);
        if (fence_exit) {
          if (re.task == w.rep) w.arrive(trace, re.task);
          w.release(trace, re.task);
        }
      }
      auto lit = lock_edges.find(k);  // locks receive, unlocks send
      if (lit != lock_edges.end()) {
        for (const hb::SyncWave& w : lit->second) w.release(trace, re.task);
      }
      if (is_rma_access(re.kind)) {
        accesses.push_back({static_cast<int>(trace.events().size()), k});
        trace.write(re.task,
                    "rma:" + std::to_string(re.instance) + ":" +
                        std::to_string(re.rma_target),
                    next_value++);
      }
      continue;
    }
    const long idx = episode_of[k];
    if (idx < 0) continue;
    const Episode& ep = episodes[static_cast<std::size_t>(idx)];
    if (!episode_complete(ep)) continue;
    const SyncEvent& e = log_[k];
    const hb::SyncWave& w = waves[static_cast<std::size_t>(idx)];
    if (is_enter(e.kind) && e.task != w.rep) w.arrive(trace, e.task);
    if (e.kind == SyncEvent::Kind::single_exec_begin ||
        (e.kind == SyncEvent::Kind::barrier_exit && e.task == w.rep)) {
      w.arrive(trace, w.rep);
      if (ep.is_single) {
        writes[ep.key].push_back(
            {static_cast<int>(trace.events().size()), ep.uid});
        trace.write(w.rep,
                    "single:" + hls::to_string(ep.key.first) + ":" +
                        std::to_string(ep.key.second),
                    ep.uid);
      }
    }
    if (e.kind == SyncEvent::Kind::single_exec_end ||
        e.kind == SyncEvent::Kind::single_exit ||
        e.kind == SyncEvent::Kind::barrier_exit) {
      w.release(trace, e.task);
    }
  }

  if (!trace.events().empty()) {
    try {
      hb::Analyzer hb(trace);
      for (const auto& [key, ws] : writes) {
        for (std::size_t i = 0; i < ws.size(); ++i) {
          for (std::size_t j = i + 1; j < ws.size(); ++j) {
            if (!hb.parallel(ws[i].event_id, ws[j].event_id)) continue;
            const Episode& a = episodes[static_cast<std::size_t>(ws[i].episode)];
            const Episode& b = episodes[static_cast<std::size_t>(ws[j].episode)];
            if (migration_seen_) {
              // After a legal move, consecutive episodes of one instance
              // can have disjoint participant sets with no hb edge between
              // them; only flag pairs a shared participant should order.
              bool shared = false;
              for (int p : a.participants) {
                if (contains(b.participants, p)) shared = true;
              }
              if (!shared) continue;
            }
            Diagnostic d;
            d.code = Diagnostic::Code::single_unordered;
            d.scope = key.first;
            d.instance = key.second;
            d.task = a.executor;
            d.message =
                "single blocks of episodes " + std::to_string(a.uid) +
                " (executor task " + std::to_string(a.executor) + ") and " +
                std::to_string(b.uid) + " (executor task " +
                std::to_string(b.executor) + ") on " +
                hls::to_string(key.first) + " instance " +
                std::to_string(key.second) +
                " are not ordered by happens-before";
            diags_.push_back(std::move(d));
          }
        }
      }
      // Conflicting one-sided accesses: same window, same target rank,
      // overlapping byte ranges, not both reads — racy unless some epoch
      // (fence group or lock chain) orders them. Win::accumulate applies
      // the ReduceFn without element atomicity, so unlike MPI_Accumulate
      // two concurrent accumulates DO conflict here.
      for (std::size_t i = 0; i < accesses.size(); ++i) {
        const SyncEvent& a = log_[accesses[i].log_idx];
        for (std::size_t j = i + 1; j < accesses.size(); ++j) {
          const SyncEvent& b = log_[accesses[j].log_idx];
          if (a.instance != b.instance || a.rma_target != b.rma_target) {
            continue;
          }
          if (a.task == b.task) continue;  // program order
          if (a.kind == SyncEvent::Kind::rma_get &&
              b.kind == SyncEvent::Kind::rma_get) {
            continue;
          }
          if (a.rma_offset + a.rma_bytes <= b.rma_offset ||
              b.rma_offset + b.rma_bytes <= a.rma_offset) {
            continue;
          }
          if (!hb.parallel(accesses[i].event_id, accesses[j].event_id)) {
            continue;
          }
          Diagnostic d;
          d.code = Diagnostic::Code::rma_race;
          d.task = a.task;
          d.instance = a.instance;
          d.message = "one-sided accesses race on window " +
                      std::to_string(a.instance) + " rank " +
                      std::to_string(a.rma_target) + ": " + describe(a) +
                      " and " + describe(b) +
                      " overlap and no epoch orders them";
          diags_.push_back(std::move(d));
        }
      }
    } catch (const hls::HlsError& err) {
      Diagnostic d;
      d.code = Diagnostic::Code::structural;
      d.message = std::string("event log cannot be replayed: ") + err.what();
      diags_.push_back(std::move(d));
    }
  }
  return diags_.empty();
}

bool HlsChecker::ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return diags_.empty();
}

std::vector<Diagnostic> HlsChecker::violations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return diags_;
}

std::string HlsChecker::report() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  for (const Diagnostic& d : diags_) {
    os << "[" << to_string(d.code) << "] " << d.message << "\n";
  }
  return os.str();
}

std::size_t HlsChecker::events_recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_.size();
}

std::vector<hls::SyncEvent> HlsChecker::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return log_;
}

}  // namespace hlsmpc::check
