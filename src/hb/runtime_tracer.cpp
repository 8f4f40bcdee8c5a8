#include "hb/runtime_tracer.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace hlsmpc::hb {

namespace {

/// The data flow of one collective call (or fence): the ordering MPI
/// guarantees and no more — an over-approximated edge would let the
/// advisor call an unsafe variable safe.
SyncWave::Shape shape_of(const obs::Event& e) {
  if (e.kind == obs::EventKind::rma_epoch) return SyncWave::Shape::all_to_all;
  switch (obs::coll_op_of(e.arg)) {
    case obs::CollOp::reduce:
    case obs::CollOp::gather:
    case obs::CollOp::gatherv:
      return SyncWave::Shape::fan_in;
    case obs::CollOp::bcast:
    case obs::CollOp::scatter:
      return SyncWave::Shape::fan_out;
    case obs::CollOp::scan:
    case obs::CollOp::exscan:
      return SyncWave::Shape::prefix;
    default:
      return SyncWave::Shape::all_to_all;
  }
}

}  // namespace

RuntimeTracer::RuntimeTracer(int ntasks)
    : ntasks_(ntasks), per_task_(static_cast<std::size_t>(ntasks)) {
  if (ntasks < 1) throw hls::HlsError("RuntimeTracer: need >= 1 task");
}

void RuntimeTracer::push(int task, Recorded r) {
  PerTask& pt = per_task_.at(static_cast<std::size_t>(task));
  std::lock_guard<std::mutex> lk(pt.mu);
  pt.events.push_back(std::move(r));
}

void RuntimeTracer::on_read(int task, const std::string& var, long value) {
  push(task, {EventKind::read, var, value, {}});
}

void RuntimeTracer::on_write(int task, const std::string& var, long value) {
  push(task, {EventKind::write, var, value, {}});
}

void RuntimeTracer::on_event(const obs::Event& e) {
  if (e.task < 0 || e.task >= ntasks_) return;
  if (e.kind == obs::EventKind::p2p_send) {
    push(e.task, {EventKind::send, {}, 0, e});
  } else if (e.kind == obs::EventKind::p2p_recv) {
    push(e.task, {EventKind::recv, {}, 0, e});
  } else if (e.kind == obs::EventKind::collective ||
             (e.kind == obs::EventKind::rma_epoch && e.arg == 0)) {
    push(e.task, {EventKind::barrier, {}, 0, e});  // lock epochs: no edge
  }
}

Trace RuntimeTracer::trace() const {
  std::vector<std::vector<Recorded>> recs;
  for (const PerTask& pt : per_task_) {
    std::lock_guard<std::mutex> lk(pt.mu);
    recs.push_back(pt.events);
  }
  // Wave key: (kind, window of a fence, sync key or fence epoch, k) — the
  // k-th sync of a task under one key joins the k-th wave of that key.
  using Key = std::tuple<obs::EventKind, int, std::int64_t, int>;
  std::map<Key, std::vector<const obs::Event*>> parties;
  std::vector<std::vector<Key>> keys(recs.size());
  for (std::size_t t = 0; t < recs.size(); ++t) {
    std::map<Key, int> seen;
    for (const Recorded& r : recs[t]) {
      if (r.kind != EventKind::barrier) continue;
      const bool fence = r.ev.kind == obs::EventKind::rma_epoch;
      Key key{r.ev.kind, fence ? r.ev.instance : -1, r.ev.arg2, 0};
      std::get<3>(key) = seen[key]++;
      parties[key].push_back(&r.ev);
      keys[t].push_back(key);
    }
  }
  std::map<Key, SyncWave> waves;  // the waves that add edges
  long tag = 0;  // waves go below every p2p sync_key, never negative
  for (auto& [key, ps] : parties) {
    SyncWave w{shape_of(*ps.front()), {}, ps.front()->instance, tag -= 2};
    if (w.shape == SyncWave::Shape::prefix) {
      std::sort(ps.begin(), ps.end(), [](const auto* a, const auto* b) {
        return a->instance < b->instance;  // comm rank
      });
    }
    // Fence events are recorded only once the fence completed.
    bool completed = true;
    for (const obs::Event* p : ps) {
      completed &= p->flag || p->kind == obs::EventKind::rma_epoch;
      w.members.push_back(p->task);
    }
    if (w.shape == SyncWave::Shape::all_to_all ||
        w.shape == SyncWave::Shape::prefix) {  // unrooted
      w.rep = *std::min_element(w.members.begin(), w.members.end());
    }
    if (completed && w.members.size() >= 2 &&
        std::count(w.members.begin(), w.members.end(), w.rep) == 1) {
      waves.emplace(key, std::move(w));
    }
  }

  Trace trace(ntasks_);
  for (int t = 0; t < ntasks_; ++t) {
    std::size_t next_key = 0;
    for (const Recorded& r : recs[static_cast<std::size_t>(t)]) {
      const int peer = static_cast<int>(r.ev.arg);
      if (r.kind == EventKind::read) trace.read(t, r.var, r.value);
      if (r.kind == EventKind::write) trace.write(t, r.var, r.value);
      if (r.kind == EventKind::send) trace.send(t, peer, r.ev.arg2);
      if (r.kind == EventKind::recv) trace.recv(t, peer, r.ev.arg2);
      if (r.kind != EventKind::barrier) continue;
      const auto it = waves.find(keys[static_cast<std::size_t>(t)][next_key++]);
      if (it != waves.end()) {
        it->second.arrive(trace, t);
        it->second.release(trace, t);
      }
    }
  }
  return trace;
}

std::size_t RuntimeTracer::num_events() const {
  std::size_t n = 0;
  for (const PerTask& pt : per_task_) {
    std::lock_guard<std::mutex> lk(pt.mu);
    n += pt.events.size();
  }
  return n;
}

}  // namespace hlsmpc::hb
