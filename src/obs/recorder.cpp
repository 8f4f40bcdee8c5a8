#include "obs/recorder.hpp"

#include <algorithm>
#include <stdexcept>

namespace hlsmpc::obs {

const char* to_string(Counter c) {
  switch (c) {
    case Counter::get_addr_warm:
      return "get_addr_warm";
    case Counter::get_addr_cold:
      return "get_addr_cold";
    case Counter::first_touches:
      return "first_touches";
    case Counter::barrier_entries:
      return "barrier_entries";
    case Counter::single_wins:
      return "single_wins";
    case Counter::single_losses:
      return "single_losses";
    case Counter::nowait_claims:
      return "nowait_claims";
    case Counter::nowait_skips:
      return "nowait_skips";
    case Counter::migrations_ok:
      return "migrations_ok";
    case Counter::migrations_rejected:
      return "migrations_rejected";
    case Counter::ctx_switches:
      return "ctx_switches";
    case Counter::coll_ops:
      return "coll_ops";
    case Counter::p2p_sends:
      return "p2p_sends";
    case Counter::p2p_recvs:
      return "p2p_recvs";
    case Counter::coll_shm_ops:
      return "coll_shm_ops";
    case Counter::coll_shm_pipelined_ops:
      return "coll_shm_pipelined_ops";
    case Counter::rma_puts:
      return "rma_puts";
    case Counter::rma_gets:
      return "rma_gets";
    case Counter::rma_accs:
      return "rma_accs";
    case Counter::rma_bytes:
      return "rma_bytes";
    case Counter::rma_fences:
      return "rma_fences";
    case Counter::rma_locks:
      return "rma_locks";
    case Counter::net_sends:
      return "net_sends";
    case Counter::net_recvs:
      return "net_recvs";
    case Counter::net_retries:
      return "net_retries";
    case Counter::recoveries:
      return "recoveries";
    case Counter::ckpt_bytes:
      return "ckpt_bytes";
    case Counter::tier_spills:
      return "tier_spills";
    case Counter::tier_cache_hits:
      return "tier_cache_hits";
    case Counter::tier_cache_misses:
      return "tier_cache_misses";
    case Counter::tier_preread_bytes:
      return "tier_preread_bytes";
    case Counter::tier_writeback_bytes:
      return "tier_writeback_bytes";
    case Counter::tier_crc_full_passes:
      return "tier_crc_full_passes";
    case Counter::tier_crc_tracked_passes:
      return "tier_crc_tracked_passes";
    case Counter::wait_spin_completions:
      return "wait_spin_completions";
    case Counter::wait_parks:
      return "wait_parks";
    case Counter::kCount:
      break;
  }
  return "?";
}

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::barrier:
      return "barrier";
    case EventKind::single_exec:
      return "single_exec";
    case EventKind::single_wait:
      return "single_wait";
    case EventKind::nowait:
      return "nowait";
    case EventKind::migration:
      return "migration";
    case EventKind::first_touch:
      return "first_touch";
    case EventKind::collective:
      return "collective";
    case EventKind::p2p_send:
      return "p2p_send";
    case EventKind::p2p_recv:
      return "p2p_recv";
    case EventKind::ctx_switch:
      return "ctx_switch";
    case EventKind::watchdog:
      return "watchdog";
    case EventKind::rma_op:
      return "rma_op";
    case EventKind::rma_epoch:
      return "rma_epoch";
    case EventKind::recovery:
      return "recovery";
    case EventKind::tier_spill:
      return "tier_spill";
    case EventKind::tier_preread:
      return "tier_preread";
    case EventKind::tier_writeback:
      return "tier_writeback";
  }
  return "?";
}

const char* to_string(RmaOp op) {
  switch (op) {
    case RmaOp::put:
      return "put";
    case RmaOp::get:
      return "get";
    case RmaOp::accumulate:
      return "accumulate";
  }
  return "?";
}

const char* to_string(CollOp op) {
  switch (op) {
    case CollOp::barrier:
      return "barrier";
    case CollOp::bcast:
      return "bcast";
    case CollOp::reduce:
      return "reduce";
    case CollOp::allreduce:
      return "allreduce";
    case CollOp::gather:
      return "gather";
    case CollOp::gatherv:
      return "gatherv";
    case CollOp::scatter:
      return "scatter";
    case CollOp::allgather:
      return "allgather";
    case CollOp::alltoall:
      return "alltoall";
    case CollOp::scan:
      return "scan";
    case CollOp::exscan:
      return "exscan";
    case CollOp::reduce_scatter:
      return "reduce_scatter";
  }
  return "?";
}

const char* to_string(CollAlg alg) {
  switch (alg) {
    case CollAlg::p2p:
      return "p2p";
    case CollAlg::shm_flat:
      return "shm_flat";
    case CollAlg::shm_hier:
      return "shm_hier";
    case CollAlg::shm_pipelined:
      return "shm_pipelined";
  }
  return "?";
}

Recorder::Recorder(RecorderOptions opts)
    : epoch_(std::chrono::steady_clock::now()),
      num_scopes_(std::max(opts.num_scopes, 0)),
      ring_capacity_(opts.ring_capacity),
      blocks_(static_cast<std::size_t>(std::max(opts.ntasks, 1))) {
  for (TaskBlock& b : blocks_) {
    if (num_scopes_ > 0) {
      b.scope_bytes =
          std::vector<std::atomic<std::uint64_t>>(
              static_cast<std::size_t>(num_scopes_));
      b.scope_touches =
          std::vector<std::atomic<std::uint64_t>>(
              static_cast<std::size_t>(num_scopes_));
    }
    b.ring.resize(ring_capacity_);
  }
}

void Recorder::count_scope_bytes(int task, int sid, std::uint64_t bytes) {
  if (static_cast<unsigned>(task) >= blocks_.size()) return;
  TaskBlock& b = blocks_[static_cast<std::size_t>(task)];
  if (sid < 0 || sid >= num_scopes_) return;
  auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  };
  bump(b.scope_bytes[static_cast<std::size_t>(sid)], bytes);
  bump(b.scope_touches[static_cast<std::size_t>(sid)], 1);
}

void Recorder::record(const Event& e) {
  if (static_cast<unsigned>(e.task) < blocks_.size() && ring_capacity_ > 0) {
    TaskBlock& b = blocks_[static_cast<std::size_t>(e.task)];
    const std::uint64_t n = b.pushed.load(std::memory_order_relaxed);
    b.ring[static_cast<std::size_t>(n % ring_capacity_)] = e;
    // Publish after the slot write so a quiescent reader that acquires
    // `pushed` sees the full entry.
    b.pushed.store(n + 1, std::memory_order_release);
  }
  for (Sink* s : sinks_) s->on_event(e);
}

void Recorder::chain(Sink* s) {
  if (s == nullptr || s == this) return;
  sinks_.push_back(s);
}

Snapshot Recorder::snapshot() const {
  Snapshot s;
  s.tasks.resize(blocks_.size());
  s.total.scope_bytes.assign(static_cast<std::size_t>(num_scopes_), 0);
  s.total.scope_touches.assign(static_cast<std::size_t>(num_scopes_), 0);
  for (std::size_t t = 0; t < blocks_.size(); ++t) {
    const TaskBlock& b = blocks_[t];
    Snapshot::TaskCounters& out = s.tasks[t];
    out.scope_bytes.assign(static_cast<std::size_t>(num_scopes_), 0);
    out.scope_touches.assign(static_cast<std::size_t>(num_scopes_), 0);
    for (int c = 0; c < kNumCounters; ++c) {
      const std::uint64_t v =
          b.counters[static_cast<std::size_t>(c)].load(
              std::memory_order_relaxed);
      out.c[static_cast<std::size_t>(c)] = v;
      s.total.c[static_cast<std::size_t>(c)] += v;
    }
    for (int sc = 0; sc < num_scopes_; ++sc) {
      const std::size_t i = static_cast<std::size_t>(sc);
      out.scope_bytes[i] = b.scope_bytes[i].load(std::memory_order_relaxed);
      out.scope_touches[i] =
          b.scope_touches[i].load(std::memory_order_relaxed);
      s.total.scope_bytes[i] += out.scope_bytes[i];
      s.total.scope_touches[i] += out.scope_touches[i];
    }
  }
  return s;
}

std::vector<Event> Recorder::events() const {
  std::vector<Event> out;
  for (const TaskBlock& b : blocks_) {
    const std::uint64_t pushed = b.pushed.load(std::memory_order_acquire);
    if (ring_capacity_ == 0 || pushed == 0) continue;
    const std::uint64_t kept =
        std::min<std::uint64_t>(pushed, ring_capacity_);
    const std::uint64_t first = pushed - kept;
    for (std::uint64_t i = first; i < pushed; ++i) {
      out.push_back(b.ring[static_cast<std::size_t>(i % ring_capacity_)]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.t0 < b.t0; });
  return out;
}

std::uint64_t Recorder::events_recorded(int task) const {
  if (static_cast<unsigned>(task) >= blocks_.size()) return 0;
  return blocks_[static_cast<std::size_t>(task)].pushed.load(
      std::memory_order_acquire);
}

std::uint64_t Recorder::dropped(int task) const {
  const std::uint64_t pushed = events_recorded(task);
  return pushed > ring_capacity_ ? pushed - ring_capacity_ : 0;
}

}  // namespace hlsmpc::obs
