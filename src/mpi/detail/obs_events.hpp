// The obs events both MPI tiers record — in-node (p2p.cpp,
// collectives.cpp) and cluster-wide (cluster.cpp) — so a sink decodes one
// encoding (event.hpp) whichever tier a call ran on.
#pragma once

#include <exception>

#include "obs/recorder.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::mpi::detail {

/// Instant p2p event of ctx.task_id() (send initiated / receive
/// completed) with its peer task and matching key, plus its counter.
inline void record_p2p(obs::Recorder* obs, obs::EventKind kind,
                       const ult::TaskContext& ctx, int peer, int context,
                       int tag) {
  if (obs == nullptr) return;
  obs->count(ctx.task_id(), kind == obs::EventKind::p2p_send
                                ? obs::Counter::p2p_sends
                                : obs::Counter::p2p_recvs);
  const std::uint64_t now = obs->now();
  obs->record({.kind = kind, .task = ctx.task_id(), .cpu = ctx.cpu(),
               .t0 = now, .t1 = now, .arg = peer,
               .arg2 = obs::sync_key(context, tag)});
}

/// RAII span for one collective call: bumps coll_ops on entry, records a
/// `collective` event (event.hpp) covering the whole call on destruction;
/// a call unwinding an exception records flag = false. Composite
/// collectives nest their phases' spans inside their own. set_alg names
/// the algorithm that served the call (default p2p).
class CollScope {
 public:
  CollScope(obs::Recorder* obs, obs::CollOp op, const ult::TaskContext& ctx,
            std::int64_t bytes, std::int64_t key, int peer)
      : obs_(obs), unwinding_(std::uncaught_exceptions()) {
    if (obs_ == nullptr) return;
    obs_->count(ctx.task_id(), obs::Counter::coll_ops);
    e_ = {.kind = obs::EventKind::collective, .task = ctx.task_id(),
          .cpu = ctx.cpu(), .instance = peer, .t0 = obs_->now(),
          .arg = obs::coll_event_arg(op, obs::CollAlg::p2p, bytes),
          .arg2 = key};
  }
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;
  ~CollScope() {
    if (obs_ == nullptr) return;
    e_.flag = std::uncaught_exceptions() == unwinding_;
    e_.t1 = obs_->now();
    obs_->record(e_);
  }

  void set_alg(obs::CollAlg alg) {
    if (obs_ == nullptr) return;
    e_.arg = obs::coll_event_arg(obs::coll_op_of(e_.arg), alg,
                                 obs::coll_bytes_of(e_.arg));
    if (alg == obs::CollAlg::p2p) return;
    obs_->count(e_.task, obs::Counter::coll_shm_ops);
    if (alg == obs::CollAlg::shm_pipelined) {
      obs_->count(e_.task, obs::Counter::coll_shm_pipelined_ops);
    }
  }

 private:
  obs::Recorder* obs_;
  int unwinding_;
  obs::Event e_;
};

}  // namespace hlsmpc::mpi::detail
