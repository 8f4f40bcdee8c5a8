// Point-to-point layer: MPI semantics over the Transport abstraction.
//
// Comm validates arguments, stamps rank labels, and records the p2p obs
// events; the actual matching and byte movement happen inside the
// runtime's Transport (shm_transport.cpp for the intra-node engine).
#include "mpi/comm.hpp"
#include "mpi/detail/obs_events.hpp"
#include "mpi/runtime.hpp"

namespace hlsmpc::mpi {

Request Comm::isend_ctx(ult::TaskContext& ctx, const void* buf,
                        std::size_t bytes, int dst, int tag, int context) {
  check_rank(dst, "send");
  const int me = rank(ctx);
  detail::record_p2p(rt_->obs(), obs::EventKind::p2p_send, ctx,
                     global_task(dst), context, tag);
  // The message is stamped with the sender's comm-local rank (matching is
  // per communicator via the context id); the endpoint is the
  // destination's node-local task id, which indexes the shm mailboxes.
  return rt_->transport().isend(ctx, me, global_task(dst), dst, buf, bytes,
                                tag, context);
}

Request Comm::irecv_ctx(ult::TaskContext& ctx, void* buf,
                        std::size_t capacity, int src, int tag, int context) {
  if (src != kAnySource) check_rank(src, "recv");
  return rt_->transport().irecv(ctx, ctx.task_id(), buf, capacity, src, tag,
                                context);
}

Request Comm::isend(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
                    int dst, int tag) {
  check_tag(tag);
  return isend_ctx(ctx, buf, bytes, dst, tag, pt2pt_context_);
}

Request Comm::irecv(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                    int src, int tag) {
  if (tag != kAnyTag) check_tag(tag);
  return irecv_ctx(ctx, buf, capacity, src, tag, pt2pt_context_);
}

void Comm::wait(ult::TaskContext& ctx, Request& req, Status* status) {
  auto st = req.state();
  if (!st) throw MpiError("wait: invalid request");
  await_request(ctx, *st, std::chrono::steady_clock::time_point::max(),
                rt_->obs());
  if (!st->error.empty()) throw MpiError(st->error);
  if (status != nullptr) *status = st->status;
  if (st->trace_context >= 0 && st->status.source >= 0) {
    detail::record_p2p(rt_->obs(), obs::EventKind::p2p_recv, ctx,
                       global_task(st->status.source), st->trace_context,
                       st->status.tag);
  }
  req.state().reset();
}

void Comm::waitall(ult::TaskContext& ctx, std::span<Request> reqs) {
  // Waiting in order is correct: completion is monotone and every wait
  // blocks cooperatively.
  for (Request& r : reqs) {
    if (r.valid()) wait(ctx, r);
  }
}

int Comm::waitany(ult::TaskContext& ctx, std::span<Request> reqs,
                  Status* status) {
  bool any_valid = false;
  for (const Request& r : reqs) any_valid |= r.valid();
  if (!any_valid) throw MpiError("waitany: no active requests");
  while (true) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].valid() &&
          reqs[i].state()->done.load(std::memory_order_acquire)) {
        // wait() returns at once; it rethrows and traces.
        wait(ctx, reqs[i], status);
        return static_cast<int>(i);
      }
    }
    ctx.yield();
  }
}

bool Comm::test(Request& req, Status* status) {
  const auto& st = req.state();
  if (!st) throw MpiError("test: invalid request");
  if (!st->done.load(std::memory_order_acquire)) return false;
  if (!st->error.empty()) throw MpiError(st->error);
  if (status != nullptr) *status = st->status;
  return true;
}

void Comm::send(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
                int dst, int tag) {
  check_tag(tag);
  send_ctx(ctx, buf, bytes, dst, tag, pt2pt_context_);
}

void Comm::send_ctx(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
                    int dst, int tag, int context) {
  Request req = isend_ctx(ctx, buf, bytes, dst, tag, context);
  wait(ctx, req);
}

void Comm::recv(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                int src, int tag, Status* status) {
  if (tag != kAnyTag) check_tag(tag);
  recv_ctx(ctx, buf, capacity, src, tag, pt2pt_context_, status);
}

void Comm::recv_ctx(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                    int src, int tag, int context, Status* status) {
  Request req = irecv_ctx(ctx, buf, capacity, src, tag, context);
  wait(ctx, req, status);
}

bool Comm::iprobe(ult::TaskContext& ctx, int src, int tag, Status* status) {
  if (src != kAnySource) check_rank(src, "iprobe");
  return rt_->transport().iprobe(ctx.task_id(), src, tag, pt2pt_context_,
                                 status);
}

void Comm::probe(ult::TaskContext& ctx, int src, int tag, Status* status) {
  while (!iprobe(ctx, src, tag, status)) ctx.yield();
}

void Comm::sendrecv(ult::TaskContext& ctx, const void* sendbuf,
                    std::size_t send_bytes, int dst, int sendtag,
                    void* recvbuf, std::size_t recv_capacity, int src,
                    int recvtag, Status* status) {
  // Post both sides before waiting: the MPI-mandated deadlock-free shape.
  Request r = irecv(ctx, recvbuf, recv_capacity, src, recvtag);
  Request s = isend(ctx, sendbuf, send_bytes, dst, sendtag);
  wait(ctx, s);
  wait(ctx, r, status);
}

}  // namespace hlsmpc::mpi
