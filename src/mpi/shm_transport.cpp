#include "mpi/shm_transport.hpp"

#include <cstring>
#include <string>

#include "fault/injector.hpp"

namespace hlsmpc::mpi {

namespace {

/// Copy that skips the memcpy when source and destination alias — the
/// intra-node optimisation the paper exploits for Tachyon's shared image
/// (§V.B.3): "if the source and the destination are identical ... this
/// copy is not realized".
void copy_payload(void* dst, const void* src, std::size_t bytes,
                  TransportStats& stats) {
  if (bytes == 0) return;
  if (dst == src) {
    stats.copies_elided.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::memcpy(dst, src, bytes);
}

bool posted_matches(const detail::PostedRecv& pr, int src_rank, int tag,
                    int context) {
  return pr.context == context &&
         (pr.src == kAnySource || pr.src == src_rank) &&
         (pr.tag == kAnyTag || pr.tag == tag);
}

}  // namespace

ShmTransport::ShmTransport(int nendpoints, BufferManager& buffers,
                           TransportLimits limits)
    : buffers_(buffers), limits_(limits) {
  mailboxes_.reserve(static_cast<std::size_t>(nendpoints));
  for (int i = 0; i < nendpoints; ++i) {
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  }
}

detail::Mailbox& ShmTransport::mailbox(int ep, const char* what) {
  if (ep < 0 || ep >= nendpoints()) {
    throw MpiError(std::string(what) + ": bad endpoint " +
                   std::to_string(ep));
  }
  return *mailboxes_[static_cast<std::size_t>(ep)];
}

void ShmTransport::ride_out_flaps(ult::TaskContext& ctx, int ep,
                                  const char* what) {
  if (!fault::should_fail("shm:flap", ep)) return;
  // A burst. Seed from (task, endpoint, burst epoch): two tasks riding out
  // the same flapping endpoint — or one task across two bursts — must
  // take decorrelated jitter, not retry in lockstep (retry.hpp). An op
  // that sees no flap draws no epoch.
  RetryBackoff backoff(
      retry_, jitter_seed(ctx.task_id(), ep,
                          flap_epoch_.fetch_add(1, std::memory_order_relaxed)));
  for (int attempt = 1;; ++attempt) {
    stats_.link_flaps.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= retry_.max_attempts) {
      throw TransportError(
          hlsmpc::ErrorCode::transport_exhausted,
          std::string(what) + ": endpoint " + std::to_string(ep) +
              " still failing after " + std::to_string(attempt) +
              " attempts — transient retry budget exhausted");
    }
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    backoff.wait(ctx, attempt);
    if (!fault::should_fail("shm:flap", ep)) return;
  }
}

Request ShmTransport::isend(ult::TaskContext& ctx, int src, int dst_ep,
                            int dst, const void* buf, std::size_t bytes,
                            int tag, int context) {
  ride_out_flaps(ctx, dst_ep, "send");
  stats_.messages.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  detail::Mailbox& mb = mailbox(dst_ep, "send");
  auto req = std::make_shared<RequestState>();

  std::unique_lock<std::mutex> lk(mb.mu);
  // Fast path: a matching receive is already posted — copy straight into
  // the user buffer (this is what makes thread-based intra-node MPI fast).
  for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
    if (!posted_matches(*it, src, tag, context)) continue;
    detail::PostedRecv pr = *it;
    mb.posted.erase(it);
    lk.unlock();
    if (bytes > pr.capacity) {
      pr.req->complete_error("recv truncated: message of " +
                             std::to_string(bytes) + " bytes into " +
                             std::to_string(pr.capacity) + " byte buffer");
      req->complete_error("send: matching receive buffer too small");
      return Request(req);
    }
    copy_payload(pr.buf, buf, bytes, stats_);
    pr.req->complete(Status{src, tag, bytes});
    req->complete(Status{dst, tag, bytes});
    return Request(req);
  }

  // Capacity check before enqueuing anything: exhaustion is clean
  // degradation (transport.hpp), nothing is mutated past this point.
  if ((limits_.max_unexpected_msgs != 0 &&
       mb.unexpected.size() >= limits_.max_unexpected_msgs) ||
      (limits_.max_unexpected_bytes != 0 &&
       mb.unexpected_bytes + bytes > limits_.max_unexpected_bytes)) {
    throw TransportError(hlsmpc::ErrorCode::transport_exhausted,
                         "send: unexpected-message queue of endpoint " +
                             std::to_string(dst_ep) + " full");
  }

  if (bytes <= buffers_.eager_threshold()) {
    // Eager: copy into a leased buffer; the send completes immediately
    // (buffered-send semantics, like any eager protocol).
    detail::UnexpectedMsg msg;
    msg.src = src;
    msg.tag = tag;
    msg.context = context;
    msg.bytes = bytes;
    msg.payload = buffers_.acquire(bytes);
    if (bytes > 0) std::memcpy(msg.payload.data(), buf, bytes);
    mb.unexpected.push_back(std::move(msg));
    mb.unexpected_bytes += bytes;
    lk.unlock();
    stats_.eager_sends.fetch_add(1, std::memory_order_relaxed);
    req->complete(Status{dst, tag, bytes});
    return Request(req);
  }

  // Rendezvous: leave a descriptor pointing at the caller's buffer; the
  // receiver copies and only then completes this request, so the caller's
  // buffer stays live while the message is in flight.
  detail::UnexpectedMsg msg;
  msg.src = src;
  msg.tag = tag;
  msg.context = context;
  msg.bytes = bytes;
  msg.rdv_src = buf;
  msg.sender_req = req;
  mb.unexpected.push_back(std::move(msg));
  lk.unlock();
  stats_.rendezvous_sends.fetch_add(1, std::memory_order_relaxed);
  return Request(req);
}

Request ShmTransport::irecv(ult::TaskContext& ctx, int me_ep, void* buf,
                            std::size_t capacity, int src, int tag,
                            int context) {
  ride_out_flaps(ctx, me_ep, "recv");
  detail::Mailbox& mb = mailbox(me_ep, "recv");
  auto req = std::make_shared<RequestState>();
  req->trace_context = context;

  std::unique_lock<std::mutex> lk(mb.mu);
  for (auto it = mb.unexpected.begin(); it != mb.unexpected.end(); ++it) {
    if (!it->matches(src, tag, context)) continue;
    detail::UnexpectedMsg msg = std::move(*it);
    mb.unexpected.erase(it);
    if (!msg.is_rendezvous()) mb.unexpected_bytes -= msg.bytes;
    lk.unlock();
    if (msg.bytes > capacity) {
      if (msg.is_rendezvous()) {
        msg.sender_req->complete_error("send: receive buffer too small");
      }
      req->complete_error("recv truncated: message of " +
                          std::to_string(msg.bytes) + " bytes into " +
                          std::to_string(capacity) + " byte buffer");
      return Request(req);
    }
    if (msg.is_rendezvous()) {
      copy_payload(buf, msg.rdv_src, msg.bytes, stats_);
      msg.sender_req->complete(Status{/*source=*/-1, msg.tag, msg.bytes});
    } else {
      // Note: no same-address elision here. An eager send completes
      // immediately, so by match time the sender's buffer may be freed
      // and its address legitimately reused — only the payload copy is
      // trustworthy. Same-address elision applies on the synchronous
      // paths (posted-receive match and rendezvous), where the sender's
      // buffer is still live.
      copy_payload(buf, msg.data(), msg.bytes, stats_);
    }
    req->complete(Status{msg.src, msg.tag, msg.bytes});
    return Request(req);
  }

  mb.posted.push_back(
      detail::PostedRecv{buf, capacity, src, tag, context, req});
  return Request(req);
}

void ShmTransport::drain() {
  for (auto& mbp : mailboxes_) {
    detail::Mailbox& mb = *mbp;
    std::deque<detail::UnexpectedMsg> unexpected;
    std::deque<detail::PostedRecv> posted;
    {
      std::lock_guard<std::mutex> lk(mb.mu);
      unexpected.swap(mb.unexpected);
      posted.swap(mb.posted);
      mb.unexpected_bytes = 0;
    }
    for (detail::PostedRecv& pr : posted) {
      pr.req->complete_error("recv: transport drained for recovery");
    }
    for (detail::UnexpectedMsg& msg : unexpected) {
      if (msg.is_rendezvous()) {
        msg.sender_req->complete_error("send: transport drained for recovery");
      }
    }
  }
}

bool ShmTransport::iprobe(int me_ep, int src, int tag, int context,
                          Status* status) {
  detail::Mailbox& mb = mailbox(me_ep, "iprobe");
  std::lock_guard<std::mutex> lk(mb.mu);
  for (const detail::UnexpectedMsg& msg : mb.unexpected) {
    if (msg.matches(src, tag, context)) {
      if (status != nullptr) *status = Status{msg.src, msg.tag, msg.bytes};
      return true;
    }
  }
  return false;
}

}  // namespace hlsmpc::mpi
