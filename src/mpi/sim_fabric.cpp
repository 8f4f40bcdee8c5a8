#include "mpi/sim_fabric.hpp"

#include <cstring>
#include <optional>
#include <string>

#include "fault/injector.hpp"
#include "obs/recorder.hpp"

namespace hlsmpc::mpi {

namespace {

bool posted_matches(const detail::PostedRecv& pr, int src_rank, int tag,
                    int context) {
  return pr.context == context &&
         (pr.src == kAnySource || pr.src == src_rank) &&
         (pr.tag == kAnyTag || pr.tag == tag);
}

}  // namespace

SimFabricTransport::SimFabricTransport(Options opts) : opts_(opts) {
  if (opts_.ranks_per_node <= 0 || opts_.nranks <= 0 ||
      opts_.nranks % opts_.ranks_per_node != 0) {
    throw MpiError("SimFabricTransport: nranks must be a positive multiple "
                   "of ranks_per_node");
  }
  nnodes_ = opts_.nranks / opts_.ranks_per_node;
  mailboxes_.reserve(static_cast<std::size_t>(opts_.nranks));
  for (int i = 0; i < opts_.nranks; ++i) {
    mailboxes_.push_back(std::make_unique<detail::Mailbox>());
  }
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(nnodes_));
  for (int n = 0; n < nnodes_; ++n) dead_[n].store(false);
}

detail::Mailbox& SimFabricTransport::mailbox(int ep, const char* what) {
  if (ep < 0 || ep >= nendpoints()) {
    throw MpiError(std::string(what) + ": bad endpoint " +
                   std::to_string(ep));
  }
  return *mailboxes_[static_cast<std::size_t>(ep)];
}

void SimFabricTransport::throw_node_dead(int node, const char* what) const {
  throw NodeDeadError(node, std::string(what) + ": node " +
                                std::to_string(node) + " unreachable");
}

void SimFabricTransport::ride_out_flaps(ult::TaskContext& ctx, int node,
                                        int site_index, const char* what) {
  // Built at the first flap of the op: an op that sees none draws no
  // burst epoch. Seed from (task, endpoint site, burst epoch) so peers
  // riding out the same flapping node jitter independently instead of
  // stampeding in lockstep (retry.hpp).
  std::optional<RetryBackoff> backoff;
  for (int attempt = 1; fault::should_fail("fabric:flap", site_index);
       ++attempt) {
    stats_.link_flaps.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= opts_.retry.max_attempts) {
      // Transient budget exhausted: reclassify as persistent. The fabric
      // itself does NOT poison — that escalation (kill_node) belongs to
      // cluster supervision, which knows whether the op was vital.
      throw TransportError(
          hlsmpc::ErrorCode::transport_exhausted,
          std::string(what) + ": link of node " + std::to_string(node) +
              " still failing after " + std::to_string(attempt) +
              " attempts — transient retry budget exhausted");
    }
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    if (opts_.obs != nullptr) {
      opts_.obs->count(ctx.task_id(), obs::Counter::net_retries);
    }
    if (!backoff) {
      backoff.emplace(opts_.retry,
                      jitter_seed(ctx.task_id(), site_index,
                                  flap_epoch_.fetch_add(
                                      1, std::memory_order_relaxed)));
    }
    backoff->wait(ctx, attempt);
  }
}

Request SimFabricTransport::isend(ult::TaskContext& ctx, int src, int dst_ep,
                                  int dst, const void* buf, std::size_t bytes,
                                  int tag, int context) {
  // Schedule edge first, with no locks held: the explorer may suspend us
  // here and run the receiver (or the node-killer) before the message
  // exists.
  ctx.sync_point("fabric:send");
  detail::Mailbox& mb = mailbox(dst_ep, "fabric send");
  if (src < 0 || src >= nendpoints()) {
    throw MpiError("fabric send: bad source endpoint " + std::to_string(src));
  }
  ride_out_flaps(ctx, node_of(dst_ep), dst_ep, "fabric send");
  if (fault::should_fail("fabric:send", dst_ep)) {
    throw TransportError(hlsmpc::ErrorCode::transport_exhausted,
                         "fabric send: injected link failure towards node " +
                             std::to_string(node_of(dst_ep)));
  }
  stats_.messages.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  auto req = std::make_shared<RequestState>();

  std::unique_lock<std::mutex> lk(mb.mu);
  // A node death poisons ordinary traffic so every surviving rank learns
  // the poison node's name instead of deadlocking on a peer that will
  // never answer. Checked UNDER the mailbox lock: kill_node publishes the
  // flags before sweeping each mailbox, so a check inside the lock either
  // sees them or enqueues before the sweep reaches this mailbox — never
  // neither. Recovery traffic bypasses the episode poison (the shrink
  // agreement must run over the poisoned fabric) but never the per-node
  // flags below.
  if (context != kRecoveryContext) {
    if (const int p = poisoned_node(); p >= 0) {
      lk.unlock();
      throw_node_dead(p, "fabric send");
    }
  }
  // Per-node dead flags outlive heal(): traffic to or from a dead node
  // always fails, naming that node (a send cannot reach a dead NIC; a
  // rank whose own node was declared dead must learn the verdict).
  if (node_dead(node_of(dst_ep))) {
    lk.unlock();
    throw_node_dead(node_of(dst_ep), "fabric send");
  }
  if (node_dead(node_of(src))) {
    lk.unlock();
    throw_node_dead(node_of(src), "fabric send");
  }
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
    // A fabric always moves the bytes — no same-address elision (the
    // buffers live on different nodes in the model, even when the
    // simulation colocates them).
    if (bytes > 0 && pr.buf != buf) std::memcpy(pr.buf, buf, bytes);
    pr.req->complete(Status{src, tag, bytes});
    req->complete(Status{dst, tag, bytes});
    return Request(req);
  }

  if ((opts_.limits.max_unexpected_msgs != 0 &&
       mb.unexpected.size() >= opts_.limits.max_unexpected_msgs) ||
      (opts_.limits.max_unexpected_bytes != 0 &&
       mb.unexpected_bytes + bytes > opts_.limits.max_unexpected_bytes)) {
    throw TransportError(hlsmpc::ErrorCode::transport_exhausted,
                         "fabric send: unexpected-message queue of endpoint " +
                             std::to_string(dst_ep) + " full");
  }

  // Always-eager: capture the payload into an owned buffer ("on the
  // wire") and complete the send immediately.
  detail::UnexpectedMsg msg;
  msg.src = src;
  msg.tag = tag;
  msg.context = context;
  msg.bytes = bytes;
  msg.owned.assign(static_cast<const std::byte*>(buf),
                   static_cast<const std::byte*>(buf) + bytes);
  msg.has_owned = true;
  mb.unexpected.push_back(std::move(msg));
  mb.unexpected_bytes += bytes;
  lk.unlock();
  stats_.eager_sends.fetch_add(1, std::memory_order_relaxed);
  req->complete(Status{dst, tag, bytes});
  return Request(req);
}

Request SimFabricTransport::irecv(ult::TaskContext& ctx, int me_ep, void* buf,
                                  std::size_t capacity, int src, int tag,
                                  int context) {
  ctx.sync_point("fabric:recv");
  detail::Mailbox& mb = mailbox(me_ep, "fabric recv");
  ride_out_flaps(ctx, node_of(me_ep), me_ep, "fabric recv");
  if (fault::should_fail("fabric:recv", me_ep)) {
    throw TransportError(hlsmpc::ErrorCode::transport_exhausted,
                         "fabric recv: injected link failure at endpoint " +
                             std::to_string(me_ep));
  }
  auto req = std::make_shared<RequestState>();
  req->trace_context = context;

  std::unique_lock<std::mutex> lk(mb.mu);
  // Under the lock, like isend: either this receive sees the flags here,
  // or it is in `posted` before kill_node's sweep locks this mailbox and
  // gets error-completed by it. A post-sweep orphan recv (the deadlock)
  // is impossible.
  if (context != kRecoveryContext) {
    if (const int p = poisoned_node(); p >= 0) {
      lk.unlock();
      throw_node_dead(p, "fabric recv");
    }
  }
  if (node_dead(node_of(me_ep))) {
    lk.unlock();
    throw_node_dead(node_of(me_ep), "fabric recv");
  }
  for (auto it = mb.unexpected.begin(); it != mb.unexpected.end(); ++it) {
    if (!it->matches(src, tag, context)) continue;
    detail::UnexpectedMsg msg = std::move(*it);
    mb.unexpected.erase(it);
    mb.unexpected_bytes -= msg.bytes;
    lk.unlock();
    if (msg.bytes > capacity) {
      req->complete_error("recv truncated: message of " +
                          std::to_string(msg.bytes) + " bytes into " +
                          std::to_string(capacity) + " byte buffer");
      return Request(req);
    }
    if (msg.bytes > 0) std::memcpy(buf, msg.data(), msg.bytes);
    req->complete(Status{msg.src, msg.tag, msg.bytes});
    return Request(req);
  }

  if (src != kAnySource && (src < 0 || src >= nendpoints())) {
    lk.unlock();
    throw MpiError("fabric recv: bad source endpoint " + std::to_string(src));
  }
  // Nothing queued from a dead source will ever arrive: refuse the post
  // (delivered bytes above are still served — they made it off the wire
  // before the death).
  if (src != kAnySource && node_dead(node_of(src))) {
    lk.unlock();
    throw_node_dead(node_of(src), "fabric recv");
  }
  mb.posted.push_back(
      detail::PostedRecv{buf, capacity, src, tag, context, req});
  return Request(req);
}

bool SimFabricTransport::iprobe(int me_ep, int src, int tag, int context,
                                Status* status) {
  detail::Mailbox& mb = mailbox(me_ep, "fabric iprobe");
  std::lock_guard<std::mutex> lk(mb.mu);
  for (const detail::UnexpectedMsg& msg : mb.unexpected) {
    if (msg.matches(src, tag, context)) {
      if (status != nullptr) *status = Status{msg.src, msg.tag, msg.bytes};
      return true;
    }
  }
  return false;
}

void SimFabricTransport::sweep_posted(int dead_node) {
  // Every ordinary posted receive is now doomed: either its sender is
  // dead, or its sender will hit the poison check and never transmit.
  // That includes receives posted at the DEAD node's own endpoints — all
  // ranks are hosted in this process, and a rank whose node was declared
  // dead (e.g. after an injected link failure, where the node's task is
  // in fact still running) must unblock and learn the verdict rather
  // than wait forever. Recovery-context receives between LIVE nodes stay
  // posted: their senders bypass the poison, the bytes will still come —
  // sweeping them would wipe the shrink agreement's protocol state on
  // every secondary death. Only recovery receives whose source node is
  // now dead complete, with an error naming THAT node so the agreement
  // learns exactly which peer to exclude.
  const int poison = poisoned_node() >= 0 ? poisoned_node() : dead_node;
  for (int ep = 0; ep < nendpoints(); ++ep) {
    detail::Mailbox& mb = *mailboxes_[static_cast<std::size_t>(ep)];
    std::deque<detail::PostedRecv> doomed;
    {
      std::lock_guard<std::mutex> lk(mb.mu);
      for (auto it = mb.posted.begin(); it != mb.posted.end();) {
        const bool recovery = it->context == kRecoveryContext;
        const bool src_dead = it->src != kAnySource &&
                              node_dead(node_of(it->src));
        if (!recovery || src_dead) {
          doomed.push_back(*it);
          it = mb.posted.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (detail::PostedRecv& pr : doomed) {
      const int name = pr.context == kRecoveryContext && pr.src != kAnySource
                           ? node_of(pr.src)
                           : poison;
      pr.req->complete_error(
          "fabric recv: node " + std::to_string(name) + " unreachable",
          name);
    }
  }
}

void SimFabricTransport::kill_node(int node) {
  if (node < 0 || node >= nnodes_) {
    throw MpiError("kill_node: bad node " + std::to_string(node));
  }
  bool expected = false;
  const bool newly_dead =
      dead_[static_cast<std::size_t>(node)].compare_exchange_strong(
          expected, true, std::memory_order_acq_rel);
  int want = -1;
  first_dead_.compare_exchange_strong(want, node,
                                      std::memory_order_acq_rel);
  want = -1;
  const bool newly_poisoned = poison_.compare_exchange_strong(
      want, node, std::memory_order_acq_rel);
  // Sweep on a fresh death (unblock its pending peers) and on a
  // re-poison after heal (a survivor touched a node that died in an
  // earlier episode: receives posted since the heal must unblock too).
  // An already-dead, already-poisoned node needs neither — the episode
  // that set the poison swept.
  if (newly_dead || newly_poisoned) sweep_posted(node);
}

void SimFabricTransport::heal(std::uint64_t agreed_dead_mask) {
  int p = poison_.load(std::memory_order_acquire);
  while (p >= 0 && p < 64 && ((agreed_dead_mask >> p) & 1u) != 0) {
    if (poison_.compare_exchange_weak(p, -1, std::memory_order_acq_rel)) {
      return;
    }
    // CAS failure reloaded p: a concurrent death re-poisoned with a node
    // the agreement may not cover — loop re-checks the mask.
  }
}

void SimFabricTransport::revive_node(int node) {
  if (node < 0 || node >= nnodes_) {
    throw MpiError("revive_node: bad node " + std::to_string(node));
  }
  // Quiescent by contract (between SimCluster::run()s): plain stores.
  dead_[static_cast<std::size_t>(node)].store(false,
                                              std::memory_order_release);
  const int lo = node * opts_.ranks_per_node;
  for (int ep = lo; ep < lo + opts_.ranks_per_node; ++ep) {
    detail::Mailbox& mb = *mailboxes_[static_cast<std::size_t>(ep)];
    std::lock_guard<std::mutex> lk(mb.mu);
    mb.unexpected.clear();
    mb.unexpected_bytes = 0;
    mb.posted.clear();
  }
  int p = node;
  poison_.compare_exchange_strong(p, -1, std::memory_order_acq_rel);
  // first_dead_ names the first node of the *current* dead set; with this
  // node readmitted, recompute (or clear) it.
  int first = -1;
  for (int n = 0; n < nnodes_; ++n) {
    if (node_dead(n)) {
      first = n;
      break;
    }
  }
  first_dead_.store(first, std::memory_order_release);
}

}  // namespace hlsmpc::mpi
