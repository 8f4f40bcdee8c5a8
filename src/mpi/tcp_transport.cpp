#include "mpi/tcp_transport.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace hlsmpc::mpi {

namespace {

// 20-byte little-endian frame header. Serialized field by field: a packed
// struct would work on every platform we build on, but explicit
// serialization keeps the wire format independent of ABI padding rules.
constexpr std::size_t kHeaderBytes = 20;

void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

void encode_header(std::byte* p, int src, int tag, int context,
                   std::uint64_t bytes) {
  put_u32(p, static_cast<std::uint32_t>(src));
  put_u32(p + 4, static_cast<std::uint32_t>(tag));
  put_u32(p + 8, static_cast<std::uint32_t>(context));
  put_u32(p + 12, static_cast<std::uint32_t>(bytes & 0xffffffffu));
  put_u32(p + 16, static_cast<std::uint32_t>(bytes >> 32));
}

/// Remaining milliseconds until `deadline`, for poll(); negative
/// deadline_ms disables the deadline entirely (-1 = poll forever).
int remaining_ms(std::chrono::steady_clock::time_point deadline,
                 bool bounded) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Wait until `fd` is ready for `events` (POLLIN/POLLOUT) or the deadline
/// passes. True = ready; false = timed out or socket error.
bool wait_ready(int fd, short events,
                std::chrono::steady_clock::time_point deadline,
                bool bounded) {
  for (;;) {
    pollfd pf{fd, events, 0};
    const int left = remaining_ms(deadline, bounded);
    if (bounded && left == 0) return false;
    const int rc = ::poll(&pf, 1, left);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;  // deadline expired: peer too slow = dead
    if ((pf.revents & (POLLERR | POLLNVAL)) != 0) return false;
    return true;
  }
}

/// Write all of buf to a stream socket, riding out the transient band —
/// EINTR (signal storms), EAGAIN/EWOULDBLOCK (full socket buffer: poll
/// for writability) and partial writes — up to `deadline`. Each re-issue
/// after a transient failure bumps stats.retries, so signal/backpressure
/// churn is observable. MSG_NOSIGNAL: a dead peer must surface as EPIPE,
/// not a process-killing SIGPIPE.
bool full_send(int fd, const void* buf, std::size_t bytes,
               std::chrono::steady_clock::time_point deadline, bool bounded,
               TransportStats& stats) {
  const char* p = static_cast<const char*>(buf);
  const std::size_t total = bytes;
  while (bytes > 0) {
    const ssize_t n = ::send(fd, p, bytes, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        stats.retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        stats.retries.fetch_add(1, std::memory_order_relaxed);
        if (!wait_ready(fd, POLLOUT, deadline, bounded)) return false;
        continue;
      }
      return false;
    }
    if (static_cast<std::size_t>(n) < bytes && bytes < total) {
      // A short write past the first chunk means the kernel buffer filled
      // mid-frame: a re-issue, not normal chunking of the first call.
      stats.retries.fetch_add(1, std::memory_order_relaxed);
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `bytes`, riding out EINTR/EAGAIN like full_send. False on
/// EOF, error or deadline (all mean: peer gone).
bool full_recv(int fd, void* buf, std::size_t bytes,
               std::chrono::steady_clock::time_point deadline, bool bounded,
               TransportStats& stats) {
  char* p = static_cast<char*>(buf);
  while (bytes > 0) {
    const ssize_t n = ::recv(fd, p, bytes, 0);
    if (n < 0 && errno == EINTR) {
      stats.retries.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      stats.retries.fetch_add(1, std::memory_order_relaxed);
      if (!wait_ready(fd, POLLIN, deadline, bounded)) return false;
      continue;
    }
    if (n <= 0) return false;
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return true;
}

bool unexpected_matches_posted(const detail::PostedRecv& pr, int src,
                               int tag, int context) {
  return pr.context == context &&
         (pr.src == kAnySource || pr.src == src) &&
         (pr.tag == kAnyTag || pr.tag == tag);
}

}  // namespace

TcpTransport::TcpTransport(Options opts) : opts_(std::move(opts)) {
  if (opts_.nendpoints <= 0 || opts_.me < 0 ||
      opts_.me >= opts_.nendpoints ||
      opts_.fds.size() != static_cast<std::size_t>(opts_.nendpoints)) {
    throw MpiError("TcpTransport: inconsistent mesh options");
  }
  peers_.reserve(opts_.fds.size());
  for (int fd : opts_.fds) {
    auto p = std::make_unique<Peer>();
    p->fd = fd;
    peers_.push_back(std::move(p));
  }
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(opts_.nendpoints));
  for (int n = 0; n < opts_.nendpoints; ++n) dead_[n].store(false);
  if (::pipe(wake_pipe_) != 0) {
    throw MpiError("TcpTransport: wake pipe creation failed");
  }
  receiver_ = std::thread([this] {
    const ult::ThreadCensus census(1);
    receiver_loop();
  });
}

TcpTransport::~TcpTransport() {
  stop_.store(true, std::memory_order_release);
  const char w = 'x';
  (void)!::write(wake_pipe_[1], &w, 1);
  if (receiver_.joinable()) receiver_.join();
  for (std::size_t n = 0; n < peers_.size(); ++n) {
    if (static_cast<int>(n) != opts_.me && peers_[n]->fd >= 0) {
      ::close(peers_[n]->fd);
    }
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void TcpTransport::check_poisoned(const char* what) const {
  const int d = poisoned_node();
  if (d >= 0) {
    throw NodeDeadError(d, std::string(what) + ": node " +
                               std::to_string(d) + " unreachable");
  }
}

void TcpTransport::mark_dead(int node) {
  bool expected = false;
  const bool newly_dead =
      dead_[static_cast<std::size_t>(node)].compare_exchange_strong(
          expected, true, std::memory_order_acq_rel);
  int want = -1;
  first_dead_.compare_exchange_strong(want, node, std::memory_order_acq_rel);
  want = -1;
  const bool newly_poisoned = poison_.compare_exchange_strong(
      want, node, std::memory_order_acq_rel);
  if (!newly_dead && !newly_poisoned) return;
  const int p = poisoned_node() >= 0 ? poisoned_node() : node;

  // Same containment model as the simulated fabric: a node death poisons
  // the transport and blocked receives unblock with the poisoning node's
  // name instead of waiting on a peer that will never answer. Recovery-
  // context receives (src labels are NODE ids by contract) are spared
  // while their source node lives: their senders bypass the poison and
  // will still deliver, and sweeping them would wipe the shrink
  // agreement's protocol state on every secondary death.
  std::deque<detail::PostedRecv> doomed;
  {
    std::lock_guard<std::mutex> lk(inbox_.mu);
    for (auto it = inbox_.posted.begin(); it != inbox_.posted.end();) {
      const bool recovery = it->context == kRecoveryContext;
      const bool src_dead =
          it->src != kAnySource && it->src >= 0 &&
          it->src < opts_.nendpoints && node_dead(it->src);
      if (!recovery || src_dead) {
        doomed.push_back(*it);
        it = inbox_.posted.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (detail::PostedRecv& pr : doomed) {
    const int name =
        pr.context == kRecoveryContext && pr.src != kAnySource ? pr.src : p;
    pr.req->complete_error(
        "tcp recv: node " + std::to_string(name) + " unreachable", name);
  }
}

void TcpTransport::declare_dead(int node) {
  if (node < 0 || node >= opts_.nendpoints) {
    throw MpiError("tcp declare_dead: bad node " + std::to_string(node));
  }
  mark_dead(node);
}

void TcpTransport::heal(std::uint64_t agreed_dead_mask) {
  int p = poison_.load(std::memory_order_acquire);
  while (p >= 0 && p < 64 && ((agreed_dead_mask >> p) & 1u) != 0) {
    if (poison_.compare_exchange_weak(p, -1, std::memory_order_acq_rel)) {
      return;
    }
  }
}

bool TcpTransport::deliver(int src_label, int tag, int context,
                           std::vector<std::byte> payload) {
  const std::size_t bytes = payload.size();
  std::unique_lock<std::mutex> lk(inbox_.mu);
  for (auto it = inbox_.posted.begin(); it != inbox_.posted.end(); ++it) {
    if (!unexpected_matches_posted(*it, src_label, tag, context)) continue;
    detail::PostedRecv pr = *it;
    inbox_.posted.erase(it);
    lk.unlock();
    if (bytes > pr.capacity) {
      pr.req->complete_error("recv truncated: message of " +
                             std::to_string(bytes) + " bytes into " +
                             std::to_string(pr.capacity) + " byte buffer");
      return true;
    }
    if (bytes > 0) std::memcpy(pr.buf, payload.data(), bytes);
    pr.req->complete(Status{src_label, tag, bytes});
    return true;
  }
  if ((opts_.limits.max_unexpected_msgs != 0 &&
       inbox_.unexpected.size() >= opts_.limits.max_unexpected_msgs) ||
      (opts_.limits.max_unexpected_bytes != 0 &&
       inbox_.unexpected_bytes + bytes > opts_.limits.max_unexpected_bytes)) {
    return false;
  }
  detail::UnexpectedMsg msg;
  msg.src = src_label;
  msg.tag = tag;
  msg.context = context;
  msg.bytes = bytes;
  msg.owned = std::move(payload);
  msg.has_owned = true;
  inbox_.unexpected.push_back(std::move(msg));
  inbox_.unexpected_bytes += bytes;
  return true;
}

void TcpTransport::receiver_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<int> nodes;
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (int n = 0; n < opts_.nendpoints; ++n) {
      if (n == opts_.me || node_dead(n) || peers_[n]->fd < 0) continue;
      fds.push_back(pollfd{peers_[n]->fd, POLLIN, 0});
      nodes.push_back(n);
    }
    if (fds.size() == 1 && nodes.empty()) return;  // nothing left to watch
    const int rc = ::poll(fds.data(), fds.size(), /*timeout_ms=*/-1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[0].revents & POLLIN) != 0) return;  // destructor wake-up
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int node = nodes[i - 1];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool bounded = opts_.io_deadline_ms > 0;
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(bounded ? opts_.io_deadline_ms : 0);
      std::byte header[kHeaderBytes];
      if (!full_recv(fds[i].fd, header, kHeaderBytes, deadline, bounded,
                     stats_)) {
        mark_dead(node);  // EOF/reset: the peer process or host is gone
        continue;
      }
      const int src = static_cast<int>(get_u32(header));
      const int tag = static_cast<int>(get_u32(header + 4));
      const int context = static_cast<int>(get_u32(header + 8));
      const std::uint64_t bytes =
          get_u32(header + 12) |
          (static_cast<std::uint64_t>(get_u32(header + 16)) << 32);
      std::vector<std::byte> payload(static_cast<std::size_t>(bytes));
      if (bytes > 0 && !full_recv(fds[i].fd, payload.data(), payload.size(),
                                  deadline, bounded, stats_)) {
        mark_dead(node);  // died mid-frame
        continue;
      }
      stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
      if (!deliver(src, tag, context, std::move(payload))) {
        // Bounded inbox overflow on inbound traffic: there is no sender
        // to refuse (the bytes already crossed the wire), so treat the
        // link as failed rather than drop silently.
        mark_dead(node);
      }
    }
  }
}

Request TcpTransport::isend(ult::TaskContext& ctx, int src, int dst_ep,
                            int dst, const void* buf, std::size_t bytes,
                            int tag, int context) {
  ctx.sync_point("tcp:send");
  if (dst_ep < 0 || dst_ep >= opts_.nendpoints) {
    throw MpiError("tcp send: bad endpoint " + std::to_string(dst_ep));
  }
  if (context != kRecoveryContext) check_poisoned("tcp send");
  if (node_dead(dst_ep)) {
    throw NodeDeadError(dst_ep, "tcp send: node " + std::to_string(dst_ep) +
                                    " unreachable");
  }
  stats_.messages.fetch_add(1, std::memory_order_relaxed);
  auto req = std::make_shared<RequestState>();

  if (dst_ep == opts_.me) {
    // Self-delivery stays in process; bounded-queue exhaustion is a
    // refusable send here, matching the other transports.
    std::vector<std::byte> payload(bytes);
    if (bytes > 0) std::memcpy(payload.data(), buf, bytes);
    if (!deliver(src, tag, context, std::move(payload))) {
      throw TransportError(hlsmpc::ErrorCode::transport_exhausted,
                           "tcp send: local unexpected queue full");
    }
    stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
    stats_.eager_sends.fetch_add(1, std::memory_order_relaxed);
    req->complete(Status{dst, tag, bytes});
    return Request(req);
  }

  Peer& peer = *peers_[static_cast<std::size_t>(dst_ep)];
  std::byte header[kHeaderBytes];
  encode_header(header, src, tag, context, bytes);
  const bool bounded = opts_.io_deadline_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(bounded ? opts_.io_deadline_ms : 0);
  bool ok;
  {
    std::lock_guard<std::mutex> lk(peer.send_mu);
    ok = full_send(peer.fd, header, kHeaderBytes, deadline, bounded,
                   stats_) &&
         (bytes == 0 ||
          full_send(peer.fd, buf, bytes, deadline, bounded, stats_));
  }
  if (!ok) {
    mark_dead(dst_ep);
    // Ordinary traffic reports the poisoning node (first-episode: the
    // first dead node, matching pre-recovery behaviour); recovery traffic
    // names the peer that actually failed so the agreement can suspect it.
    const int name =
        context == kRecoveryContext || poisoned_node() < 0 ? dst_ep
                                                           : poisoned_node();
    throw NodeDeadError(name, "tcp send: node " + std::to_string(name) +
                                  " unreachable");
  }
  stats_.bytes.fetch_add(bytes, std::memory_order_relaxed);
  stats_.eager_sends.fetch_add(1, std::memory_order_relaxed);
  req->complete(Status{dst, tag, bytes});
  return Request(req);
}

Request TcpTransport::irecv(ult::TaskContext& ctx, int me_ep, void* buf,
                            std::size_t capacity, int src, int tag,
                            int context) {
  ctx.sync_point("tcp:recv");
  if (me_ep != opts_.me) {
    throw MpiError("tcp recv: endpoint " + std::to_string(me_ep) +
                   " is not this process (me=" + std::to_string(opts_.me) +
                   ")");
  }
  auto req = std::make_shared<RequestState>();
  req->trace_context = context;

  std::unique_lock<std::mutex> lk(inbox_.mu);
  // Poison check under the inbox lock (same reasoning as the simulated
  // fabric): mark_dead publishes the flag before sweeping, so this recv
  // either sees it here or is swept. Recovery traffic bypasses the
  // episode poison but never the per-node dead flags (below).
  if (context != kRecoveryContext) {
    const int d = poisoned_node();
    if (d >= 0) {
      lk.unlock();
      throw NodeDeadError(d, "tcp recv: node " + std::to_string(d) +
                                 " unreachable");
    }
  }
  for (auto it = inbox_.unexpected.begin(); it != inbox_.unexpected.end();
       ++it) {
    if (!it->matches(src, tag, context)) continue;
    detail::UnexpectedMsg msg = std::move(*it);
    inbox_.unexpected.erase(it);
    inbox_.unexpected_bytes -= msg.bytes;
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
  // A recovery receive from a positively-dead node would wait forever:
  // refuse the post, naming the dead peer (already-delivered bytes are
  // still served above). Ordinary receives rely on the poison; their src
  // labels are RANK labels, not node ids, so no per-node check applies.
  if (context == kRecoveryContext && src != kAnySource && src >= 0 &&
      src < opts_.nendpoints && node_dead(src)) {
    lk.unlock();
    throw NodeDeadError(src, "tcp recv: node " + std::to_string(src) +
                                 " unreachable");
  }
  inbox_.posted.push_back(
      detail::PostedRecv{buf, capacity, src, tag, context, req});
  return Request(req);
}

bool TcpTransport::iprobe(int me_ep, int src, int tag, int context,
                          Status* status) {
  if (me_ep != opts_.me) {
    throw MpiError("tcp iprobe: endpoint " + std::to_string(me_ep) +
                   " is not this process");
  }
  std::lock_guard<std::mutex> lk(inbox_.mu);
  for (const detail::UnexpectedMsg& msg : inbox_.unexpected) {
    if (msg.matches(src, tag, context)) {
      if (status != nullptr) *status = Status{msg.src, msg.tag, msg.bytes};
      return true;
    }
  }
  return false;
}

}  // namespace hlsmpc::mpi
