// TCP/stream-socket transport: the fabric arm for real multi-process and
// multi-host deployments.
//
// One endpoint per NODE (unlike the simulated fabric, whose endpoints are
// ranks): the cluster's leader tier is the only traffic that crosses
// nodes, so the socket mesh carries node-to-node frames and the `src`
// label inside the frame disambiguates ranks. The transport is handed
// pre-connected stream sockets (Options::fds) — connection establishment
// is the launcher's job; tests use socketpair(2), a deployment would use
// connect/accept over TCP. Framing is a fixed little-endian header
// {src, tag, context, bytes} followed by the payload.
//
// A background receiver thread polls all peer sockets and feeds the local
// matching engine, completing RequestStates directly (every wait goes
// through await_request, so a completion from a foreign thread is the
// normal case, exactly like a peer rank's thread in the shm transport).
// The receiver holds a ult::ThreadCensus entry while it runs. Sends are
// synchronous full writes under a per-peer mutex: a completed send means
// the bytes entered the kernel's buffer (buffered-send semantics, same
// contract as the other transports).
//
// Dead-node detection: EOF or a connection error on the socket of node n
// (a SIGKILLed peer process closes its sockets; a dead host resets) marks
// n unreachable, poisons the transport and error-completes every posted
// receive that can no longer be served — the same episode-poison
// containment model as SimFabricTransport, so ClusterComm-style
// supervision works unchanged on top. Recovery traffic
// (context == kRecoveryContext, src labels = NODE ids by contract)
// bypasses the poison so survivors can run the shrink agreement; heal()
// lifts the poison once the agreement covered the death, and per-node
// dead flags persist so a dead peer keeps failing by name.
//
// Transient-vs-dead classification: EINTR, EAGAIN/EWOULDBLOCK and partial
// reads/writes are retried in place (poll()-waiting for readiness up to
// Options::io_deadline_ms, counting stats().retries); only EOF, a socket
// error, or the deadline expiring classify the peer as dead.

#pragma once

#include "mpi/transport.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mpi/detail/mailbox.hpp"

namespace hlsmpc::mpi {

class TcpTransport final : public Transport {
 public:
  struct Options {
    /// This process's node id in [0, nendpoints).
    int me = 0;
    /// Total nodes in the mesh.
    int nendpoints = 0;
    /// fds[n] = connected stream socket to node n; fds[me] is ignored
    /// (self-sends stay in process). The transport takes ownership and
    /// closes them on destruction.
    std::vector<int> fds;
    /// Per-endpoint unexpected-queue bounds (0 = unlimited).
    TransportLimits limits;
    /// Per-operation socket I/O deadline: how long one send/recv may
    /// poll()-wait for readiness across EAGAIN/partial transfers before
    /// the peer is classified dead. <= 0 waits forever (pre-recovery
    /// behaviour).
    int io_deadline_ms = 5000;
  };

  explicit TcpTransport(Options opts);
  ~TcpTransport() override;

  const char* name() const override { return "tcp"; }
  int nendpoints() const override { return opts_.nendpoints; }
  int me() const { return opts_.me; }

  /// `dst_ep` is the destination NODE; only me()'s own mailbox can be
  /// received from (`me_ep` must equal me()).
  Request isend(ult::TaskContext& ctx, int src, int dst_ep, int dst,
                const void* buf, std::size_t bytes, int tag,
                int context) override;
  Request irecv(ult::TaskContext& ctx, int me_ep, void* buf,
                std::size_t capacity, int src, int tag, int context) override;
  bool iprobe(int me_ep, int src, int tag, int context,
              Status* status) override;

  /// First node EVER observed unreachable (EOF/reset on its socket), or
  /// -1; survives heal().
  int first_dead_node() const {
    return first_dead_.load(std::memory_order_acquire);
  }
  bool node_dead(int node) const {
    return dead_[static_cast<std::size_t>(node)].load(
        std::memory_order_acquire);
  }
  /// Node whose death poisons ordinary traffic right now, or -1 when
  /// healthy (no death yet, or the episode was heal()ed).
  int poisoned_node() const {
    return poison_.load(std::memory_order_acquire);
  }
  /// Classify `node` as dead from above (recovery timeout escalation: a
  /// peer that missed its agreement deadline is treated as failed). Same
  /// effect as an observed EOF: dead flag, poison, sweep.
  void declare_dead(int node);
  /// Lift the current episode's poison, provided the poisoning node is
  /// covered by `agreed_dead_mask` (bit n = node n). Dead flags persist.
  void heal(std::uint64_t agreed_dead_mask);

 private:
  struct Peer {
    int fd = -1;
    std::mutex send_mu;  // frames from concurrent tasks must not interleave
  };

  void receiver_loop();
  /// Deliver one inbound message (or a local self-send) to the matching
  /// engine. Returns false on exhaustion (bounded unexpected queue).
  bool deliver(int src_label, int tag, int context,
               std::vector<std::byte> payload);
  void mark_dead(int node);
  void check_poisoned(const char* what) const;

  Options opts_;
  std::vector<std::unique_ptr<Peer>> peers_;
  detail::Mailbox inbox_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<int> first_dead_{-1};
  std::atomic<int> poison_{-1};
  std::atomic<bool> stop_{false};
  int wake_pipe_[2] = {-1, -1};
  std::thread receiver_;
};

}  // namespace hlsmpc::mpi
