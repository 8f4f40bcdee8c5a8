// Transport abstraction: where p2p bytes actually move.
//
// Comm implements MPI semantics (ranks, communicators, collectives,
// request lifecycles) and hands every message to a Transport. A transport
// owns a set of *endpoints* (one per communicating entity it serves) and
// provides nonblocking send/recv/probe with the completion semantics the
// shared-memory mailbox has always implied:
//
//   - isend returns a Request that completes when the payload no longer
//     needs the caller's buffer (immediately for eager/copying transports,
//     at match time for rendezvous).
//   - irecv returns a Request completed by whichever side performs the
//     match; Status carries (source, tag, bytes).
//   - Matching is non-overtaking per (source, tag, context).
//   - Completion is signalled through RequestState's `done` flag and
//     mutex/cv, and every wait goes through await_request below, which
//     serves every executor back end.
//
// Implementations:
//   - ShmTransport (shm_transport.hpp): the intra-node engine; endpoints
//     are node-local task ids sharing one address space, with the eager /
//     rendezvous split and the same-address copy elision of paper §V.B.3.
//   - SimFabricTransport (sim_fabric.hpp): a deterministic simulated
//     inter-node fabric; endpoints are cluster-global ranks, every send is
//     a copy, and schedule points are exposed to src/check's deterministic
//     executor so multi-node protocols are explorable and replayable.
//   - TcpTransport (tcp_transport.hpp):
//     endpoints are nodes joined by stream sockets for real multi-node
//     runs; peer death surfaces as NodeDeadError.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "fault/error.hpp"
#include "mpi/types.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::mpi {

/// Node-wide message-path statistics (observable in tests and benches).
struct TransportStats {
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> eager_sends{0};
  std::atomic<std::uint64_t> rendezvous_sends{0};
  /// Copies skipped because source and destination buffers were the same
  /// address (HLS-shared image trick, paper §V.B.3).
  std::atomic<std::uint64_t> copies_elided{0};
  /// Collective calls served by the shared-memory engine (one per rank
  /// entering such a call; zero transport messages are sent for these).
  std::atomic<std::uint64_t> shm_collectives{0};
  /// Bytes memcpy'd by the shared-memory collective engine. For a bcast of
  /// B bytes to n ranks this is (n-1)*B — against the p2p binomial tree's
  /// per-hop eager/rendezvous copies it is the "fewer copies" evidence the
  /// benches assert.
  std::atomic<std::uint64_t> shm_copied_bytes{0};
  /// Collective calls that took the fragmented pipelined large-message
  /// path (one per rank entering such a call).
  std::atomic<std::uint64_t> shm_pipelined_collectives{0};
  /// Release-publications on the pipelined path's fragment words
  /// (contribution and result channels combined): one per published
  /// fragment, or one for a whole buffer or folded slice published at
  /// once.
  std::atomic<std::uint64_t> shm_fragments{0};
  /// Registration-cache outcomes: a hit means the (buffer, length) pair's
  /// fragment geometry and attach block were reused from the per-rank
  /// cache; a miss re-resolved and possibly evicted.
  std::atomic<std::uint64_t> reg_cache_hits{0};
  std::atomic<std::uint64_t> reg_cache_misses{0};
  /// Operations re-issued after a transient failure (EINTR/EAGAIN,
  /// injected link flap). A retried op that eventually succeeds counts
  /// here but nowhere else; exhaustion surfaces as transport_exhausted.
  std::atomic<std::uint64_t> retries{0};
  /// Transient link failures observed (each flap hit, whether or not the
  /// retry budget eventually cleared it).
  std::atomic<std::uint64_t> link_flaps{0};
};

/// Reserved context id for recovery-protocol traffic (mpi/recover.hpp).
/// Fabric transports refuse all ordinary traffic while poisoned by a node
/// death; messages in this context bypass the global poison check (they
/// still fail against per-node dead flags) so surviving nodes can run the
/// shrink agreement over the very fabric that just lost a member.
inline constexpr int kRecoveryContext = 0x7ec0;

/// Capacity bounds on queued unexpected messages, per destination
/// endpoint. 0 = unlimited (the intra-node default: the BufferManager
/// already charges eager payloads to the memory tracker). A bounded
/// transport refuses the send *before* enqueuing anything and throws
/// TransportError(transport_exhausted) — clean degradation, the caller
/// may drain matching receives and retry.
struct TransportLimits {
  std::size_t max_unexpected_msgs = 0;
  std::size_t max_unexpected_bytes = 0;
};

/// Transport failure carrying the structured taxonomy of fault/error.hpp.
class TransportError : public MpiError {
 public:
  TransportError(hlsmpc::ErrorCode code, const std::string& what)
      : MpiError(what), code_(code) {}
  hlsmpc::ErrorCode code() const { return code_; }

 private:
  hlsmpc::ErrorCode code_;
};

/// A whole peer node is unreachable (killed, disconnected, simulated
/// failure). `node()` names the dead node; the transport's
/// first_dead_node() names the *first* node observed dead, which is what
/// cluster-level supervision reports.
class NodeDeadError : public TransportError {
 public:
  NodeDeadError(int node, const std::string& what)
      : TransportError(hlsmpc::ErrorCode::node_unreachable, what),
        node_(node) {}
  int node() const { return node_; }

 private:
  int node_;
};

class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual const char* name() const = 0;
  /// Number of endpoints this transport serves; endpoint ids are
  /// [0, nendpoints).
  virtual int nendpoints() const = 0;

  /// Nonblocking send of `bytes` from `buf` to endpoint `dst_ep`.
  /// `src` is the sender's rank label stamped on the message: it is what
  /// matching compares against and what the receiver's Status.source
  /// reports (comm-local rank for ShmTransport under a Comm, global rank
  /// for the fabric). `dst` is the destination's rank label, reported in
  /// the sender's own Status.
  virtual Request isend(ult::TaskContext& ctx, int src, int dst_ep, int dst,
                        const void* buf, std::size_t bytes, int tag,
                        int context) = 0;

  /// Nonblocking receive into `buf` at endpoint `me_ep`, matching sender
  /// label `src` (or kAnySource) and `tag` (or kAnyTag) within `context`.
  virtual Request irecv(ult::TaskContext& ctx, int me_ep, void* buf,
                        std::size_t capacity, int src, int tag,
                        int context) = 0;

  /// Nonblocking probe: is a matching unexpected message queued at
  /// `me_ep`? Fills `status` (source, tag, bytes) without consuming it.
  virtual bool iprobe(int me_ep, int src, int tag, int context,
                      Status* status) = 0;

  TransportStats& stats() { return stats_; }

 protected:
  Transport() = default;

  TransportStats stats_;
};

/// The one wait behind every Request completion: transport_wait,
/// transport_wait_for and Comm::wait (Comm::waitany and Comm::test read
/// the same `done` flag). Returns true once `st` is done, false if
/// `deadline` passes first. Cooperative contexts poll the flag and yield
/// between probes, so every probe stays a scheduling decision. Preemptive
/// contexts spin on the flag for up to 50 us, unless the runtime runs
/// more threads than the process has CPUs (ult::ThreadCensus), then park
/// on `st.cv`. With `obs`, a wait the spin satisfied counts
/// wait_spin_completions and one that parks counts wait_parks, both for
/// ctx.task_id(); a request already done on entry counts neither.
bool await_request(ult::TaskContext& ctx, RequestState& st,
                   std::chrono::steady_clock::time_point deadline =
                       std::chrono::steady_clock::time_point::max(),
                   obs::Recorder* obs = nullptr);

/// Wait for a transport request outside Comm (conformance tests, cluster
/// internals) through await_request; rethrows a dead-node completion as
/// NodeDeadError and anything else as MpiError.
void transport_wait(ult::TaskContext& ctx, Request& req,
                    Status* status = nullptr, obs::Recorder* obs = nullptr);

/// Timed variant: gives up after `timeout`, returning false with the
/// request STILL PENDING — the caller must keep the buffer alive and
/// either wait again or escalate (declaring the silent peer dead sweeps
/// the posted receive, after which a final transport_wait consumes the
/// error). Returns true and behaves exactly like transport_wait on
/// completion within the deadline.
bool transport_wait_for(ult::TaskContext& ctx, Request& req,
                        std::chrono::milliseconds timeout,
                        Status* status = nullptr);

}  // namespace hlsmpc::mpi
