// Shrink-and-recover: the agreement protocol that turns a node death from
// a job-wide abort into a bounded recovery episode.
//
// Shape follows the ULFM fault-tolerance extensions prototyped in MPICH
// (PAPERS.md): survivors of a NodeDeadError run an agreement on the set of
// dead nodes, install a communicator view excluding them, and resume. The
// protocol here is coordinator-based:
//
//   per attempt (ctx.sync_point("shrink:round"), so the ScheduleExplorer
//   can interleave every round):
//     coordinator := lowest member not currently suspect.
//     participants send their suspect-mask to the coordinator and await
//       the final verdict, each with a per-round deadline.
//     the coordinator gathers masks from every non-suspect member; a
//       gather failure (dead / deadline) adds the peer to the suspect set
//       and its bit to the union. It then disseminates kFinal(union) and
//       decides.
//     a participant whose coordinator fails (dead / deadline) suspects it
//       and retries with the next coordinator: attempt+1.
//
//   Termination: every retry adds at least one suspect, so attempts are
//   bounded by the member count. Tags encode (view epoch, attempt, phase)
//   so messages of different attempts or episodes can never match.
//
//   Failure-detection contract: a peer that misses its deadline is
//   DECLARED dead (RecoveryChannel::declare_dead) — false suspicion is
//   treated as real death, the excluded node must rejoin via respawn.
//   With deadlines far above the transports' round-trip times (and both
//   transports completing receives from positively-dead peers promptly,
//   see the sweep rules in sim_fabric.hpp / tcp_transport.hpp), the
//   timeout path is a genuine last resort and survivors converge on one
//   verdict.
//
// All protocol traffic uses kRecoveryContext (transport.hpp): it bypasses
// the transports' episode poison — the agreement must run over the very
// fabric that just lost a member — but still fails fast against per-node
// dead flags.
#pragma once

#include "mpi/transport.hpp"

#include <chrono>
#include <cstdint>
#include <vector>

#include "mpi/sim_fabric.hpp"
#include "mpi/tcp_transport.hpp"

namespace hlsmpc::mpi::recover {

struct ShrinkConfig {
  /// Per-round receive deadline. Must be far above the transport's
  /// round-trip time: expiry DECLARES the silent peer dead.
  std::chrono::milliseconds round_timeout{2000};
  /// Attempt budget; 0 derives members+1 (each retry adds a suspect).
  int max_attempts = 0;
  /// Communicator view epoch, namespacing the protocol tags so messages
  /// from an earlier episode can never match this one.
  std::uint32_t epoch = 0;
};

struct ShrinkDecision {
  /// Agreed dead set (bit n = node n).
  std::uint64_t dead_mask = 0;
  /// Attempts the agreement used (1 = no coordinator failed over).
  int attempts = 1;
  /// Surviving members, ascending.
  std::vector<int> live;
};

/// Node-to-node messaging as the agreement sees it: every implementation
/// sends in kRecoveryContext and exposes the transport's per-node death
/// knowledge. Node ids are the transport's node space.
class RecoveryChannel {
 public:
  virtual ~RecoveryChannel() = default;
  RecoveryChannel(const RecoveryChannel&) = delete;
  RecoveryChannel& operator=(const RecoveryChannel&) = delete;

  enum class RecvResult {
    ok,       ///< message received
    dead,     ///< source positively known dead (possibly learned waiting)
    timeout,  ///< deadline expired; the source has been DECLARED dead
  };

  virtual int nnodes() const = 0;
  virtual bool node_dead(int node) const = 0;
  /// Classify `node` dead (timeout escalation / persistent-failure
  /// reclassification).
  virtual void declare_dead(int node) = 0;
  /// Send to `dst_node`; false when the peer is (now) known dead — a
  /// persistent transport failure towards it declares it dead first.
  virtual bool send(ult::TaskContext& ctx, int dst_node, const void* buf,
                    std::size_t bytes, int tag) = 0;
  /// Receive from `src_node` under a deadline.
  virtual RecvResult recv(ult::TaskContext& ctx, int src_node, void* buf,
                          std::size_t capacity, int tag,
                          std::chrono::milliseconds timeout) = 0;

 protected:
  RecoveryChannel() = default;
};

/// Recovery channel over the simulated fabric: node n speaks through its
/// leader endpoint (global rank n * ranks_per_node).
class FabricRecoveryChannel final : public RecoveryChannel {
 public:
  FabricRecoveryChannel(SimFabricTransport& fabric, int me_node)
      : fabric_(&fabric), me_(me_node) {}

  int nnodes() const override { return fabric_->nnodes(); }
  bool node_dead(int node) const override { return fabric_->node_dead(node); }
  void declare_dead(int node) override { fabric_->kill_node(node); }
  bool send(ult::TaskContext& ctx, int dst_node, const void* buf,
            std::size_t bytes, int tag) override;
  RecvResult recv(ult::TaskContext& ctx, int src_node, void* buf,
                  std::size_t capacity, int tag,
                  std::chrono::milliseconds timeout) override;

 private:
  int leader_ep(int node) const { return node * fabric_->ranks_per_node(); }

  SimFabricTransport* fabric_;
  int me_;
};

/// Recovery channel over the socket mesh: endpoints ARE nodes, and the
/// src labels stamped on recovery frames are node ids (the contract
/// TcpTransport's sweep rule relies on).
class TcpRecoveryChannel final : public RecoveryChannel {
 public:
  explicit TcpRecoveryChannel(TcpTransport& tcp) : tcp_(&tcp) {}

  int nnodes() const override { return tcp_->nendpoints(); }
  bool node_dead(int node) const override { return tcp_->node_dead(node); }
  void declare_dead(int node) override { tcp_->declare_dead(node); }
  bool send(ult::TaskContext& ctx, int dst_node, const void* buf,
            std::size_t bytes, int tag) override;
  RecvResult recv(ult::TaskContext& ctx, int src_node, void* buf,
                  std::size_t capacity, int tag,
                  std::chrono::milliseconds timeout) override;

 private:
  TcpTransport* tcp_;
};

/// Run the shrink agreement among `members` (ascending node ids, <= 64,
/// containing `me`). Returns the agreed decision; throws NodeDeadError if
/// the local node itself has been declared dead, MpiError if the attempt
/// budget runs out (only possible under pathological false suspicion).
ShrinkDecision shrink_agree(ult::TaskContext& ctx, RecoveryChannel& ch,
                            int me, const std::vector<int>& members,
                            const ShrinkConfig& cfg);

/// Non-hierarchical allreduce among surviving nodes over a recovery
/// channel (binomial fold in ascending position order — live[0] holds the
/// exact ascending fold, only associativity required — then binomial
/// bcast back). One caller per live node; used to validate a shrunken
/// membership end-to-end where no ClusterComm exists (the TCP mesh).
/// Throws MpiError when a survivor fails mid-collective.
void survivor_allreduce(ult::TaskContext& ctx, RecoveryChannel& ch,
                        int me_node, const std::vector<int>& live, void* buf,
                        std::size_t count, std::size_t elem_bytes,
                        const ReduceFn& fn, int tag,
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(10000));

}  // namespace hlsmpc::mpi::recover
