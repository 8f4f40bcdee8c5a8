// Deterministic simulated inter-node fabric.
//
// Endpoints are cluster-global ranks partitioned into nodes of
// `ranks_per_node` consecutive ranks (node-major global order). The
// fabric models a network, not shared memory:
//
//   - Every send is a copy. No rendezvous, no same-address elision — the
//     payload is captured into an owned buffer at send time (or copied
//     straight into a posted receive), exactly like bytes leaving through
//     a NIC. Sends therefore always complete immediately (buffered
//     semantics).
//   - Capacity is bounded per endpoint when Options::limits says so; an
//     exhausted queue refuses the send with
//     TransportError(transport_exhausted) before enqueuing anything.
//   - Schedule points: isend/irecv announce themselves through
//     ctx.sync_point("fabric:send"/"fabric:recv") *before* touching the
//     mailbox, so check::DeterministicExecutor and ScheduleExplorer can
//     interleave inter-node protocol steps and replay/shrink schedules.
//   - Fault injection: "fabric:send"/"fabric:recv" fail an op outright
//     (hard link failure); "fabric:flap" models a TRANSIENT link
//     failure — the op retries with bounded backoff and either outlasts
//     the flap or, after Options::retry.max_attempts, reports
//     transport_exhausted so the caller classifies the link as
//     persistently down.
//   - Dead nodes: kill_node(n) simulates a whole node dropping off the
//     network. It sets n's dead flag, POISONS the fabric (every ordinary
//     send/recv anywhere throws NodeDeadError naming the poison node) and
//     error-completes posted receives so blocked waiters unblock. Unlike
//     the pre-recovery fabric the poison is an *episode*, not a death
//     sentence: recovery traffic (context == kRecoveryContext) bypasses
//     the poison check, the shrink agreement runs over the poisoned
//     fabric, and heal() lifts the poison once the survivors agreed to
//     exclude the dead member. Per-node dead flags persist across heal —
//     traffic to a dead node keeps failing with its name — until
//     revive_node() readmits a respawned replacement.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "mpi/detail/mailbox.hpp"
#include "mpi/retry.hpp"
#include "mpi/transport.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::mpi {

class SimFabricTransport : public Transport {
 public:
  struct Options {
    /// Total endpoints (cluster-global ranks); must be a multiple of
    /// ranks_per_node.
    int nranks = 0;
    int ranks_per_node = 1;
    /// Per-endpoint unexpected-queue bounds (0 = unlimited).
    TransportLimits limits;
    /// Transient-failure budget for flapping links.
    RetryPolicy retry;
    /// Cluster-level recorder (task ids are cluster-global ranks); when
    /// given, each transient-retry bumps Counter::net_retries for the
    /// retrying rank.
    obs::Recorder* obs = nullptr;
  };

  explicit SimFabricTransport(Options opts);

  const char* name() const override { return "sim_fabric"; }
  int nendpoints() const override {
    return static_cast<int>(mailboxes_.size());
  }
  int nnodes() const { return nnodes_; }
  int ranks_per_node() const { return opts_.ranks_per_node; }
  int node_of(int ep) const { return ep / opts_.ranks_per_node; }

  /// On the fabric the sender's rank label IS its endpoint id (cluster
  /// ranks are global on both sides); `src` doubles as the origin
  /// endpoint for dead-node accounting.
  Request isend(ult::TaskContext& ctx, int src, int dst_ep, int dst,
                const void* buf, std::size_t bytes, int tag,
                int context) override;
  Request irecv(ult::TaskContext& ctx, int me_ep, void* buf,
                std::size_t capacity, int src, int tag, int context) override;
  bool iprobe(int me_ep, int src, int tag, int context,
              Status* status) override;

  /// Simulate node `node` dropping off the network: sets its dead flag,
  /// poisons the fabric for ordinary traffic, and completes every posted
  /// receive that can no longer be served — all ordinary-context posts
  /// (their senders will refuse against the poison), plus recovery-
  /// context posts whose source lives on a node now known dead (recovery
  /// receives between LIVE nodes stay posted: their senders bypass the
  /// poison and will still deliver). Idempotent per death; calling it
  /// again after heal() re-poisons, which is exactly what supervision
  /// wants when a survivor touches a node that died in an earlier
  /// episode.
  void kill_node(int node);
  bool node_dead(int node) const {
    return dead_[static_cast<std::size_t>(node)].load(
        std::memory_order_acquire);
  }
  /// First node EVER observed dead, or -1 — the name historical
  /// supervision reports; survives heal()/revive_node().
  int first_dead_node() const {
    return first_dead_.load(std::memory_order_acquire);
  }
  /// Node whose death poisons ordinary traffic right now, or -1 when the
  /// fabric is healthy (no death yet, or the episode was heal()ed).
  int poisoned_node() const {
    return poison_.load(std::memory_order_acquire);
  }

  /// Lift the poison of the current episode, provided the poisoning node
  /// is in `agreed_dead_mask` (bit n = node n): the survivors' shrink
  /// agreement accounted for it, ordinary traffic may resume. A death the
  /// agreement did NOT cover keeps the fabric poisoned — the next episode
  /// starts immediately. Dead flags are untouched.
  void heal(std::uint64_t agreed_dead_mask);

  /// Readmit a respawned replacement for `node`: clears its dead flag,
  /// drops whatever is queued at its endpoints (a replacement starts with
  /// an empty NIC), lifts the poison if it named this node, and
  /// recomputes first_dead_node() from the remaining dead flags. Must be
  /// quiescent (no in-flight ops touching the node) — SimCluster calls it
  /// between run()s.
  void revive_node(int node);

 private:
  detail::Mailbox& mailbox(int ep, const char* what);
  void throw_node_dead(int node, const char* what) const;
  /// Bounded retry against the "fabric:flap" site; throws
  /// transport_exhausted when the budget runs out. `site_index` is the
  /// injection-site operand.
  void ride_out_flaps(ult::TaskContext& ctx, int node, int site_index,
                      const char* what);
  void sweep_posted(int dead_node);

  Options opts_;
  int nnodes_ = 0;
  /// Retry-burst counter feeding jitter_seed() (see retry.hpp).
  std::atomic<std::uint64_t> flap_epoch_{0};
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<int> first_dead_{-1};
  std::atomic<int> poison_{-1};
};

}  // namespace hlsmpc::mpi
