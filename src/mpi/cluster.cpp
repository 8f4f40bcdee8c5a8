#include "mpi/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "fault/injector.hpp"
#include "mpi/coll_algo.hpp"
#include "mpi/coll_shm.hpp"
#include "mpi/detail/obs_events.hpp"

#include "mpi/recover.hpp"

namespace hlsmpc::mpi {

namespace {

/// Fabric context ids: user p2p and collective internals must not match
/// each other's messages.
constexpr int kP2pContext = 0;
constexpr int kCollContext = 1;

/// Per-call view of a cluster-global task as a node-local one: node-level
/// Comm calls derive the rank from ctx.task_id(), which must be the LOCAL
/// id there. Scheduling behaviour (yield, cooperativeness, schedule hook)
/// forwards to the real context, so blocking local collectives remain
/// explorable under the deterministic executor — its hook tracks the
/// running fiber itself and ignores the context object's identity.
class LocalCtx final : public ult::TaskContext {
 public:
  LocalCtx(ult::TaskContext& outer, int local_id) : outer_(&outer) {
    set_task_id(local_id);
    set_cpu(outer.cpu());
    set_schedule_hook(outer.schedule_hook());
  }
  void yield() override { outer_->yield(); }
  bool cooperative() const override { return outer_->cooperative(); }

 private:
  ult::TaskContext* outer_;
};

}  // namespace

// ---------------------------------------------------------------------------
// SimCluster

SimCluster::SimCluster(ClusterOptions opts)
    : opts_(opts), machine_(topo::Machine::nehalem_ex(2)) {
  if (opts_.nnodes <= 0 || opts_.ranks_per_node <= 0) {
    throw MpiError("SimCluster: nnodes and ranks_per_node must be positive");
  }
  SimFabricTransport::Options fo;
  fo.nranks = nranks();
  fo.ranks_per_node = opts_.ranks_per_node;
  fo.limits = opts_.fabric_limits;
  fo.retry = opts_.fabric_retry;
  fo.obs = opts_.obs;
  fabric_ = std::make_unique<SimFabricTransport>(fo);

  nodes_.reserve(static_cast<std::size_t>(opts_.nnodes));
  for (int n = 0; n < opts_.nnodes; ++n) {
    Options o;
    o.nranks = opts_.ranks_per_node;
    o.buffers = opts_.buffers;
    // The per-pair eager reservation model sizes buffers for the whole
    // job, exactly what total_ranks is for.
    o.total_ranks = nranks();
    o.coll = opts_.coll;
    // Node runtimes never record: their local task ids would collide
    // across nodes. Cluster-level recording uses global ids (obs()).
    o.obs = nullptr;
    nodes_.push_back(std::make_unique<Runtime>(machine_, o));
  }

  switch (opts_.executor) {
    case ExecutorKind::thread:
      executor_ = std::make_unique<ult::ThreadExecutor>();
      break;
    case ExecutorKind::fiber: {
      int workers = opts_.fiber_workers;
      if (workers <= 0) {
        const int hw =
            static_cast<int>(std::thread::hardware_concurrency());
        workers = std::min(machine_.num_cpus(), std::max(hw, 1));
      }
      auto fe = std::make_unique<ult::FiberExecutor>(workers);
      fe->set_obs(opts_.obs);
      executor_ = std::move(fe);
      break;
    }
  }
  comm_ = std::make_unique<ClusterComm>(*this);
}

SimCluster::~SimCluster() = default;

Runtime& SimCluster::node_runtime(int node) {
  if (node < 0 || node >= opts_.nnodes) {
    throw MpiError("node_runtime: bad node " + std::to_string(node));
  }
  return *nodes_[static_cast<std::size_t>(node)];
}

void SimCluster::respawn(int node) {
  if (node < 0 || node >= opts_.nnodes) {
    throw MpiError("respawn: bad node " + std::to_string(node));
  }
  if (!fabric_->node_dead(node)) {
    throw MpiError("respawn: node " + std::to_string(node) +
                   " is not dead");
  }
  if (fault::should_fail("cluster:respawn", node)) {
    throw MpiError("respawn: injected launch failure for node " +
                   std::to_string(node));
  }
  // A replacement process: brand-new runtime, empty storage — warm
  // restarts rehydrate it from a checkpoint inside the next run().
  Options o;
  o.nranks = opts_.ranks_per_node;
  o.buffers = opts_.buffers;
  o.total_ranks = nranks();
  o.coll = opts_.coll;
  o.obs = nullptr;
  nodes_[static_cast<std::size_t>(node)] =
      std::make_unique<Runtime>(machine_, o);
  fabric_->revive_node(node);
  comm_->readmit(node);
}

void SimCluster::run(const Body& body) { run_on(*executor_, body); }

void SimCluster::run_on(ult::Executor& exec, const Body& body) {
  const int n = nranks();
  std::vector<int> pins(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    pins[static_cast<std::size_t>(g)] =
        nodes_[static_cast<std::size_t>(g / opts_.ranks_per_node)]
            ->cpu_of_rank(g % opts_.ranks_per_node);
  }
  exec.run(n, pins, [&](ult::TaskContext& ctx) { body(*comm_, ctx); });
}

// ---------------------------------------------------------------------------
// ClusterComm

ClusterComm::ClusterComm(SimCluster& cluster)
    : cluster_(&cluster),
      fabric_(&cluster.fabric()),
      nnodes_(cluster.nnodes()),
      rpn_(cluster.ranks_per_node()),
      nranks_(cluster.nranks()),
      coll_seq_(static_cast<std::size_t>(cluster.nranks()), 0),
      fold_scratch_(static_cast<std::size_t>(cluster.nnodes())),
      reduce_partial_(static_cast<std::size_t>(cluster.nnodes())),
      shrink_round_timeout_(cluster.options().shrink_round_timeout) {
  node_world_.reserve(static_cast<std::size_t>(nnodes_));
  for (int n = 0; n < nnodes_; ++n) {
    node_world_.push_back(&cluster.node_runtime(n).world());
  }
  auto v = std::make_unique<View>();
  v->live.resize(static_cast<std::size_t>(nnodes_));
  std::iota(v->live.begin(), v->live.end(), 0);
  publish_view(std::move(v));
  gate_ = std::make_unique<GateSlot[]>(static_cast<std::size_t>(nnodes_));
  obs_ = cluster.obs();
}

Comm& ClusterComm::node_comm(int node) const {
  if (node < 0 || node >= nnodes_) {
    throw MpiError("node_comm: bad node " + std::to_string(node));
  }
  return *node_world_[static_cast<std::size_t>(node)];
}

void ClusterComm::publish_view(std::unique_ptr<View> v) {
  view_.store(v.get(), std::memory_order_release);
  views_.push_back(std::move(v));
}

int ClusterComm::pos_of(const View& v, int node) {
  const auto it = std::lower_bound(v.live.begin(), v.live.end(), node);
  if (it == v.live.end() || *it != node) return -1;
  return static_cast<int>(it - v.live.begin());
}

int ClusterComm::live_pos(const View& v, int node, const char* what) {
  const int pos = pos_of(v, node);
  if (pos < 0) {
    throw NodeDeadError(node, std::string(what) + " " + std::to_string(node) +
                                  " was excluded by shrink");
  }
  return pos;
}

int ClusterComm::next_coll_tag(int grank, std::uint64_t epoch) {
  // Per-rank counters agree because all ranks enter collectives on this
  // comm in the same order (MPI requirement). The epoch in the high bits
  // keeps any straggler of a pre-shrink collective from matching a
  // post-shrink one; low-bits wraparound is harmless, a tag only
  // disambiguates calls close in time.
  const std::uint32_t seq = coll_seq_[static_cast<std::size_t>(grank)]++;
  return static_cast<int>(((static_cast<std::uint32_t>(epoch) & 0x7fu)
                           << 24) |
                          (seq & 0xffffffu));
}

void ClusterComm::node_gate(ult::TaskContext& lctx, Comm& nc, int node,
                            const char* what) {
  // Fused verdict: between two local barriers, the node's local rank 0
  // publishes the fabric's poison state and EVERY rank of the node acts
  // on that one value — so co-resident ranks all throw or all proceed,
  // and a throwing node is never stranded mid-local-phase. (The next
  // gate's opening barrier orders any later verdict write after every
  // read of this one, so one slot per node suffices.)
  nc.barrier(lctx);
  std::atomic<int>& v = gate_[static_cast<std::size_t>(node)].verdict;
  if (lctx.task_id() == 0) {
    v.store(fabric_->poisoned_node(), std::memory_order_release);
  }
  nc.barrier(lctx);
  const int dead = v.load(std::memory_order_acquire);
  if (dead >= 0) {
    throw NodeDeadError(dead, std::string(what) + ": node " +
                                  std::to_string(dead) + " unreachable");
  }
}

// ---- global p2p ----

void ClusterComm::send(ult::TaskContext& ctx, const void* buf,
                       std::size_t bytes, int dst, int tag) {
  if (dst < 0 || dst >= nranks_) {
    throw MpiError("cluster send: bad rank " + std::to_string(dst));
  }
  if (tag < 0 || tag > kMaxUserTag) {
    throw MpiError("cluster send: bad tag " + std::to_string(tag));
  }
  const int me = rank(ctx);
  Request r = fabric_->isend(ctx, me, dst, dst, buf, bytes, tag, kP2pContext);
  transport_wait(ctx, r, nullptr, obs_);
  if (obs_ != nullptr) obs_->count(me, obs::Counter::net_sends);
  detail::record_p2p(obs_, obs::EventKind::p2p_send, ctx, dst, kP2pContext,
                     tag);
}

void ClusterComm::recv(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                       int src, int tag, Status* status) {
  if (src != kAnySource && (src < 0 || src >= nranks_)) {
    throw MpiError("cluster recv: bad rank " + std::to_string(src));
  }
  if (tag != kAnyTag && (tag < 0 || tag > kMaxUserTag)) {
    throw MpiError("cluster recv: bad tag " + std::to_string(tag));
  }
  const int me = rank(ctx);
  Request r = fabric_->irecv(ctx, me, buf, capacity, src, tag, kP2pContext);
  Status st;
  transport_wait(ctx, r, &st, obs_);
  if (status != nullptr) *status = st;
  if (obs_ != nullptr) obs_->count(me, obs::Counter::net_recvs);
  detail::record_p2p(obs_, obs::EventKind::p2p_recv, ctx, st.source,
                     kP2pContext, st.tag);
}

// ---- leader-tier primitives ----

bool ClusterComm::coll_send(ult::TaskContext& ctx, int g_me, int dst_g,
                            const void* buf, std::size_t bytes, int tag) {
  try {
    Request r =
        fabric_->isend(ctx, g_me, dst_g, dst_g, buf, bytes, tag, kCollContext);
    transport_wait(ctx, r, nullptr, obs_);
  } catch (const NodeDeadError& e) {
    // Re-arm the episode poison when the failure names a node that died
    // in an EARLIER, already-healed episode (kill_node re-poisons then;
    // it is a no-op while the naming episode is still open) — the gates
    // must see a verdict, or co-resident ranks would sail past.
    fabric_->kill_node(e.node());
    return false;
  } catch (const TransportError&) {
    // The link failed but the peer was not (yet) known dead: declare the
    // node we could not reach unreachable, so supervision names it
    // (dead-rank supervision lifted to nodes).
    fabric_->kill_node(node_of(dst_g));
    return false;
  }
  if (obs_ != nullptr) obs_->count(g_me, obs::Counter::net_sends);
  return true;
}

bool ClusterComm::coll_recv(ult::TaskContext& ctx, int g_me, int src_g,
                            void* buf, std::size_t capacity, int tag) {
  try {
    Request r = fabric_->irecv(ctx, g_me, buf, capacity, src_g, tag,
                               kCollContext);
    transport_wait(ctx, r, nullptr, obs_);
  } catch (const NodeDeadError& e) {
    fabric_->kill_node(e.node());
    return false;
  } catch (const TransportError&) {
    fabric_->kill_node(node_of(src_g));
    return false;
  }
  if (obs_ != nullptr) obs_->count(g_me, obs::Counter::net_recvs);
  return true;
}

std::byte* ClusterComm::grown(std::vector<std::byte>& scratch,
                              std::size_t bytes) {
  if (scratch.size() < bytes) scratch.resize(bytes);
  return scratch.data();
}

bool ClusterComm::leader_fold(ult::TaskContext& ctx, int pos, const View& v,
                              int lane, void* acc, std::byte* partner,
                              std::size_t count, std::size_t elem_bytes,
                              const ReduceFn& fn, int tag) {
  // Binomial reduce tree in TRUE live-position order (the PR 5 contract
  // lifted to the leader tier): the lower position of each pair holds the
  // fold of a contiguous survivor range ending right before its partner's
  // range, so it applies the partner's partial as the RIGHT operand.
  // Ascending position is ascending node id, so the result — landing at
  // live[0]'s leader — is the exact ascending-global-rank fold over the
  // surviving contributions. Every lane runs the same tree over its own
  // ranks, so lane l's fold is that order over lane l's elements.
  const int npos = static_cast<int>(v.live.size());
  const int g_me = leader_of(v.live[static_cast<std::size_t>(pos)]) + lane;
  const std::size_t bytes = count * elem_bytes;
  bool ok = true;
  for (int mask = 1; mask < npos; mask <<= 1) {
    if ((pos & mask) != 0) {
      const int dst = v.live[static_cast<std::size_t>(pos - mask)];
      if (!coll_send(ctx, g_me, leader_of(dst) + lane, acc, bytes, tag)) {
        ok = false;
      }
      break;
    }
    const int src_pos = pos + mask;
    if (src_pos < npos) {
      const int src = v.live[static_cast<std::size_t>(src_pos)];
      if (coll_recv(ctx, g_me, leader_of(src) + lane, partner, bytes, tag)) {
        fn(acc, partner, count);
      } else {
        ok = false;
      }
    }
  }
  return ok;
}

bool ClusterComm::leader_bcast(ult::TaskContext& ctx, int pos, const View& v,
                               int lane, void* buf, std::size_t bytes,
                               int root_pos, int tag) {
  // Binomial bcast over virtual positions rotated so root_pos is virtual
  // 0 (rotation is legal here: bcast has no fold order to preserve).
  const int npos = static_cast<int>(v.live.size());
  const int g_me = leader_of(v.live[static_cast<std::size_t>(pos)]) + lane;
  const int vme = (pos - root_pos + npos) % npos;
  bool ok = true;
  int mask = 1;
  while (mask < npos) {
    if ((vme & mask) != 0) {
      const int src =
          v.live[static_cast<std::size_t>((vme - mask + root_pos) % npos)];
      if (!coll_recv(ctx, g_me, leader_of(src) + lane, buf, bytes, tag)) {
        ok = false;
      }
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vme + mask < npos) {
      const int dst =
          v.live[static_cast<std::size_t>((vme + mask + root_pos) % npos)];
      if (!coll_send(ctx, g_me, leader_of(dst) + lane, buf, bytes, tag)) {
        ok = false;
      }
    }
    mask >>= 1;
  }
  return ok;
}

// ---- hierarchical collectives ----

void ClusterComm::barrier(ult::TaskContext& ctx) {
  const int g = rank(ctx);
  const int node = node_of(g);
  const auto view = snapshot_view();
  const int tag = next_coll_tag(g, view->epoch);
  detail::CollScope obs_span(obs_, obs::CollOp::barrier, ctx, 0,
                             obs::sync_key(kCollContext, tag), -1);
  const int pos = live_pos(*view, node, "cluster barrier: node");
  LocalCtx lctx(ctx, local_of(g));
  Comm& nc = node_comm(node);
  // The gates themselves provide local arrival and release, so the
  // barrier body is just the leader dissemination.
  node_gate(lctx, nc, node, "cluster barrier");
  if (local_of(g) == 0) {
    // Leader dissemination over live positions: after ceil(log2 N) rounds
    // each leader has transitively heard from every live node.
    const int npos = static_cast<int>(view->live.size());
    for (int step = 1; step < npos; step <<= 1) {
      const int dst = view->live[static_cast<std::size_t>(
          coll::dissemination_dst(pos, step, npos))];
      const int src = view->live[static_cast<std::size_t>(
          coll::dissemination_src(pos, step, npos))];
      coll_send(ctx, g, leader_of(dst), nullptr, 0, tag);
      coll_recv(ctx, g, leader_of(src), nullptr, 0, tag);
    }
  }
  node_gate(lctx, nc, node, "cluster barrier");
}

void ClusterComm::bcast(ult::TaskContext& ctx, void* buf, std::size_t bytes,
                        int root) {
  if (root < 0 || root >= nranks_) {
    throw MpiError("cluster bcast: bad root " + std::to_string(root));
  }
  const int g = rank(ctx);
  const int node = node_of(g);
  const int root_node = node_of(root);
  const auto view = snapshot_view();
  const int tag = next_coll_tag(g, view->epoch);
  detail::CollScope obs_span(obs_, obs::CollOp::bcast, ctx, bytes,
                             obs::sync_key(kCollContext, tag), root);
  const int pos = live_pos(*view, node, "cluster bcast: node");
  const int root_pos = live_pos(*view, root_node, "cluster bcast: root node");
  LocalCtx lctx(ctx, local_of(g));
  Comm& nc = node_comm(node);
  node_gate(lctx, nc, node, "cluster bcast");
  if (node == root_node) {
    // Root's node first shares locally (this is what puts the payload in
    // the leader's hands), then its leader feeds the leader tier.
    nc.bcast(lctx, buf, bytes, local_of(root));
    if (local_of(g) == 0) {
      leader_bcast(ctx, pos, *view, 0, buf, bytes, root_pos, tag);
    }
  } else {
    if (local_of(g) == 0) {
      leader_bcast(ctx, pos, *view, 0, buf, bytes, root_pos, tag);
    }
    nc.bcast(lctx, buf, bytes, 0);
  }
  node_gate(lctx, nc, node, "cluster bcast");
}

void ClusterComm::reduce(ult::TaskContext& ctx, const void* sendbuf,
                         void* recvbuf, std::size_t count,
                         std::size_t elem_bytes, const ReduceFn& fn,
                         int root) {
  if (root < 0 || root >= nranks_) {
    throw MpiError("cluster reduce: bad root " + std::to_string(root));
  }
  const int g = rank(ctx);
  const int node = node_of(g);
  const std::size_t bytes = count * elem_bytes;
  const auto view = snapshot_view();
  const int tag = next_coll_tag(g, view->epoch);
  detail::CollScope obs_span(obs_, obs::CollOp::reduce, ctx, bytes,
                             obs::sync_key(kCollContext, tag), root);
  const int pos = live_pos(*view, node, "cluster reduce: node");
  live_pos(*view, node_of(root), "cluster reduce: root node");
  LocalCtx lctx(ctx, local_of(g));
  Comm& nc = node_comm(node);
  node_gate(lctx, nc, node, "cluster reduce");

  // Local tier: fold the node's contributions (ascending local = ascending
  // global within the node) into the leader's partial, a per-node buffer
  // only the leader touches.
  std::byte* const partial =
      local_of(g) == 0
          ? grown(reduce_partial_[static_cast<std::size_t>(node)], bytes)
          : nullptr;
  nc.reduce(lctx, sendbuf, partial, count, elem_bytes, fn, 0);

  const int root_leader = leader_of(view->live[0]);
  if (local_of(g) == 0) {
    // Leader tier: fold live-node partials to live[0] in true position
    // order.
    std::byte* const partner =
        fold_receives(pos, static_cast<int>(view->live.size()))
            ? grown(fold_scratch_[static_cast<std::size_t>(node)], bytes)
            : nullptr;
    leader_fold(ctx, pos, *view, 0, partial, partner, count, elem_bytes, fn,
                tag);
    if (pos == 0) {
      // Deliver the folded total to the global root.
      if (g == root) {
        if (bytes > 0) std::memcpy(recvbuf, partial, bytes);
      } else {
        coll_send(ctx, g, root, partial, bytes, tag);
      }
    }
  }
  if (g == root && g != root_leader) {
    coll_recv(ctx, g, root_leader, recvbuf, bytes, tag);
  }
  node_gate(lctx, nc, node, "cluster reduce");
}

void ClusterComm::allreduce(ult::TaskContext& ctx, const void* sendbuf,
                            void* recvbuf, std::size_t count,
                            std::size_t elem_bytes, const ReduceFn& fn) {
  const int g = rank(ctx);
  const int node = node_of(g);
  const auto view = snapshot_view();
  const int tag = next_coll_tag(g, view->epoch);
  detail::CollScope obs_span(obs_, obs::CollOp::allreduce, ctx,
                             count * elem_bytes,
                             obs::sync_key(kCollContext, tag), -1);
  const int pos = live_pos(*view, node, "cluster allreduce: node");
  const int npos = static_cast<int>(view->live.size());
  const int lane = local_of(g);
  const std::size_t bytes = count * elem_bytes;
  LocalCtx lctx(ctx, lane);
  Comm& nc = node_comm(node);
  std::vector<std::byte>& partners =
      fold_scratch_[static_cast<std::size_t>(node)];
  // Lanes above the engine's staged (small) payloads: every rank carries
  // its own slice across the fabric. The choice depends only on the call
  // shape and the per-node config, which all nodes share, so every rank
  // of the job takes the same path.
  ShmCollEngine* lanes = nc.shm_engine();
  if (lanes != nullptr && lanes->select(bytes) == obs::CollAlg::shm_flat) {
    lanes = nullptr;
  }
  if (lanes != nullptr && lane == 0 && fold_receives(pos, npos)) {
    // The lanes receive their partners into disjoint slices of one node
    // buffer; the entry gate publishes its growth to them.
    grown(partners, bytes);
  }
  node_gate(lctx, nc, node, "cluster allreduce");

  if (lanes != nullptr) {
    // Slice r is folded locally by local rank r, then folded and
    // broadcast across nodes along lane r, then gathered by every rank of
    // the node. A lane whose fabric op fails still lets its slice be
    // published, so the node finishes the local phase and the exit gate
    // throws.
    auto over_fabric = [&](std::byte* slice, std::size_t lo, std::size_t hi) {
      if (lo == hi) return;
      std::byte* const partner = fold_receives(pos, npos)
                                     ? partners.data() + lo * elem_bytes
                                     : nullptr;
      leader_fold(ctx, pos, *view, lane, slice, partner, hi - lo, elem_bytes,
                  fn, tag);
      leader_bcast(ctx, pos, *view, lane, slice, (hi - lo) * elem_bytes, 0,
                   tag);
    };
    lanes->allreduce_sliced(lctx, lane, sendbuf, recvbuf, count, elem_bytes,
                            fn, ShmCollEngine::SliceHook(over_fabric));
  } else {
    // Local reduce into the leader's recvbuf, leader fold to live[0],
    // leader bcast of the total, local bcast — reduce+bcast with the
    // leader's recvbuf as the accumulator throughout, so no extra staging
    // buffer.
    nc.reduce(lctx, sendbuf, lane == 0 ? recvbuf : nullptr, count,
              elem_bytes, fn, 0);
    if (lane == 0) {
      leader_fold(ctx, pos, *view, 0, recvbuf,
                  fold_receives(pos, npos) ? grown(partners, bytes) : nullptr,
                  count, elem_bytes, fn, tag);
      leader_bcast(ctx, pos, *view, 0, recvbuf, bytes, 0, tag);
    }
    nc.bcast(lctx, recvbuf, bytes, 0);
  }
  node_gate(lctx, nc, node, "cluster allreduce");
}

void ClusterComm::allgather(ult::TaskContext& ctx, const void* sendbuf,
                            std::size_t bytes, void* recvbuf) {
  const int g = rank(ctx);
  const int node = node_of(g);
  const std::size_t node_block = static_cast<std::size_t>(rpn_) * bytes;
  const auto view = snapshot_view();
  const int tag = next_coll_tag(g, view->epoch);
  detail::CollScope obs_span(obs_, obs::CollOp::allgather, ctx, bytes,
                             obs::sync_key(kCollContext, tag), -1);
  const int pos = live_pos(*view, node, "cluster allgather: node");
  const int npos = static_cast<int>(view->live.size());
  LocalCtx lctx(ctx, local_of(g));
  Comm& nc = node_comm(node);
  node_gate(lctx, nc, node, "cluster allgather");

  auto* out = static_cast<std::byte*>(recvbuf);
  // Local tier: the leader gathers its node's block in place, at the
  // node's POSITION slot of the live-rank-ordered result (dead nodes
  // leave no gap — the output is compacted by survivor position).
  nc.gather(lctx, sendbuf, bytes,
            local_of(g) == 0
                ? out + static_cast<std::size_t>(pos) * node_block
                : nullptr,
            0);
  if (local_of(g) == 0 && npos > 1) {
    // Leader tier: linear block exchange. Fabric sends complete
    // immediately (always-copy), so send-all-then-receive-all cannot
    // deadlock.
    for (int p = 0; p < npos; ++p) {
      if (p == pos) continue;
      coll_send(ctx, g, leader_of(view->live[static_cast<std::size_t>(p)]),
                out + static_cast<std::size_t>(pos) * node_block, node_block,
                tag);
    }
    for (int p = 0; p < npos; ++p) {
      if (p == pos) continue;
      coll_recv(ctx, g, leader_of(view->live[static_cast<std::size_t>(p)]),
                out + static_cast<std::size_t>(p) * node_block, node_block,
                tag);
    }
  }
  // Local tier: share the assembled result.
  nc.bcast(lctx, recvbuf, static_cast<std::size_t>(npos) * node_block, 0);
  node_gate(lctx, nc, node, "cluster allgather");
}

// ---- shrink and recover ----

void ClusterComm::install_view(std::uint64_t expected_epoch,
                               std::uint64_t dead_mask) {
  std::lock_guard<std::mutex> lk(view_mu_);
  const View* cur = snapshot_view();
  if (cur->epoch != expected_epoch) return;  // another leader won
  auto v = std::make_unique<View>();
  v->epoch = expected_epoch + 1;
  for (int n : cur->live) {
    if ((dead_mask >> n & 1u) == 0) v->live.push_back(n);
  }
  publish_view(std::move(v));
}

ShrinkReport ClusterComm::shrink(ult::TaskContext& ctx) {
  const int g = rank(ctx);
  const int node = node_of(g);
  const auto view = snapshot_view();
  live_pos(*view, node, "shrink: node");
  LocalCtx lctx(ctx, local_of(g));
  Comm& nc = node_comm(node);
  // Sample the reset generation BEFORE the quiescing barrier: the leader
  // bumps it after the barrier, so sampling first guarantees every rank
  // holds the pre-shrink value and cannot miss the bump.
  std::atomic<std::uint32_t>& reset_gen =
      gate_[static_cast<std::size_t>(node)].reset_gen;
  const std::uint32_t gen0 = reset_gen.load(std::memory_order_acquire);
  // Quiesce the node: after this barrier every co-resident rank has
  // unwound from the failed collective (the gates guarantee they threw
  // together) and is inside shrink.
  nc.barrier(lctx);

  struct Pod {
    std::uint64_t mask = 0;
    std::uint64_t epoch = 0;
    std::int32_t attempts = 0;
    std::int32_t status = 0;  // 0 ok, 1 self declared dead, 2 no agreement
  } pod;
  if (local_of(g) == 0) {
    try {
      recover::FabricRecoveryChannel ch(*fabric_, node);
      recover::ShrinkConfig cfg;
      cfg.round_timeout = shrink_round_timeout_;
      cfg.epoch = static_cast<std::uint32_t>(view->epoch);
      const recover::ShrinkDecision dec =
          recover::shrink_agree(ctx, ch, node, view->live, cfg);
      install_view(view->epoch, dec.dead_mask);
      fabric_->heal(dec.dead_mask);
      // Rebuild the node's collective control blocks. The gates kept them
      // consistent (local phases never abort halfway), so this is a cheap
      // belt-and-suspenders re-zeroing, and it also clears any stale
      // intra-node unexpected traffic.
      cluster_->node_runtime(node).reset_collectives();
      pod.mask = dec.dead_mask;
      pod.epoch = view->epoch + 1;
      pod.attempts = dec.attempts;
      if (obs_ != nullptr) {
        obs_->count(g, obs::Counter::recoveries);
        obs::Event e;
        e.kind = obs::EventKind::recovery;
        e.task = g;
        e.cpu = ctx.cpu();
        e.t0 = e.t1 = obs_->now();
        e.arg = static_cast<std::int64_t>(dec.dead_mask);
        e.arg2 = dec.attempts;
        obs_->record(e);
      }
    } catch (const NodeDeadError&) {
      pod.status = 1;
    } catch (const MpiError&) {
      pod.status = 2;
    }
    // Release the node only now: reset_collectives() is quiescent-only,
    // and without this gate a co-resident rank could already be waiting
    // inside the pod bcast when the engine is re-zeroed under it —
    // wiping its arrival and wedging the node. Bumped on the failure
    // paths too (no reset happened, but the waiters must still wake).
    reset_gen.store(gen0 + 1, std::memory_order_release);
  } else {
    while (reset_gen.load(std::memory_order_acquire) == gen0) {
      ctx.yield();
    }
  }
  nc.bcast(lctx, &pod, sizeof(pod), 0);
  nc.barrier(lctx);
  if (pod.status == 1) {
    throw NodeDeadError(node, "shrink: node " + std::to_string(node) +
                                  " was declared dead by the survivors");
  }
  if (pod.status == 2) {
    throw MpiError("shrink: agreement did not converge");
  }
  // Restart collective numbering under the new epoch — every survivor
  // rank resets its own counter here, inside the collective, so the
  // counters stay in lockstep.
  coll_seq_[static_cast<std::size_t>(g)] = 0;

  ShrinkReport rep;
  rep.epoch = pod.epoch;
  rep.dead_mask = pod.mask;
  rep.attempts = pod.attempts;
  for (int n : view->live) {
    if ((pod.mask >> n & 1u) == 0) rep.live.push_back(n);
  }
  return rep;
}

void ClusterComm::readmit(int node) {
  std::lock_guard<std::mutex> lk(view_mu_);
  auto v = std::make_unique<View>(*snapshot_view());
  ++v->epoch;
  const auto it = std::lower_bound(v->live.begin(), v->live.end(), node);
  if (it == v->live.end() || *it != node) v->live.insert(it, node);
  publish_view(std::move(v));
  // The respawned node's runtime is brand new — rebind its world comm.
  node_world_[static_cast<std::size_t>(node)] =
      &cluster_->node_runtime(node).world();
  // Everybody starts the next run with fresh collective numbering (the
  // epoch bump keeps any earlier traffic unmatchable anyway).
  std::fill(coll_seq_.begin(), coll_seq_.end(), 0);
}

}  // namespace hlsmpc::mpi
