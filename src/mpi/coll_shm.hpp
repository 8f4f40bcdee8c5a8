// Topology-aware shared-memory collective engine.
//
// All MPI tasks of a node share one address space (paper §IV), so a
// collective never needs to move bytes through mailbox messages: ranks can
// read each other's buffers directly once publication is ordered. This
// engine — in the spirit of XHC's hierarchical shared-memory collectives —
// gives every communicator a shared control block of cache-line-padded
// per-rank slots and runs leader-based algorithms over the machine's
// topology levels (core -> cache levels -> NUMA -> node):
//
//  - bcast: single-copy. The root release-publishes (pointer, sequence);
//    every reader acquires the sequence, memcpys straight out of the
//    root's buffer (or elides the copy when the addresses match — the
//    HLS shared-image trick) and acknowledges with one release RMW. The
//    root only waits for the acknowledgement count; readers never wait
//    for each other.
//  - reduce/allreduce/reduce_scatter_block: per-scope tree reduction.
//    Members publish their send buffers; the lowest rank of each leaf
//    group folds them in ascending rank order into an accumulator,
//    leaders combine upward along the topology tree, and rank 0 publishes
//    the result. Folding in ascending rank order with the accumulator as
//    the left operand means only associativity is required of the
//    ReduceFn — never commutativity. Pipelined-size reductions fold in
//    rank slices instead (below).
//  - allgather/alltoall: every rank publishes its send buffer and copies
//    each peer's block directly, replacing the rank-0 gather+bcast funnel.
//  - scan/exscan: each rank publishes a staged copy (staging makes
//    in-place recvbuf == sendbuf calls safe) and folds ranks [0, me] /
//    [0, me) locally in rank order.
//  - barrier: the hierarchical sense-reversing machinery extracted from
//    hls::SyncManager (ult::EpisodeBarrier): arrive inside the narrowest
//    group, one representative ascends per level, releases cascade back
//    down.
//
// Publication protocol: each rank's entry into a collective bumps a
// private call counter; MPI's ordering rule (all ranks issue the same
// collectives on a communicator in the same order) keeps these counters
// in lockstep, so the counter value doubles as the publication sequence
// number every peer waits for. Published data stays untouched until every
// consumer signalled — a completion barrier for most ops, the
// acknowledgement count for bcast — which is what makes buffer reuse in
// the very next collective safe.
//
// An algorithm selector picks per call: payloads <= small_threshold take
// the staged flat path (one copy through an inline slot, flat completion
// barrier); mid-size payloads go zero-copy under the hierarchical barrier;
// payloads above pipeline_threshold take the *pipelined* path.
//
// Pipelined reductions are slice-parallel, so every core folds: each
// rank publishes its whole send buffer once, rank s folds elements
// [count·s/n, count·(s+1)/n) of every contribution in ascending rank
// order (accumulator on the left) into its private scratch, and
// release-publishes the folded slice. allreduce copies all n slices,
// reduce's root does the same, and reduce_scatter_block keeps its own
// slice, which is exactly its block. In-place calls are safe because a
// rank overwrites slice r of its recvbuf only after acquiring rank r's
// slice, and rank r publishes only after reading slice r of every
// contribution (reduce_scatter_block writes its block after the
// completion barrier instead). allreduce_sliced is the same reduction at
// any size with a caller hook on each folded slice before it is
// published; ClusterComm runs its inter-node lanes there.
//
// The other pipelined ops (bcast, allgather, scan, exscan) use XHC-style
// data-wise pipelining: the buffer is split into cache-friendly
// fragments, and a producer release-publishes fragment k the moment it
// is ready while consumers copy (or, for scan, fold) earlier fragments.
// Fragment publication counts are *absolute*: every pipelined call
// advances a private frag_base by its fragment count on every rank
// (MPI's matched-call ordering keeps the bases in lockstep; a
// slice-parallel reduction counts as one fragment), and fragment f of a
// call is published as frag_base + f + 1, so the values a slot's
// fragment words take are monotone across calls even though only some
// ranks physically publish in any one call — which is what keeps
// wait_seq's `>=` comparison safe on lagging slots (DESIGN.md §13 gives
// the full argument).
//
// A per-rank registration cache (8-way, LRU) maps (buffer, count,
// elem_bytes) to the resolved fragment geometry plus a stable attach
// block (scan/exscan's staging storage for that buffer), so repeated
// collectives on the same buffers skip re-resolution and reuse
// cache-warm storage. Entries are tagged with the CPU they were resolved
// on and flushed wholesale when the rank migrates (same discipline as the
// per-task address cache of PR 2).
//
// The p2p algorithms in collectives.cpp remain as dispatch fallback
// (size-1 comms, engine disabled, ops the engine does not implement).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mpi/transport.hpp"
#include "mpi/types.hpp"
#include "obs/event.hpp"
#include "topo/topology.hpp"
#include "ult/episode_barrier.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::mpi {

class ShmCollEngine {
 public:
  /// Staging capacity of a slot; payloads up to this size travel through
  /// the control block itself instead of a heap buffer on the flat path.
  static constexpr std::size_t kInlineBytes = 1024;

  /// `rank_cpus[r]` = hardware thread rank r is pinned to (how the leader
  /// tree maps ranks onto the machine's sharing domains).
  ShmCollEngine(const topo::Machine& machine, std::vector<int> rank_cpus,
                CollConfig cfg, TransportStats* stats);
  ShmCollEngine(const ShmCollEngine&) = delete;
  ShmCollEngine& operator=(const ShmCollEngine&) = delete;

  int size() const { return n_; }
  /// Levels of the hierarchical plan (1 = degenerate/flat tree: no
  /// topology level merged contiguous rank ranges).
  int num_levels() const { return static_cast<int>(hier_.size()); }
  /// Rank groups at hierarchical level `l`, each ascending; members[0] of
  /// a group is its leader. Exposed for tests and diagnostics.
  std::vector<std::vector<int>> level_groups(int level) const;

  /// Algorithm for a payload of `bytes` published per rank. Deterministic
  /// in (bytes, config), so every rank of a call picks the same one. The
  /// staged arm wins ties when pipeline_threshold < small_threshold.
  obs::CollAlg select(std::size_t bytes) const {
    if (bytes <= cfg_.small_threshold) return obs::CollAlg::shm_flat;
    if (bytes > cfg_.pipeline_threshold) return obs::CollAlg::shm_pipelined;
    return obs::CollAlg::shm_hier;
  }

  /// Fragment geometry of the pipelined path for one payload, identical on
  /// every rank (derived from the call shape and config only).
  struct FragGeom {
    std::size_t frag_elems = 0;  ///< elements per fragment (last may be short)
    std::uint32_t nfrags = 0;
  };
  FragGeom frag_geom(std::size_t count, std::size_t elem_bytes) const;

  /// Drop every rank's registration-cache entries (test/diagnostic hook;
  /// callers must be quiescent — between collectives). Migration flushes
  /// a rank's own entries automatically via the CPU tag.
  void invalidate_registrations();
  /// Recovery hook: re-zero the whole control block — publication
  /// sequences, pointers, acks, fragment counts, private counters and
  /// registration caches — back to its initial state. Callers must be
  /// quiescent (ClusterComm::shrink runs it between its local barriers).
  /// EpisodeBarrier state is deliberately untouched: the fused node gates
  /// guarantee a local phase either runs to completion or is never
  /// entered, so every barrier episode is already consistent.
  void reset();
  obs::CollAlg barrier_alg() const {
    return hier_.size() > 1 ? obs::CollAlg::shm_hier : obs::CollAlg::shm_flat;
  }

  // Collective bodies. `me` is the caller's rank on the owning
  // communicator; every member must call (MPI semantics). Buffers follow
  // the Comm byte-oriented API.
  void barrier(ult::TaskContext& ctx, int me);
  void bcast(ult::TaskContext& ctx, int me, void* buf, std::size_t bytes,
             int root);
  void reduce(ult::TaskContext& ctx, int me, const void* sendbuf,
              void* recvbuf, std::size_t count, std::size_t elem_bytes,
              const ReduceFn& fn, int root);
  void allreduce(ult::TaskContext& ctx, int me, const void* sendbuf,
                 void* recvbuf, std::size_t count, std::size_t elem_bytes,
                 const ReduceFn& fn);
  void allgather(ult::TaskContext& ctx, int me, const void* sendbuf,
                 std::size_t bytes, void* recvbuf);
  void alltoall(ult::TaskContext& ctx, int me, const void* sendbuf,
                std::size_t bytes_per_rank, void* recvbuf);
  void scan(ult::TaskContext& ctx, int me, const void* sendbuf, void* recvbuf,
            std::size_t count, std::size_t elem_bytes, const ReduceFn& fn);
  void exscan(ult::TaskContext& ctx, int me, const void* sendbuf,
              void* recvbuf, std::size_t count, std::size_t elem_bytes,
              const ReduceFn& fn);
  void reduce_scatter_block(ult::TaskContext& ctx, int me,
                            const void* sendbuf, void* recvbuf,
                            std::size_t count, std::size_t elem_bytes,
                            const ReduceFn& fn);

  /// Non-owning reference to a callable `void(std::byte* slice,
  /// std::size_t lo, std::size_t hi)`: a function pointer plus the
  /// callable's address, so passing one never allocates. The callable
  /// must outlive the call it is passed to.
  class SliceHook {
   public:
    template <typename F>
    explicit SliceHook(F& f)
        : call_([](void* f, std::byte* s, std::size_t lo, std::size_t hi) {
            (*static_cast<F*>(f))(s, lo, hi);
          }),
          f_(&f) {}
    void operator()(std::byte* s, std::size_t lo, std::size_t hi) const {
      call_(f_, s, lo, hi);
    }

   private:
    void (*call_)(void*, std::byte*, std::size_t, std::size_t);
    void* f_;
  };
  /// Slice-parallel allreduce at any size, with `hook` run on this rank's
  /// folded slice [lo, hi) (elements) after the local fold and before the
  /// slice is published to the other ranks — so the hook may extend the
  /// fold beyond the node (ClusterComm's lanes: one inter-node fold and
  /// bcast per slice, run by the slice's owner). The hook must leave the
  /// slice holding the value every rank should receive. The slice is
  /// folded straight into this rank's own slice of `recvbuf` unless
  /// recvbuf overlaps sendbuf (then into the rank's scratch), and nothing
  /// is allocated once that scratch has grown.
  void allreduce_sliced(ult::TaskContext& ctx, int me, const void* sendbuf,
                        void* recvbuf, std::size_t count,
                        std::size_t elem_bytes, const ReduceFn& fn,
                        const SliceHook& hook);

 private:
  /// Per-rank slot of the shared control block. Channels live on separate
  /// cache lines so readers polling a sequence word do not collide with
  /// the publisher's payload staging.
  struct alignas(64) Slot {
    // Contribution channel: this rank's published input buffer.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const void*> ptr{nullptr};
    std::byte pad0[64 - 2 * sizeof(void*)];
    // Result channel: this rank's accumulator (tree reduction partials
    // ascending the tree, rank 0's slot carrying the final result; or
    // this rank's folded slice on the pipelined path).
    std::atomic<std::uint64_t> acc_seq{0};
    std::atomic<const void*> acc_ptr{nullptr};
    std::byte pad1[64 - 2 * sizeof(void*)];
    // Cumulative count of readers done with this rank's publication
    // (bcast acknowledgements).
    std::atomic<std::uint64_t> acks{0};
    std::byte pad2[64 - sizeof(std::uint64_t)];
    // Pipelined-path fragment publication counts, absolute across calls
    // (frag_base + fragments published so far). `frag` gates the
    // contribution channel's fragments, `acc_frag` the result channel's;
    // each is the release word ordering that channel's payload — the
    // per-call seq words above are not used by pipelined consumers.
    std::atomic<std::uint64_t> frag{0};
    std::byte pad3[64 - sizeof(std::uint64_t)];
    std::atomic<std::uint64_t> acc_frag{0};
    std::byte pad4[64 - sizeof(std::uint64_t)];
    // Staging area for the small/flat path.
    std::byte inline_buf[kInlineBytes];
  };

  /// One barrier group: its member ranks (ascending; members[0] leads)
  /// and the episode barrier they synchronize on.
  struct Group {
    std::vector<int> members;
    ult::EpisodeBarrier bar;
  };
  struct Level {
    std::vector<std::unique_ptr<Group>> groups;
    /// rank -> index of the group containing it (by leader-chain
    /// containment; defined for every rank at every level).
    std::vector<int> group_of;
  };
  /// Narrow -> wide list of levels; the last level has a single group.
  using Plan = std::vector<Level>;

  /// One registration-cache entry: the resolved fragment geometry and the
  /// stable attach block (accumulator / staging storage) for a buffer the
  /// rank keeps issuing collectives on.
  struct Registration {
    const void* addr = nullptr;
    std::size_t count = 0;
    std::size_t elem_bytes = 0;
    FragGeom geom;
    std::vector<std::byte> block;  ///< sized lazily, survives eviction reuse
    std::uint64_t stamp = 0;       ///< LRU clock; 0 = empty way
  };
  static constexpr std::size_t kRegWays = 8;

  /// Per-rank private state, written only by its own rank.
  struct alignas(64) Priv {
    std::uint64_t seq = 0;            ///< collectives entered on this comm
    std::uint64_t acks_expected = 0;  ///< cumulative acks owed as bcast root
    std::vector<std::byte> scratch;   ///< accumulator / slice / staging, grows only
    /// Base of this rank's fragment numbering: advanced by the fragment
    /// count of every pipelined call (by every rank, published or not),
    /// so the bases stay in lockstep and fragment words stay monotone.
    std::uint64_t frag_base = 0;
    /// Registration cache (see Registration). reg_cpu tags the CPU the
    /// entries were resolved on; a mismatch at lookup means the rank
    /// migrated and flushes the set.
    std::array<Registration, kRegWays> reg;
    std::uint64_t reg_stamp = 0;
    int reg_cpu = -1;
  };

  Plan build_hier(const topo::Machine& machine,
                  const std::vector<int>& rank_cpus) const;
  Plan& plan_for(obs::CollAlg alg) {
    return alg == obs::CollAlg::shm_flat ? flat_ : hier_;
  }

  std::uint64_t begin(int me);
  void wait_seq(const std::atomic<std::uint64_t>& w, std::uint64_t seq,
                ult::TaskContext& ctx) const;
  /// Publish this rank's contribution; with `stage` the payload is copied
  /// into the slot's inline buffer (or scratch when it does not fit) so
  /// the caller may immediately reuse/overwrite `p`. Returns the
  /// published pointer.
  const void* publish_contrib(int me, const void* p, std::size_t bytes,
                              bool stage, std::uint64_t seq);
  void publish_result(int me, const void* p, std::uint64_t seq);
  const void* peer_contrib(int r) const {
    return slots_[static_cast<std::size_t>(r)].ptr.load(
        std::memory_order_relaxed);
  }
  const void* peer_result(int r) const {
    return slots_[static_cast<std::size_t>(r)].acc_ptr.load(
        std::memory_order_relaxed);
  }
  void copy_bytes(void* dst, const void* src, std::size_t bytes);

  /// Hierarchical barrier over `plan`: arrive in the level-0 group; each
  /// group's effective last arriver ascends holding the episode open, the
  /// top level flips, and releases cascade back down (the N-level
  /// generalization of SyncManager's two-level shared-cache barrier).
  void plan_barrier(Plan& plan, ult::TaskContext& ctx, int me);
  /// Tree reduction over `plan` in ascending rank order. Every rank
  /// publishes (staged when `stage`); leaf leaders fold their group,
  /// partials combine upward. Returns the final accumulator on rank 0
  /// (== `rank0_acc` when that is non-null), nullptr elsewhere.
  std::byte* plan_reduce(Plan& plan, ult::TaskContext& ctx, int me,
                         const void* sendbuf, std::size_t count,
                         std::size_t elem_bytes, const ReduceFn& fn,
                         std::uint64_t seq, void* rank0_acc, bool stage);

  /// Registration-cache lookup for (addr, count, elem_bytes) on rank `me`;
  /// resolves geometry and evicts LRU on miss, flushes on migration.
  Registration& resolve_registration(ult::TaskContext& ctx, int me,
                                     const void* addr, std::size_t count,
                                     std::size_t elem_bytes);
  /// The registration's attach block, grown to `bytes` on first use.
  std::byte* reg_block(Registration& reg, std::size_t bytes);
  /// Release-publish a fragment word value (with an explorer sync point
  /// between payload production and publication).
  void publish_frag(ult::TaskContext& ctx, std::atomic<std::uint64_t>& w,
                    std::uint64_t value);
  /// Batched shm_fragments stat bump (once per call, not per fragment).
  void count_frags(std::uint32_t nfrags);
  /// Producer yield cadence in fragments: 0 when pipeline_yield is off,
  /// otherwise one yield per ~128 KB of published fragments. Yielding per
  /// fragment costs a scheduler round trip through every waiting rank,
  /// which at default fragment sizes erases the cache win.
  std::uint32_t yield_stride(const FragGeom& geom,
                             std::size_t elem_bytes) const;
  /// Consumer side of the fragment protocol: copy the producer's fragments
  /// into `dst` as `w` publishes them, batching every already-published
  /// fragment into one contiguous span copy (one wait per batch and
  /// longer streams for the hardware prefetcher, instead of one wait and
  /// one small memcpy per fragment). The source pointer is read from
  /// `srcp` only after the first fragment's acquire — the producer stores
  /// it before the first release, so loading it any earlier races.
  void drain_frags(ult::TaskContext& ctx, const std::atomic<std::uint64_t>& w,
                   std::uint64_t base, const FragGeom& geom,
                   std::size_t elem_bytes, std::size_t bytes,
                   const std::atomic<const void*>& srcp, std::byte* dst);
  /// Element range [lo, hi) of `count` that rank r folds on the
  /// pipelined path: [count·r/n, count·(r+1)/n).
  std::pair<std::size_t, std::size_t> slice_of(int r, std::size_t count) const;
  /// Slice-parallel reduction: publish `sendbuf` on the contribution
  /// channel, fold this rank's slice of every contribution in ascending
  /// rank order into `acc` (its scratch when null), run `hook` on the
  /// folded slice when given, and publish the slice on the result
  /// channel. Both publications carry `pub` (the caller's advanced
  /// frag_base). Returns the folded slice; it stays put until the caller's
  /// completion barrier.
  const std::byte* reduce_slices(ult::TaskContext& ctx, int me,
                                 const void* sendbuf, std::size_t count,
                                 std::size_t elem_bytes, const ReduceFn& fn,
                                 std::uint64_t pub, std::byte* acc = nullptr,
                                 const SliceHook* hook = nullptr);
  /// Copy all n folded slices of publication `pub` into `recvbuf`, each
  /// only after acquiring its owner's publication — which is what makes an
  /// aliased recvbuf safe: the owner published after reading its slice of
  /// this rank's contribution.
  void gather_slices(ult::TaskContext& ctx, int me, std::size_t count,
                     std::size_t elem_bytes, std::uint64_t pub,
                     void* recvbuf);
  /// Fragment-wise staged publication for scan/exscan: stages `sendbuf`
  /// into the buffer's registration block fragment by fragment, publishing
  /// each as it lands. Returns the staged base pointer.
  const std::byte* publish_staged_pipelined(ult::TaskContext& ctx, int me,
                                            const void* sendbuf,
                                            std::size_t count,
                                            std::size_t elem_bytes);
  /// Entry bookkeeping shared by every pipelined op body: bumps the
  /// pipelined-call stat and returns the geometry. The body reads its
  /// frag_base before publishing and advances it by nfrags once its own
  /// waits are issued (every rank advances, published or not); a slice
  /// reduction advances it by 1 at entry and publishes the new value.
  FragGeom begin_pipelined(std::size_t count, std::size_t elem_bytes);

  int n_;
  CollConfig cfg_;
  TransportStats* stats_;
  std::vector<Slot> slots_;
  std::vector<Priv> priv_;
  Plan flat_;  ///< single group of all ranks
  Plan hier_;  ///< topology leader tree (>= 1 level)
};

}  // namespace hlsmpc::mpi
