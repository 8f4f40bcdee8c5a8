// Communicators: the MPI-facing API of the runtime.
//
// One Comm object is shared by all its member tasks (they live in one
// address space); per-call rank is derived from the calling task's
// context. The byte-oriented core (send/recv/collectives on void*) is
// implemented in p2p.cpp / collectives.cpp; typed templates below forward
// to it. Every operation takes the caller's TaskContext so blocking waits
// cooperate with the fiber scheduler.
//
// Layering (top down — include mpi/mpi.hpp to get the whole public
// surface):
//
//   ClusterComm (cluster.hpp)   multi-node view: node-leader hierarchical
//       |                       collectives, global p2p over the fabric
//   Comm (this file)            intra-node MPI surface; delegates small/
//       |                       large collectives to ShmCollEngine
//   Transport (transport.hpp)   the only way bytes move between ranks:
//       |                       isend/irecv/iprobe + TransportStats
//   ShmTransport | SimFabricTransport | TcpTransport
//                               intra-node mailboxes; a deterministic,
//                               explorable multi-node fabric; real
//                               sockets for multi-process runs
//
// detail/mailbox.hpp (namespace mpi::detail) is the matching-engine
// state shared by the transport implementations; nothing above the
// Transport interface may include it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpi/types.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::mpi {

class Runtime;
class ShmCollEngine;

namespace rma {
class Win;
struct WinOptions;
}  // namespace rma

class Comm {
 public:
  /// Built by Runtime (world) or by split/dup; not user-constructible.
  Comm(Runtime& rt, std::vector<int> group, int pt2pt_context,
       int coll_context, std::string name);
  ~Comm();
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int size() const { return static_cast<int>(group_.size()); }
  int rank(const ult::TaskContext& ctx) const;
  bool contains(int task_id) const;
  const std::string& name() const { return name_; }
  Runtime& runtime() { return *rt_; }

  // ---- point to point (byte oriented) ----
  void send(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
            int dst, int tag);
  void recv(ult::TaskContext& ctx, void* buf, std::size_t capacity, int src,
            int tag, Status* status = nullptr);
  Request isend(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
                int dst, int tag);
  Request irecv(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                int src, int tag);
  void wait(ult::TaskContext& ctx, Request& req, Status* status = nullptr);
  bool test(Request& req, Status* status = nullptr);
  /// Wait for every request (invalid entries are skipped).
  void waitall(ult::TaskContext& ctx, std::span<Request> reqs);
  /// Wait until one request completes; returns its index (the request is
  /// invalidated). Throws if all requests are invalid.
  int waitany(ult::TaskContext& ctx, std::span<Request> reqs,
              Status* status = nullptr);
  /// Nonblocking probe for a matching unexpected message.
  bool iprobe(ult::TaskContext& ctx, int src, int tag, Status* status);
  void probe(ult::TaskContext& ctx, int src, int tag, Status* status);
  void sendrecv(ult::TaskContext& ctx, const void* sendbuf,
                std::size_t send_bytes, int dst, int sendtag, void* recvbuf,
                std::size_t recv_capacity, int src, int recvtag,
                Status* status = nullptr);

  // ---- collectives (byte oriented) ----
  //
  // ReduceFn convention (all reduction collectives): `fn(inout, in, count)`
  // folds with the ACCUMULATOR AS THE LEFT OPERAND, and contributions are
  // combined in ascending rank order — the result of rank k's reduction is
  // v_0 (+) v_1 (+) ... (+) v_k with the parenthesization free. The
  // operator must be associative; it need NOT be commutative (MPI's
  // MPI_Op_create contract), and both the p2p and shared-memory engines
  // preserve operand order.
  void barrier(ult::TaskContext& ctx);
  void bcast(ult::TaskContext& ctx, void* buf, std::size_t bytes, int root);
  /// Elementwise reduction of `count` elements of `elem_bytes` each.
  void reduce(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
              std::size_t count, std::size_t elem_bytes, const ReduceFn& fn,
              int root);
  void allreduce(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
                 std::size_t count, std::size_t elem_bytes,
                 const ReduceFn& fn);
  void gather(ult::TaskContext& ctx, const void* sendbuf, std::size_t bytes,
              void* recvbuf, int root);
  void gatherv(ult::TaskContext& ctx, const void* sendbuf, std::size_t bytes,
               void* recvbuf, std::span<const std::size_t> counts,
               std::span<const std::size_t> displs, int root);
  void scatter(ult::TaskContext& ctx, const void* sendbuf, std::size_t bytes,
               void* recvbuf, int root);
  void allgather(ult::TaskContext& ctx, const void* sendbuf,
                 std::size_t bytes, void* recvbuf);
  void alltoall(ult::TaskContext& ctx, const void* sendbuf,
                std::size_t bytes_per_rank, void* recvbuf);
  /// Inclusive prefix scan: rank k receives v_0 (+) ... (+) v_k, folded in
  /// rank order (see the ReduceFn convention above).
  void scan(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
            std::size_t count, std::size_t elem_bytes, const ReduceFn& fn);
  /// Exclusive prefix scan: rank k > 0 receives v_0 (+) ... (+) v_{k-1};
  /// rank 0's recvbuf is left untouched (MPI semantics for MPI_Exscan).
  void exscan(ult::TaskContext& ctx, const void* sendbuf, void* recvbuf,
              std::size_t count, std::size_t elem_bytes, const ReduceFn& fn);
  /// Reduce `size()*count` elements, scatter `count` per rank
  /// (MPI_Reduce_scatter_block).
  void reduce_scatter_block(ult::TaskContext& ctx, const void* sendbuf,
                            void* recvbuf, std::size_t count,
                            std::size_t elem_bytes, const ReduceFn& fn);

  /// Shared-memory collective engine serving this comm, or nullptr (size-1
  /// comm or disabled via CollConfig). Exposed for tests and diagnostics.
  ShmCollEngine* shm_engine() const { return shm_.get(); }

  // ---- communicator management ----
  /// Collective. Ranks with the same color land in the same new
  /// communicator, ordered by (key, old rank). Returns the caller's new
  /// communicator (same object for all members of a color).
  Comm& split(ult::TaskContext& ctx, int color, int key);
  Comm& dup(ult::TaskContext& ctx);

  // ---- one-sided (RMA) windows ----
  /// Collective. Exposes each rank's [base, base+bytes) for one-sided
  /// access by every member of this comm (ranks may expose different
  /// sizes, including zero). The window lives in the runtime's registry
  /// until win_free; one Win object is shared by all ranks. The overload
  /// without options inherits the runtime's obs recorder; `opts` lets
  /// callers attach a SyncObserver / watchdog (opts.obs == nullptr is
  /// replaced by the runtime's recorder).
  rma::Win& win_create(ult::TaskContext& ctx, void* base, std::size_t bytes,
                       const rma::WinOptions& opts);
  rma::Win& win_create(ult::TaskContext& ctx, void* base, std::size_t bytes);
  /// Collective. Quiesces the window with a final fence, then destroys
  /// it. The reference is dead for every rank after this returns.
  void win_free(ult::TaskContext& ctx, rma::Win& win);

  // ---- typed convenience ----
  template <typename T>
  void send(ult::TaskContext& ctx, std::span<const T> data, int dst, int tag) {
    send(ctx, data.data(), data.size_bytes(), dst, tag);
  }
  template <typename T>
  void send_value(ult::TaskContext& ctx, const T& v, int dst, int tag) {
    send(ctx, &v, sizeof(T), dst, tag);
  }
  template <typename T>
  void recv(ult::TaskContext& ctx, std::span<T> data, int src, int tag,
            Status* status = nullptr) {
    recv(ctx, data.data(), data.size_bytes(), src, tag, status);
  }
  template <typename T>
  T recv_value(ult::TaskContext& ctx, int src, int tag,
               Status* status = nullptr) {
    T v{};
    recv(ctx, &v, sizeof(T), src, tag, status);
    return v;
  }
  template <typename T>
  void bcast(ult::TaskContext& ctx, std::span<T> data, int root) {
    bcast(ctx, data.data(), data.size_bytes(), root);
  }
  template <typename T>
  T bcast_value(ult::TaskContext& ctx, T v, int root) {
    bcast(ctx, &v, sizeof(T), root);
    return v;
  }
  template <typename T>
  void reduce(ult::TaskContext& ctx, std::span<const T> in, std::span<T> out,
              Op op, int root) {
    reduce(ctx, in.data(), out.data(), in.size(), sizeof(T),
           make_reduce_fn<T>(op), root);
  }
  template <typename T>
  void allreduce(ult::TaskContext& ctx, std::span<const T> in,
                 std::span<T> out, Op op) {
    allreduce(ctx, in.data(), out.data(), in.size(), sizeof(T),
              make_reduce_fn<T>(op));
  }
  template <typename T>
  T allreduce_value(ult::TaskContext& ctx, const T& v, Op op) {
    T out{};
    allreduce(ctx, &v, &out, 1, sizeof(T), make_reduce_fn<T>(op));
    return out;
  }
  template <typename T>
  T scan_value(ult::TaskContext& ctx, const T& v, Op op) {
    T out{};
    scan(ctx, &v, &out, 1, sizeof(T), make_reduce_fn<T>(op));
    return out;
  }
  template <typename T>
  T exscan_value(ult::TaskContext& ctx, const T& v, Op op, T identity = T{}) {
    T out = identity;
    exscan(ctx, &v, &out, 1, sizeof(T), make_reduce_fn<T>(op));
    return out;
  }
  /// Allreduce with a user-defined elementwise combiner (the MPI_Op_create
  /// analogue). `combine(inout, in)` must be associative; commutativity is
  /// NOT required — contributions fold in ascending rank order with the
  /// accumulator as the left operand.
  template <typename T, typename Fn>
  void allreduce_custom(ult::TaskContext& ctx, std::span<const T> in,
                        std::span<T> out, Fn combine) {
    ReduceFn fn = [combine](void* a, const void* b, std::size_t count) {
      T* x = static_cast<T*>(a);
      const T* y = static_cast<const T*>(b);
      for (std::size_t i = 0; i < count; ++i) combine(x[i], y[i]);
    };
    allreduce(ctx, in.data(), out.data(), in.size(), sizeof(T), fn);
  }

 private:
  friend class Runtime;

  /// Internal send with explicit context id (collectives use coll_context_).
  void send_ctx(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
                int dst, int tag, int context);
  Request isend_ctx(ult::TaskContext& ctx, const void* buf, std::size_t bytes,
                    int dst, int tag, int context);
  void recv_ctx(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                int src, int tag, int context, Status* status);
  Request irecv_ctx(ult::TaskContext& ctx, void* buf, std::size_t capacity,
                    int src, int tag, int context);

  int global_task(int rank) const;
  void check_rank(int rank, const char* what) const;
  void check_tag(int tag) const;
  /// Fresh tag for the caller's next collective on this comm. All ranks
  /// call collectives on a comm in the same order (MPI requirement), so
  /// per-rank counters agree.
  int next_coll_tag(int rank);

  Runtime* rt_;
  std::vector<int> group_;         // rank -> global task id
  std::vector<int> rank_of_task_;  // global task id -> rank (-1 if absent)
  int pt2pt_context_;
  int coll_context_;
  std::string name_;
  std::vector<std::uint32_t> coll_seq_;  // per rank
  /// Topology-aware shared-memory collective engine (null when the p2p
  /// algorithms serve this comm; see shm_engine()).
  std::unique_ptr<ShmCollEngine> shm_;
};

}  // namespace hlsmpc::mpi
