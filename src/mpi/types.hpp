// Basic types of the MPI-subset runtime.
//
// The runtime is byte-oriented (everything is MPI_BYTE underneath, as in a
// real implementation's progress engine); typed convenience wrappers live
// on Comm. Requests are shared completion records: blocking calls are
// nonblocking calls plus wait, exactly the MPI formulation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace hlsmpc::mpi {

/// Wildcards, same semantics as MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Largest tag value an application may use (small internal headroom is
/// reserved above it for collective protocols).
inline constexpr int kMaxUserTag = 1 << 24;

class MpiError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// Completion record shared between the initiating task and the peer that
/// completes the operation. It completes exactly once. The completer
/// writes the result under `mu`, then sets `done` with release order and
/// notifies `cv`; a waiter that reads `done` true with acquire order may
/// read `status`, `error` and `error_node` without taking `mu`.
struct RequestState {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> done{false};
  Status status;
  /// Non-empty if the operation failed (e.g. truncation); surfaced as an
  /// MpiError from wait()/test() in the initiating task.
  std::string error;
  /// >= 0 when the failure is a dead peer *node* (transport-level
  /// supervision): transport_wait() rethrows these as NodeDeadError so
  /// cluster code can name the first unreachable node.
  int error_node = -1;
  /// Context of a receive (-1 for a send): Comm::wait records its p2p_recv
  /// obs event, when the synchronization takes effect and the source is
  /// resolved.
  int trace_context = -1;

  void complete(const Status& st) {
    {
      std::lock_guard<std::mutex> lk(mu);
      status = st;
      done.store(true, std::memory_order_release);
    }
    cv.notify_all();
  }

  void complete_error(std::string message, int dead_node = -1) {
    {
      std::lock_guard<std::mutex> lk(mu);
      error = std::move(message);
      error_node = dead_node;
      done.store(true, std::memory_order_release);
    }
    cv.notify_all();
  }
};

/// Handle to an in-flight nonblocking operation. Copyable (shared state);
/// wait/test live on Comm because they need the task context.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  std::shared_ptr<RequestState>& state() { return st_; }

 private:
  std::shared_ptr<RequestState> st_;
};

/// Built-in reduction operators (MPI_SUM and friends).
enum class Op { sum, prod, min, max, land, lor, band, bor };

template <typename T>
void apply_op(Op op, T& inout, const T& in) {
  switch (op) {
    case Op::sum:
      inout = static_cast<T>(inout + in);
      return;
    case Op::prod:
      inout = static_cast<T>(inout * in);
      return;
    case Op::min:
      if (in < inout) inout = in;
      return;
    case Op::max:
      if (inout < in) inout = in;
      return;
    case Op::land:
      inout = static_cast<T>(inout && in);
      return;
    case Op::lor:
      inout = static_cast<T>(inout || in);
      return;
    case Op::band:
      if constexpr (std::is_integral_v<T>) {
        inout = static_cast<T>(inout & in);
        return;
      }
      break;
    case Op::bor:
      if constexpr (std::is_integral_v<T>) {
        inout = static_cast<T>(inout | in);
        return;
      }
      break;
  }
  throw MpiError("apply_op: bitwise op on non-integral type");
}

/// Type-erased elementwise reduction `inout[i] = op(inout[i], in[i])`,
/// what the untyped collective engine calls back into.
using ReduceFn =
    std::function<void(void* inout, const void* in, std::size_t count)>;

/// Collective-engine tuning (Runtime Options::coll). The shared-memory
/// engine exploits the fact that all ranks of a node live in one address
/// space: collectives move data through a per-communicator shared control
/// block instead of mailbox messages. Every engine and path is always
/// compiled in; these fields (or the HLSMPC_COLL_* environment overrides,
/// see coll_config_from_env) pick among them at runtime — enable_shm =
/// false keeps the p2p algorithms, the reference the engine is tested
/// and benchmarked against.
struct CollConfig {
  /// Route collectives through the shared-memory engine when a
  /// communicator has >= 2 ranks. Off = always the p2p algorithms
  /// (useful for correctness diffing).
  bool enable_shm = true;
  /// Payloads <= this many bytes take the staged flat path (one copy into
  /// an inline cache-line-padded slot, flat completion barrier); larger
  /// payloads are read zero-copy from the publishing rank's own buffer
  /// under the hierarchical barrier. Must agree across ranks (it is
  /// per-runtime, so it does).
  std::size_t small_threshold = 1024;
  /// Payloads strictly above this many bytes take the pipelined path.
  /// Reductions there are slice-parallel: rank s folds elements
  /// [count·s/n, count·(s+1)/n) of every rank's buffer in rank order and
  /// publishes the folded slice, so all n cores fold and the result is
  /// gathered slice by slice. bcast, allgather and scan/exscan split
  /// buffers into `fragment_bytes` fragments with per-fragment
  /// release-publish sequence numbers, so consumers copy fragment k
  /// while the producer still works on fragment k+1.
  /// SIZE_MAX (env HLSMPC_COLL_PIPELINE_THRESHOLD=0) restores the two-way
  /// staged/zero-copy selector. The staged arm
  /// wins ties: bytes <= small_threshold is checked first. Below ~256 KB
  /// per rank the whole collective fits in L2 on current parts and the
  /// arms measure even, so the crossover sits past that point.
  std::size_t pipeline_threshold = 256 * 1024;
  /// Fragment granularity of the pipelined path (clamped to >= 1 element).
  /// Cache-friendly sizes (8–64KB) keep a piece of the accumulator
  /// resident in L1/L2 while a slice folds all n inputs into it; 32 KB
  /// measured best on the multi-megabyte payloads the selector sends here.
  std::size_t fragment_bytes = 32 * 1024;
  /// Yield the producing task periodically while publishing staged
  /// scan/exscan fragments (once per ~128 KB window, not per fragment —
  /// a yield is a full scheduler round trip through every waiting
  /// rank). On
  /// cooperative (fiber) executors this is what makes the pipeline real:
  /// consumers batch-drain a window of fragments while they are still
  /// cache-hot instead of after the producer finished the entire buffer.
  bool pipeline_yield = true;
};

namespace detail {

/// `a[i] = f(a[i], b[i])` with `f` fixed at compile time: a straight-line
/// loop the compiler vectorizes, unlike one that switches per element.
template <typename T, typename F>
void fold_with(T* a, const T* b, std::size_t count, F f) {
  for (std::size_t i = 0; i < count; ++i) a[i] = f(a[i], b[i]);
}

}  // namespace detail

/// The ReduceFn of a built-in op on T. It dispatches on `op` once per call,
/// then folds with one of the loops below; each computes exactly what
/// apply_op computes element by element, and a bitwise op on a
/// non-integral T throws on the same calls (any with count > 0).
template <typename T>
ReduceFn make_reduce_fn(Op op) {
  return [op](void* inout, const void* in, std::size_t count) {
    T* a = static_cast<T*>(inout);
    const T* b = static_cast<const T*>(in);
    switch (op) {
      case Op::sum:
        return detail::fold_with(
            a, b, count, [](T x, T y) { return static_cast<T>(x + y); });
      case Op::prod:
        return detail::fold_with(
            a, b, count, [](T x, T y) { return static_cast<T>(x * y); });
      case Op::min:
        return detail::fold_with(a, b, count,
                                 [](T x, T y) { return y < x ? y : x; });
      case Op::max:
        return detail::fold_with(a, b, count,
                                 [](T x, T y) { return x < y ? y : x; });
      case Op::land:
        return detail::fold_with(
            a, b, count, [](T x, T y) { return static_cast<T>(x && y); });
      case Op::lor:
        return detail::fold_with(
            a, b, count, [](T x, T y) { return static_cast<T>(x || y); });
      case Op::band:
        if constexpr (std::is_integral_v<T>) {
          return detail::fold_with(
              a, b, count, [](T x, T y) { return static_cast<T>(x & y); });
        }
        break;
      case Op::bor:
        if constexpr (std::is_integral_v<T>) {
          return detail::fold_with(
              a, b, count, [](T x, T y) { return static_cast<T>(x | y); });
        }
        break;
    }
    if (count != 0) {
      throw MpiError("apply_op: bitwise op on non-integral type");
    }
  };
}

}  // namespace hlsmpc::mpi
