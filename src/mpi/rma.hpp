// One-sided RMA windows (MPI-3 subset) over the node's shared address
// space.
//
// The paper's HLS scopes make intra-node sharing a plain load/store; a
// window backed by scope storage (hls::Runtime::rma_backing) or any other
// per-rank memory turns put/get into a single memmove plus epoch
// bookkeeping — no message, no second copy. Two epoch models carry the
// acquire/release edges:
//
//  - Active target: fence(). Each rank owns a cache-line-padded epoch
//    word; a fence release-publishes the rank's incremented epoch (after
//    all its accesses of the closing epoch) and acquire-polls every peer
//    up to that epoch. The counter exchange is the flat per-rank-word
//    variant of the shared-memory collective engine's episode barrier,
//    chosen over the single shared word so a stuck fence can name exactly
//    which ranks are missing and the race checker gets one publication
//    edge per rank. See DESIGN.md §12 for the memory-ordering argument.
//
//  - Passive target: lock()/unlock(), shared or exclusive, on a per-rank
//    lock word in the same padded control block (the per-rank-slot
//    pattern of coll_shm). Exclusive acquisition CASes the free word;
//    shared acquisition increments the reader count while no writer holds
//    it. Acquire on the winning CAS and release on the unlock store chain
//    critical sections on one target into happens-before order.
//
// Wait loops use ult::Backoff (never std::atomic::wait): cooperative
// contexts yield every probe, so the deterministic schedule explorer can
// interpose on every wait edge, and the opt-in watchdog deadline stays
// checkable. With an hls::SyncObserver installed every op and epoch step
// is emitted as a SyncEvent for check::HlsChecker; with an obs::Recorder
// the ops land in op/byte counters and epoch episodes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hls/sync.hpp"  // SyncEvent/SyncObserver (header-only use here)
#include "mpi/types.hpp"
#include "obs/event.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::mpi::rma {

/// One rank's exposed window region.
struct MemRegion {
  void* base = nullptr;
  std::size_t bytes = 0;
};

enum class LockKind { shared, exclusive };

struct WinOptions {
  /// Receives one SyncEvent per op/epoch step (the race checker installs
  /// itself here). Must outlive the window.
  hls::SyncObserver* observer = nullptr;
  /// Op + byte counters and epoch episodes.
  obs::Recorder* obs = nullptr;
  /// A fence or lock wait stuck longer than this throws MpiError naming
  /// the missing ranks / the current holder (and emits an
  /// obs::EventKind::watchdog event). 0 = off.
  int watchdog_ms = 0;
  std::string name = "win";
};

/// One window: per-rank memory regions plus the shared epoch/lock control
/// block. Shared by all ranks (one address space); per-call rank identity
/// is the `me` argument, each rank passing its own. Constructible
/// standalone (tests, schedule exploration) or collectively through
/// Comm::win_create.
class Win {
 public:
  Win(std::vector<MemRegion> regions, WinOptions opts = {});
  Win(const Win&) = delete;
  Win& operator=(const Win&) = delete;

  int size() const { return n_; }
  int id() const { return id_; }
  const std::string& name() const { return opts_.name; }
  void* base(int rank) const { return region(rank, "Win::base").base; }
  std::size_t bytes(int rank) const {
    return region(rank, "Win::bytes").bytes;
  }

  // ---- one-sided data movement (same-node: a single memmove) ----
  // Legal only inside an epoch (between fences, or holding a lock on
  // `target`); the checker flags conflicting accesses no epoch orders.
  void put(ult::TaskContext& ctx, int me, const void* src,
           std::size_t nbytes, int target, std::size_t target_offset);
  void get(ult::TaskContext& ctx, int me, void* dst, std::size_t nbytes,
           int target, std::size_t target_offset);
  /// Elementwise `fn(target_region + offset, src, count)` — the ReduceFn
  /// left-operand contract of comm.hpp: the target is the accumulator and
  /// the LEFT operand, so non-commutative operators fold contributions in
  /// the order the epochs serialize them.
  void accumulate(ult::TaskContext& ctx, int me, const void* src,
                  std::size_t count, std::size_t elem_bytes,
                  const ReduceFn& fn, int target, std::size_t target_offset);

  // ---- active-target epochs ----
  /// Collective over all window ranks. Closes the calling rank's epoch
  /// (release) and opens the next once every rank reached it (acquire):
  /// all accesses before any rank's fence happen-before all accesses
  /// after any rank's fence.
  void fence(ult::TaskContext& ctx, int me);

  // ---- passive-target epochs ----
  /// Acquire `target`'s lock word. Exclusive excludes everyone; shared
  /// admits concurrent readers and excludes writers. A rank holds at most
  /// one lock per target; lock/unlock pairs on one target order their
  /// critical sections.
  void lock(ult::TaskContext& ctx, int me, LockKind kind, int target);
  void unlock(ult::TaskContext& ctx, int me, int target);

  /// Completed fence epochs of `rank` (diagnostics/tests).
  std::uint64_t fence_epochs(int rank) const;

 private:
  /// Per-rank control slot: fence epoch word and lock word on separate
  /// cache lines (a fence storm must not bounce the lock line and vice
  /// versa), padded so neighbouring ranks never share a line.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};
    std::byte pad0_[64 - sizeof(std::atomic<std::uint64_t>)];
    /// 0 = free; kExclBit | (owner+1) << 32 = held exclusively;
    /// otherwise the low 32 bits count shared readers.
    std::atomic<std::uint64_t> lockword{0};
    std::byte pad1_[64 - sizeof(std::atomic<std::uint64_t>)];
  };
  static_assert(sizeof(void*) <= 8, "slot layout assumes 64-bit");

  static constexpr std::uint64_t kExclBit = std::uint64_t{1} << 63;

  const MemRegion& region(int rank, const char* what) const;
  void check_me(int me, const char* what) const;
  void check_range(int target, std::size_t offset, std::size_t nbytes,
                   const char* what) const;
  /// Event task id: the runtime task when the context carries one (checker
  /// task ids), else the window rank (standalone contexts).
  static int task_of(const ult::TaskContext& ctx, int me) {
    return ctx.task_id() >= 0 ? ctx.task_id() : me;
  }
  void emit(hls::SyncEvent::Kind kind, const ult::TaskContext& ctx, int me,
            int target, std::uint64_t offset, std::uint64_t nbytes,
            bool excl, std::uint64_t epoch) const;
  void record_op(const ult::TaskContext& ctx, int me, obs::RmaOp op,
                 std::uint64_t nbytes, std::uint64_t t0) const;
  [[noreturn]] void fence_stuck(const ult::TaskContext& ctx, int me,
                                std::uint64_t need, long long waited_ms);
  [[noreturn]] void lock_stuck(const ult::TaskContext& ctx, int me,
                               int target, long long waited_ms);

  std::vector<MemRegion> regions_;
  WinOptions opts_;
  int n_ = 0;
  int id_ = 0;
  std::unique_ptr<Slot[]> slots_;
  /// held_[me * n_ + target]: 0 = none, 1 = shared, 2 = exclusive.
  /// Each entry is written only by rank `me`.
  std::vector<std::uint8_t> held_;
  /// Lock-acquire timestamp per (me, target) for the rma_epoch episode
  /// emitted at unlock. Written only by rank `me`.
  std::vector<std::uint64_t> lock_t0_;
};

}  // namespace hlsmpc::mpi::rma
