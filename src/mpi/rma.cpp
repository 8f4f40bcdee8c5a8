#include "mpi/rma.hpp"

#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/recorder.hpp"

namespace hlsmpc::mpi::rma {

namespace {

std::atomic<int> next_win_id{0};

long long ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Win::Win(std::vector<MemRegion> regions, WinOptions opts)
    : regions_(std::move(regions)),
      opts_(std::move(opts)),
      n_(static_cast<int>(regions_.size())),
      id_(next_win_id.fetch_add(1, std::memory_order_relaxed)) {
  if (n_ == 0) throw MpiError("Win: a window needs at least one rank");
  for (int r = 0; r < n_; ++r) {
    if (regions_[static_cast<std::size_t>(r)].base == nullptr &&
        regions_[static_cast<std::size_t>(r)].bytes != 0) {
      throw MpiError("Win: rank " + std::to_string(r) +
                     " exposes " +
                     std::to_string(regions_[static_cast<std::size_t>(r)].bytes) +
                     " bytes at a null base");
    }
  }
  slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(n_));
  held_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), 0);
  lock_t0_.assign(held_.size(), 0);
}

const MemRegion& Win::region(int rank, const char* what) const {
  if (rank < 0 || rank >= n_) {
    throw MpiError(std::string(what) + ": rank " + std::to_string(rank) +
                   " outside window of size " + std::to_string(n_));
  }
  return regions_[static_cast<std::size_t>(rank)];
}

void Win::check_me(int me, const char* what) const {
  if (me < 0 || me >= n_) {
    throw MpiError(std::string(what) + ": calling rank " + std::to_string(me) +
                   " outside window of size " + std::to_string(n_));
  }
}

void Win::check_range(int target, std::size_t offset, std::size_t nbytes,
                      const char* what) const {
  const MemRegion& r = region(target, what);
  if (offset > r.bytes || nbytes > r.bytes - offset) {
    throw MpiError(std::string(what) + ": [" + std::to_string(offset) + ", " +
                   std::to_string(offset + nbytes) + ") outside rank " +
                   std::to_string(target) + "'s " + std::to_string(r.bytes) +
                   "-byte region of window '" + opts_.name + "'");
  }
}

void Win::emit(hls::SyncEvent::Kind kind, const ult::TaskContext& ctx, int me,
               int target, std::uint64_t offset, std::uint64_t nbytes,
               bool excl, std::uint64_t epoch) const {
  if (opts_.observer == nullptr) return;
  hls::SyncEvent e;
  e.kind = kind;
  e.task = task_of(ctx, me);
  e.cpu = ctx.cpu();
  e.instance = id_;
  e.task_count = epoch;
  e.rma_target = target;
  e.rma_offset = offset;
  e.rma_bytes = nbytes;
  e.rma_excl = excl;
  opts_.observer->on_sync_event(e);
}

void Win::record_op(const ult::TaskContext& ctx, int me, obs::RmaOp op,
                    std::uint64_t nbytes, std::uint64_t t0) const {
  if (opts_.obs == nullptr) return;
  const int task = task_of(ctx, me);
  const obs::Counter ctr = op == obs::RmaOp::put   ? obs::Counter::rma_puts
                      : op == obs::RmaOp::get ? obs::Counter::rma_gets
                                              : obs::Counter::rma_accs;
  opts_.obs->count(task, ctr);
  opts_.obs->count(task, obs::Counter::rma_bytes, nbytes);
  obs::Event e;
  e.kind = obs::EventKind::rma_op;
  e.task = task;
  e.cpu = ctx.cpu();
  e.instance = id_;
  e.t0 = t0;
  e.t1 = opts_.obs->now();
  e.arg = static_cast<std::int64_t>(op);
  e.arg2 = static_cast<std::int64_t>(nbytes);
  opts_.obs->record(e);
}

void Win::put(ult::TaskContext& ctx, int me, const void* src,
              std::size_t nbytes, int target, std::size_t target_offset) {
  check_me(me, "Win::put");
  check_range(target, target_offset, nbytes, "Win::put");
  ctx.sync_point("rma:put");
  std::uint64_t t0 = 0;
  if (opts_.obs != nullptr) t0 = opts_.obs->now();
  // Same-node transfer: the window region is directly addressable, so a
  // put is one copy. memmove, not memcpy — a rank may put a slice of its
  // own exposed region onto itself at an overlapping offset.
  std::memmove(static_cast<std::byte*>(
                   regions_[static_cast<std::size_t>(target)].base) +
                   target_offset,
               src, nbytes);
  emit(hls::SyncEvent::Kind::rma_put, ctx, me, target, target_offset, nbytes,
       false, 0);
  record_op(ctx, me, obs::RmaOp::put, nbytes, t0);
}

void Win::get(ult::TaskContext& ctx, int me, void* dst, std::size_t nbytes,
              int target, std::size_t target_offset) {
  check_me(me, "Win::get");
  check_range(target, target_offset, nbytes, "Win::get");
  ctx.sync_point("rma:get");
  std::uint64_t t0 = 0;
  if (opts_.obs != nullptr) t0 = opts_.obs->now();
  std::memmove(dst,
               static_cast<const std::byte*>(
                   regions_[static_cast<std::size_t>(target)].base) +
                   target_offset,
               nbytes);
  emit(hls::SyncEvent::Kind::rma_get, ctx, me, target, target_offset, nbytes,
       false, 0);
  record_op(ctx, me, obs::RmaOp::get, nbytes, t0);
}

void Win::accumulate(ult::TaskContext& ctx, int me, const void* src,
                     std::size_t count, std::size_t elem_bytes,
                     const ReduceFn& fn, int target,
                     std::size_t target_offset) {
  check_me(me, "Win::accumulate");
  if (!fn) throw MpiError("Win::accumulate: empty reduce function");
  const std::size_t nbytes = count * elem_bytes;
  check_range(target, target_offset, nbytes, "Win::accumulate");
  ctx.sync_point("rma:acc");
  std::uint64_t t0 = 0;
  if (opts_.obs != nullptr) t0 = opts_.obs->now();
  // ReduceFn left-operand contract (see comm.hpp): the target region is
  // the accumulator and the LEFT operand; `src` folds in from the right.
  fn(static_cast<std::byte*>(
         regions_[static_cast<std::size_t>(target)].base) +
         target_offset,
     src, count);
  emit(hls::SyncEvent::Kind::rma_acc, ctx, me, target, target_offset, nbytes,
       false, 0);
  record_op(ctx, me, obs::RmaOp::accumulate, nbytes, t0);
}

void Win::fence(ult::TaskContext& ctx, int me) {
  check_me(me, "Win::fence");
  ctx.sync_point("rma:fence");
  const std::uint64_t t0 = opts_.obs != nullptr ? opts_.obs->now() : 0;
  Slot& mine = slots_[static_cast<std::size_t>(me)];
  const std::uint64_t next = mine.epoch.load(std::memory_order_relaxed) + 1;
  emit(hls::SyncEvent::Kind::rma_fence_enter, ctx, me, -1, 0, 0, false, next);
  // Release-publish my epoch: everything this rank did before the fence
  // is ordered before the store every peer acquires below.
  mine.epoch.store(next, std::memory_order_release);
  const int wd = opts_.watchdog_ms;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < n_; ++r) {
    ult::Backoff backoff(ctx);
    while (slots_[static_cast<std::size_t>(r)].epoch.load(
               std::memory_order_acquire) < next) {
      if (wd > 0 && ms_since(start) > wd) fence_stuck(ctx, me, next, wd);
      backoff.pause();
    }
  }
  emit(hls::SyncEvent::Kind::rma_fence_exit, ctx, me, -1, 0, 0, false, next);
  if (opts_.obs != nullptr) {
    const int task = task_of(ctx, me);
    opts_.obs->count(task, obs::Counter::rma_fences);
    obs::Event e;
    e.kind = obs::EventKind::rma_epoch;
    e.task = task;
    e.cpu = ctx.cpu();
    e.instance = id_;
    e.t0 = t0;
    e.t1 = opts_.obs->now();
    e.arg2 = static_cast<std::int64_t>(next);  // arg 0 = fence
    opts_.obs->record(e);
  }
}

void Win::lock(ult::TaskContext& ctx, int me, LockKind kind, int target) {
  check_me(me, "Win::lock");
  region(target, "Win::lock");
  std::uint8_t& held =
      held_[static_cast<std::size_t>(me) * static_cast<std::size_t>(n_) +
            static_cast<std::size_t>(target)];
  if (held != 0) {
    throw MpiError("Win::lock: rank " + std::to_string(me) +
                   " already holds a lock on rank " + std::to_string(target) +
                   " of window '" + opts_.name + "'");
  }
  ctx.sync_point(kind == LockKind::exclusive ? "rma:lock:excl"
                                             : "rma:lock:shared");
  std::uint64_t t0 = 0;
  if (opts_.obs != nullptr) t0 = opts_.obs->now();
  std::atomic<std::uint64_t>& word =
      slots_[static_cast<std::size_t>(target)].lockword;
  const int wd = opts_.watchdog_ms;
  const auto start = std::chrono::steady_clock::now();
  ult::Backoff backoff(ctx);
  if (kind == LockKind::exclusive) {
    const std::uint64_t mine =
        kExclBit | (static_cast<std::uint64_t>(me) + 1) << 32;
    std::uint64_t expected = 0;
    // The winning CAS is the acquire: everything the previous holder did
    // before its release store is visible past this point.
    while (!word.compare_exchange_weak(expected, mine,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      if (wd > 0 && ms_since(start) > wd) lock_stuck(ctx, me, target, wd);
      backoff.pause();
      expected = 0;
    }
  } else {
    std::uint64_t cur = word.load(std::memory_order_relaxed);
    for (;;) {
      if ((cur & kExclBit) != 0) {
        if (wd > 0 && ms_since(start) > wd) lock_stuck(ctx, me, target, wd);
        backoff.pause();
        cur = word.load(std::memory_order_relaxed);
        continue;
      }
      if (word.compare_exchange_weak(cur, cur + 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
        break;
      }
    }
  }
  held = kind == LockKind::exclusive ? 2 : 1;
  lock_t0_[static_cast<std::size_t>(me) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(target)] = t0;
  emit(hls::SyncEvent::Kind::rma_lock, ctx, me, target, 0, 0,
       kind == LockKind::exclusive, 0);
  if (opts_.obs != nullptr) {
    opts_.obs->count(task_of(ctx, me), obs::Counter::rma_locks);
  }
}

void Win::unlock(ult::TaskContext& ctx, int me, int target) {
  check_me(me, "Win::unlock");
  region(target, "Win::unlock");
  const std::size_t h =
      static_cast<std::size_t>(me) * static_cast<std::size_t>(n_) +
      static_cast<std::size_t>(target);
  if (held_[h] == 0) {
    throw MpiError("Win::unlock: rank " + std::to_string(me) +
                   " holds no lock on rank " + std::to_string(target) +
                   " of window '" + opts_.name + "'");
  }
  const bool excl = held_[h] == 2;
  // Emit before the releasing store so the log order of unlock -> next
  // lock matches the happens-before edge the store creates.
  emit(hls::SyncEvent::Kind::rma_unlock, ctx, me, target, 0, 0, excl, 0);
  ctx.sync_point("rma:unlock");
  std::atomic<std::uint64_t>& word =
      slots_[static_cast<std::size_t>(target)].lockword;
  if (excl) {
    word.store(0, std::memory_order_release);
  } else {
    // The decrement is part of the release sequence headed by the last
    // exclusive release: a writer's later acquire CAS from 0 synchronizes
    // with every reader's decrement (C++20 [intro.races]).
    word.fetch_sub(1, std::memory_order_release);
  }
  held_[h] = 0;
  if (opts_.obs != nullptr) {
    const int task = task_of(ctx, me);
    obs::Event e;
    e.kind = obs::EventKind::rma_epoch;
    e.task = task;
    e.cpu = ctx.cpu();
    e.instance = id_;
    e.t0 = lock_t0_[h];
    e.t1 = opts_.obs->now();
    e.arg = excl ? 2 : 1;
    e.arg2 = target;
    opts_.obs->record(e);
  }
}

std::uint64_t Win::fence_epochs(int rank) const {
  region(rank, "Win::fence_epochs");
  return slots_[static_cast<std::size_t>(rank)].epoch.load(
      std::memory_order_acquire);
}

void Win::fence_stuck(const ult::TaskContext& ctx, int me, std::uint64_t need,
                      long long waited_ms) {
  std::ostringstream os;
  os << "Win::fence stuck on window '" << opts_.name << "': rank " << me
     << " waited " << waited_ms << " ms for epoch " << need << "; missing:";
  std::uint64_t mask = 0;
  for (int r = 0; r < n_; ++r) {
    const std::uint64_t have =
        slots_[static_cast<std::size_t>(r)].epoch.load(
            std::memory_order_acquire);
    if (have >= need) continue;
    os << " rank " << r << " (at epoch " << have << ")";
    if (r < 64) mask |= std::uint64_t{1} << r;
  }
  if (opts_.obs != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::watchdog;
    e.task = task_of(ctx, me);
    e.cpu = ctx.cpu();
    e.instance = id_;
    e.t0 = e.t1 = opts_.obs->now();
    e.arg = static_cast<std::int64_t>(waited_ms);
    e.arg2 = static_cast<std::int64_t>(mask);
    opts_.obs->record(e);
  }
  throw MpiError(os.str());
}

void Win::lock_stuck(const ult::TaskContext& ctx, int me, int target,
                     long long waited_ms) {
  const std::uint64_t word =
      slots_[static_cast<std::size_t>(target)].lockword.load(
          std::memory_order_acquire);
  std::ostringstream os;
  os << "Win::lock stuck on window '" << opts_.name << "': rank " << me
     << " waited " << waited_ms << " ms for rank " << target
     << "'s lock word; ";
  std::uint64_t mask = 0;
  if ((word & kExclBit) != 0) {
    const int owner = static_cast<int>((word >> 32) & 0x7fffffff) - 1;
    os << "held exclusively by rank " << owner;
    if (owner >= 0 && owner < 64) mask |= std::uint64_t{1} << owner;
  } else {
    os << "held shared by " << (word & 0xffffffff) << " reader(s)";
  }
  if (opts_.obs != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::watchdog;
    e.task = task_of(ctx, me);
    e.cpu = ctx.cpu();
    e.instance = id_;
    e.t0 = e.t1 = opts_.obs->now();
    e.arg = static_cast<std::int64_t>(waited_ms);
    e.arg2 = static_cast<std::int64_t>(mask);
    opts_.obs->record(e);
  }
  throw MpiError(os.str());
}

}  // namespace hlsmpc::mpi::rma
