// The standard observability sink: per-task counter blocks and bounded
// per-task event ring buffers.
//
// Layout is built for the writer side: each task owns one cache-line-
// aligned block holding its counters and its ring, and is the only writer
// of that block. Counter bumps are therefore relaxed single-writer
// increments (compiled to a plain add on x86 — no lock prefix, no
// contention), and ring pushes are a store plus a release publish of the
// push count. Readers (snapshot(), events()) aggregate lock-free with
// relaxed/acquire loads; they never block a writer.
//
// Counters are always coherent to read mid-run. Ring *contents* are only
// guaranteed stable when the writing tasks are quiescent (joined or
// between runs): a ring slot being overwritten while events() copies it
// would be torn. All exporters in this repo drain after the run.
// A recorder with no ring and no chained sink is not listening: now()
// reads no clock and record() drops the event, so an untraced run pays
// for its counters only. chain()'s precondition fixes that before tasks
// run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/event.hpp"
#include "obs/snapshot.hpp"

namespace hlsmpc::obs {

struct RecorderOptions {
  int ntasks = 1;
  /// Number of dense scope ids (topo::DenseScopeTable::num_scopes()) for
  /// the per-scope-level byte counters; 0 disables them.
  int num_scopes = 0;
  /// Events retained per task; the ring overwrites its oldest entry when
  /// full (dropped() counts the overwrites). 0 = no ring: counters keep
  /// working, events reach chained sinks only.
  std::size_t ring_capacity = 4096;
};

class Recorder final : public Sink {
 public:
  explicit Recorder(RecorderOptions opts);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  int ntasks() const { return static_cast<int>(blocks_.size()); }
  int num_scopes() const { return num_scopes_; }
  std::size_t ring_capacity() const { return ring_capacity_; }

  /// True when an event can reach anyone: a ring holds it or a sink was
  /// chained.
  bool listening() const { return listening_; }

  /// Nanoseconds since this recorder's construction (steady clock). All
  /// Event timestamps are expressed on this axis. 0, with no clock read,
  /// while not listening.
  std::uint64_t now() const {
    if (!listening_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Bump a counter. Single-writer per task: only `task` itself may call
  /// this for its id. Out-of-range tasks are ignored (storage touched
  /// without a task context).
  void count(int task, Counter ctr, std::uint64_t n = 1) {
    if (static_cast<unsigned>(task) >= blocks_.size()) return;
    auto& c = blocks_[static_cast<std::size_t>(task)]
                  .counters[static_cast<std::size_t>(ctr)];
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  /// Address of one task's counter cell, or nullptr when `task` is out
  /// of range. For paths too hot even for count()'s bounds check + block
  /// indexing (the warm get_addr path is ~4ns): resolve the cell once at
  /// setup, bump it with a relaxed load/add/store. Single-writer rules
  /// are the caller's to keep — only `task` itself may write the cell.
  std::atomic<std::uint64_t>* counter_cell(int task, Counter ctr) {
    if (static_cast<unsigned>(task) >= blocks_.size()) return nullptr;
    return &blocks_[static_cast<std::size_t>(task)]
                .counters[static_cast<std::size_t>(ctr)];
  }

  /// Read one task's counter (relaxed; safe mid-run). Benchmarks and
  /// tests diff this around a region instead of building a Snapshot.
  std::uint64_t counter(int task, Counter ctr) const {
    if (static_cast<unsigned>(task) >= blocks_.size()) return 0;
    return blocks_[static_cast<std::size_t>(task)]
        .counters[static_cast<std::size_t>(ctr)]
        .load(std::memory_order_relaxed);
  }

  /// Account `bytes` materialized at scope `sid` (plus one first touch).
  void count_scope_bytes(int task, int sid, std::uint64_t bytes);

  /// Append an event to the task's ring (if rings are enabled) and forward
  /// it to every chained sink. Events without a valid task go to sinks
  /// only. A no-op while not listening.
  void record(const Event& e) { if (listening_) deliver(e); }

  void on_event(const Event& e) override { record(e); }

  /// Forward every record()ed event to `s` as well and listen (call
  /// before tasks run; not synchronized against record() or now()).
  void chain(Sink* s);

  /// Aggregate all counter blocks (lock-free; safe mid-run).
  Snapshot snapshot() const;

  /// Copy out every retained event, oldest first per task, merged and
  /// sorted by start time. Call only while writers are quiescent.
  std::vector<Event> events() const;

  /// Events pushed by `task` so far (including ones already overwritten).
  std::uint64_t events_recorded(int task) const;
  /// Events of `task` lost to ring overwrite.
  std::uint64_t dropped(int task) const;

 private:
  struct alignas(64) TaskBlock {
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::vector<std::atomic<std::uint64_t>> scope_bytes;    // [sid]
    std::vector<std::atomic<std::uint64_t>> scope_touches;  // [sid]
    std::vector<Event> ring;
    std::atomic<std::uint64_t> pushed{0};
  };

  void deliver(const Event& e);

  std::chrono::steady_clock::time_point epoch_;
  bool listening_ = false;
  int num_scopes_ = 0;
  std::size_t ring_capacity_ = 0;
  std::vector<TaskBlock> blocks_;
  std::vector<Sink*> sinks_;
};

}  // namespace hlsmpc::obs
