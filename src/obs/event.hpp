// Runtime observability: the event and counter vocabulary.
//
// One event stream describes everything the runtime does that is worth
// seeing from outside: synchronization episodes with their latencies
// (barrier enter->release, single block duration, migration stalls),
// storage first touches with the bytes they materialized, MPI traffic and
// collectives, and scheduler context switches. Consumers implement Sink;
// the Recorder (recorder.hpp) is the standard sink that turns the stream
// into per-task counters and bounded ring buffers, and further sinks can
// be chained behind it (the happens-before tracer in src/hb/ is one).
//
// Instrumentation is always compiled in and configured at run time: a
// site with no recorder attached costs one null test, and a recorder with
// ring_capacity 0 keeps its counters and feeds its chained sinks but
// stores no events. With no sink chained either it is not listening:
// sites read no clock and record() drops their events (recorder.hpp);
// sinks are chained before tasks run, which settles that up front.
#pragma once

#include <array>
#include <cstdint>

namespace hlsmpc::obs {

/// Monotonically counted runtime facts. Per-task blocks of these are
/// bumped with relaxed single-writer increments (a plain add on x86) so a
/// counter on the warm get_addr path costs ~1 cycle.
enum class Counter : int {
  get_addr_warm,        ///< get_addr served from the per-task address cache
  get_addr_cold,        ///< get_addr that resolved through StorageManager
  first_touches,        ///< module regions this task materialized
  barrier_entries,      ///< barrier directives entered
  single_wins,          ///< single directives where this task ran the block
  single_losses,        ///< single directives where another task ran it
  nowait_claims,        ///< single-nowait sites claimed
  nowait_skips,         ///< single-nowait sites skipped
  migrations_ok,        ///< MPC_Move accepted
  migrations_rejected,  ///< MPC_Move refused by the counter check
  ctx_switches,         ///< fiber resumes on a scheduler worker
  coll_ops,             ///< MPI collective operations entered
  p2p_sends,            ///< point-to-point sends initiated
  p2p_recvs,            ///< point-to-point receives completed
  coll_shm_ops,         ///< collectives served by the shared-memory engine
  coll_shm_pipelined_ops,  ///< shm collectives served by the fragmented
                           ///< pipelined large-message path
  rma_puts,             ///< one-sided puts performed
  rma_gets,             ///< one-sided gets performed
  rma_accs,             ///< one-sided accumulates applied
  rma_bytes,            ///< bytes moved by one-sided ops (put + get + acc)
  rma_fences,           ///< RMA fence epochs completed
  rma_locks,            ///< passive-target RMA locks acquired
  net_sends,            ///< inter-node (fabric/socket) sends initiated
  net_recvs,            ///< inter-node (fabric/socket) receives completed
  net_retries,          ///< inter-node ops re-issued after transient failure
  recoveries,           ///< recovery episodes completed (shrink agreements)
  ckpt_bytes,           ///< bytes written to / read from scope checkpoints
  tier_spills,          ///< module regions materialized on the storage tier
                        ///< (file-backed / spill instead of anonymous DRAM)
  tier_cache_hits,      ///< storage-tier pages touched that the kernel's
                        ///< page cache held (mincore)
  tier_cache_misses,    ///< storage-tier pages touched that it did not
                        ///< (a run of them triggers a bulk read-ahead)
  tier_preread_bytes,   ///< bytes bulk-read from backing files on misses
  tier_writeback_bytes, ///< bytes written back to backing files (what the
                        ///< kernel held dirty at a flush)
  tier_crc_full_passes,     ///< dirty-tracking CRC passes that hashed every
                            ///< page of a file-tier region
  tier_crc_tracked_passes,  ///< dirty-tracking CRC passes that hashed only
                            ///< the pages the kernel reported written
  wait_spin_completions,  ///< request waits the bounded spin satisfied
  wait_parks,             ///< request waits that fell through to the
                          ///< mutex/condvar park
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

const char* to_string(Counter c);

/// What an Event describes. Kinds with a duration span [t0, t1]; instant
/// kinds carry t0 == t1.
enum class EventKind : std::uint8_t {
  barrier,      ///< one barrier episode: enter -> release
  single_exec,  ///< elected executor: enter -> single_done
  single_wait,  ///< non-executor: enter -> release
  nowait,       ///< single-nowait site (instant; flag = claimed)
  migration,    ///< MPC_Move stall: enter -> re-pin (flag = accepted)
  first_touch,  ///< lazy region materialization (arg = bytes)
  collective,   ///< one MPI collective call (arg = coll_event_arg, arg2 =
                ///< sync_key(coll context, call sequence, or -1 for calls
                ///< that draw none: the k-th such call of every member is
                ///< one call); instance = root task for rooted
                ///< ops, the caller's comm rank for scan/exscan, else -1;
                ///< flag = completed, false when the call threw)
  p2p_send,     ///< send initiated (arg = peer task, arg2 = sync_key)
  p2p_recv,     ///< receive completed (arg = peer task, arg2 = sync_key)
  ctx_switch,   ///< fiber resumed on a worker (arg = worker)
  watchdog,     ///< sync watchdog fired: a barrier/single/RMA epoch stuck
                ///< past the deadline (instant; arg = ms waited, arg2 =
                ///< missing-task bitmask for tasks 0..63)
  rma_op,       ///< one one-sided op: put/get/accumulate (instance =
                ///< window id, arg = RmaOp, arg2 = bytes)
  rma_epoch,    ///< one RMA epoch episode: fence enter -> exit (arg = 0,
                ///< arg2 = fence epoch) or lock -> unlock (arg = 1
                ///< shared / 2 exclusive, arg2 = target rank); instance =
                ///< window id
  recovery,     ///< one recovery episode: NodeDeadError -> shrink agreement
                ///< installed (arg = agreed dead-node bitmask, arg2 =
                ///< agreement attempts used)
  tier_spill,   ///< a module region materialized on the storage tier
                ///< (instant; arg = region bytes, arg2 = 1 when the backing
                ///< file pre-existed and was re-opened, 0 when fresh)
  tier_preread, ///< one bulk read-ahead: a page-cache miss pulled a window
                ///< of pages from the backing file (arg = bytes read,
                ///< arg2 = pages)
  tier_writeback,  ///< one msync of a region flush (arg = bytes
                   ///< written, arg2 = tier pages covered)
};

const char* to_string(EventKind k);

/// One-sided op id carried in Event::arg for EventKind::rma_op.
enum class RmaOp : std::int8_t { put, get, accumulate };

const char* to_string(RmaOp op);

/// Collective operation id carried in Event::arg for EventKind::collective.
enum class CollOp : std::int8_t {
  barrier, bcast, reduce, allreduce, gather, gatherv, scatter, allgather,
  alltoall, scan, exscan, reduce_scatter,
};

const char* to_string(CollOp op);

/// Algorithm the collective dispatcher chose for one call, carried in the
/// second byte of Event::arg for EventKind::collective (the low byte is
/// the CollOp). p2p = mailbox message passing (binomial/dissemination
/// trees); shm_flat = staged copies through the per-comm shared control
/// block with a flat completion barrier; shm_hier = zero-copy reads from
/// published user buffers with the topology-aware hierarchical barrier;
/// shm_pipelined = shm_hier plus data-wise fragmentation — payloads above
/// the pipeline threshold move as cache-friendly fragments with
/// per-fragment release-publish sequence numbers, so tree levels overlap.
enum class CollAlg : std::int8_t { p2p, shm_flat, shm_hier, shm_pipelined };

const char* to_string(CollAlg alg);

/// Event::arg of a collective: op, algorithm and payload bytes.
inline constexpr std::int64_t coll_event_arg(CollOp op, CollAlg alg,
                                             std::int64_t bytes = 0) {
  return static_cast<std::int64_t>(op) |
         (static_cast<std::int64_t>(alg) << 8) | (bytes << 16);
}
inline constexpr CollOp coll_op_of(std::int64_t arg) {
  return static_cast<CollOp>(arg & 0xff);
}
inline constexpr CollAlg coll_alg_of(std::int64_t arg) {
  return static_cast<CollAlg>((arg >> 8) & 0xff);
}
inline constexpr std::int64_t coll_bytes_of(std::int64_t arg) {
  return arg >> 16;
}

/// Event::arg2 of p2p and collective events: the matching context over
/// the message tag or the collective call's sequence number.
inline constexpr std::int64_t sync_key(int context, int tag) {
  return (static_cast<std::int64_t>(context) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(tag));
}
inline constexpr int key_context_of(std::int64_t key) {
  return static_cast<int>(key >> 32);
}
inline constexpr std::uint32_t key_tag_of(std::int64_t key) {
  return static_cast<std::uint32_t>(key);
}

/// One observable runtime step; rings of these are per-task.
struct Event {
  EventKind kind = EventKind::barrier;
  bool flag = false;        ///< nowait: claimed; migration: accepted
  std::int16_t sid = -1;    ///< dense scope id (topo::DenseScopeTable), -1 n/a
  int task = -1;
  int cpu = -1;
  int instance = -1;        ///< scope instance index, -1 when not scoped
  std::uint64_t t0 = 0;     ///< ns since the recorder's epoch
  std::uint64_t t1 = 0;     ///< == t0 for instant events
  std::int64_t arg = 0;     ///< kind-specific payload (bytes, peer, op...)
  std::int64_t arg2 = 0;    ///< secondary payload (p2p: sync_key)

  std::uint64_t duration_ns() const { return t1 - t0; }
};
static_assert(sizeof(Event) == 48, "rings hold 48-byte events");

/// Receives every recorded event. May be called concurrently from all
/// tasks; implementations synchronize internally. Install sinks before
/// tasks start and keep them alive until the tasks joined.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& e) = 0;
};

}  // namespace hlsmpc::obs
