// Node runtime: hosts the MPI tasks of one computational node.
//
// Mirrors MPC's design (paper §IV): MPI tasks share one address space and
// are pinned to hardware threads of the machine's topology; the executor
// back end chooses between kernel threads and user-level fibers. The
// runtime owns the communicator registry, the intra-node ShmTransport
// (transport.hpp), the eager buffer manager and the memory tracker the
// benchmarks read.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "memtrack/memtrack.hpp"
#include "mpi/buffers.hpp"
#include "mpi/comm.hpp"
#include "mpi/transport.hpp"
#include "obs/event.hpp"
#include "topo/topology.hpp"
#include "ult/scheduler.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::mpi {

enum class ExecutorKind { thread, fiber };

struct Options {
  int nranks = 0;  ///< 0 = one rank per hardware thread.
  BufferConfig buffers;
  ExecutorKind executor = ExecutorKind::thread;
  /// Fiber back end: kernel threads carrying the fibers. 0 = one per
  /// machine cpu, capped at the host's hardware concurrency.
  int fiber_workers = 0;
  /// Job-wide rank count for the per-pair buffer reservation model
  /// (ranks on other nodes of the cluster). 0 = nranks (single node job).
  int total_ranks = 0;
  /// Charged per task to Category::runtime_other (descriptor + stack).
  std::size_t per_task_overhead_bytes = 64 * 1024;
  /// Observability recorder for p2p/collective counters and events plus
  /// scheduler context switches; typically shared with the HLS runtime
  /// (mpc::Node does). Null = no MPI-side recording.
  obs::Recorder* obs = nullptr;
  /// Shared-memory collective engine tuning. Runtime construction applies
  /// the HLSMPC_COLL_* environment overrides on top (coll_config_from_env).
  CollConfig coll;
};

/// Apply the HLSMPC_COLL_* environment overrides to `base` and return the
/// result, range-clamped to sane values:
///   HLSMPC_COLL_SHM=0|1                  enable_shm
///   HLSMPC_COLL_SMALL_THRESHOLD=<bytes>  staged/zero-copy crossover,
///                                        clamped to [0, 1 MiB]
///   HLSMPC_COLL_PIPELINE_THRESHOLD=<bytes>
///                                        pipelined-path crossover, clamped
///                                        up to small_threshold; 0 means
///                                        "never pipeline" (SIZE_MAX)
///   HLSMPC_COLL_FRAGMENT_BYTES=<bytes>   fragment size, clamped to
///                                        [1 KiB, 16 MiB]
///   HLSMPC_COLL_PIPELINE_YIELD=0|1       producer yield while publishing
/// Unset or unparsable variables leave the corresponding field untouched.
CollConfig coll_config_from_env(CollConfig base);

class Runtime {
 public:
  /// If `tracker` is null the runtime owns a private one.
  Runtime(const topo::Machine& machine, Options opts,
          memtrack::Tracker* tracker = nullptr);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Run `body` once per rank to completion (the whole MPI program).
  /// May be called repeatedly; communicators created by split/dup in a
  /// previous run stay registered.
  void run(const std::function<void(Comm&, ult::TaskContext&)>& body);

  Comm& world() { return *world_; }
  int nranks() const { return nranks_; }
  const topo::Machine& machine() const { return machine_; }
  memtrack::Tracker& tracker() { return *tracker_; }
  BufferManager& buffers() { return *buffers_; }
  /// The intra-node transport every Comm of this runtime sends through.
  Transport& transport() { return *transport_; }
  TransportStats& stats() { return transport_->stats(); }
  const CollConfig& coll_config() const { return opts_.coll; }
  /// Cpu each rank is pinned to (rank-major round robin over the machine).
  int cpu_of_rank(int rank) const;

  /// Recovery hook: re-zero every registered communicator's shared-memory
  /// collective engine and drain the intra-node transport's mailboxes —
  /// the clean slate ClusterComm::shrink installs on surviving nodes.
  /// Quiescent callers only (no rank inside a collective or with a
  /// pending p2p operation).
  void reset_collectives();

  /// The recorder passed via Options; nullptr when unset.
  obs::Recorder* obs() const { return obs_; }

  // -- internals used by Comm --
  int alloc_context();
  Comm& register_comm(std::unique_ptr<Comm> comm);
  /// Take ownership of a collectively created RMA window (Comm::win_create
  /// registers through here; windows outlive the creating run() call until
  /// released).
  rma::Win& register_win(std::unique_ptr<rma::Win> win);
  /// Destroy a registered window (Comm::win_free). No-op for unknown wins.
  void release_win(rma::Win& win);

 private:
  topo::Machine machine_;
  Options opts_;
  std::unique_ptr<memtrack::Tracker> owned_tracker_;
  memtrack::Tracker* tracker_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<std::unique_ptr<rma::Win>> wins_;  // guarded by comms_mu_
  std::mutex comms_mu_;
  std::atomic<int> next_context_{0};
  obs::Recorder* obs_ = nullptr;
  Comm* world_ = nullptr;
  int nranks_ = 0;
  std::unique_ptr<ult::Executor> executor_;
};

}  // namespace hlsmpc::mpi
