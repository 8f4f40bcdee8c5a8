// One simulated computational node running an MPI program with HLS
// support — the "MPC with the HLS mechanism enabled" configuration of the
// paper's experiments. Combines the thread-based MPI runtime and the HLS
// runtime over a single memory tracker, so per-node measurements cover
// application data, HLS storage and MPI runtime buffers together, like
// the paper's whole-node probe (§V.B).
#pragma once

#include <functional>

#include "hls/hls.hpp"
#include "mpi/runtime.hpp"

namespace hlsmpc::mpc {

struct NodeOptions {
  mpi::Options mpi;
  /// Observability recorder shared by both runtimes. Null = the HLS
  /// runtime owns one and the MPI runtime records into it too. Node
  /// always wires `mpi.obs` itself; a value set there directly is
  /// overwritten.
  obs::Recorder* obs = nullptr;
  /// Extra sink chained onto the node's event stream.
  obs::Sink* obs_sink = nullptr;
  std::size_t obs_ring_capacity = 4096;
  /// Sync watchdog deadline for the HLS runtime (0 = off); see
  /// hls::Runtime::Options::watchdog_ms.
  int watchdog_ms = 0;
  /// Storage-tier configuration for the HLS runtime (backing directory,
  /// page-cache sizing); see hls::Runtime::Options::tier.
  hls::TierConfig tier = {};
};

class Node {
 public:
  Node(const topo::Machine& machine, NodeOptions opts,
       memtrack::Tracker* tracker = nullptr);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Run the MPI+HLS program: `body(world, hls_view)` once per rank.
  void run(const std::function<void(mpi::Comm&, hls::TaskView&)>& body);

  /// MPC_Move: migrate the calling task to `new_cpu`. Performs the HLS
  /// counter check (§IV.A, throws hls::HlsError on mismatch), updates the
  /// task's pinning, and — on the fiber back end — re-pins the fiber to
  /// the worker carrying that cpu at the next yield.
  static void move_task(hls::TaskView& view, int new_cpu);

  mpi::Runtime& mpi_rt() { return mpi_; }
  hls::Runtime& hls_rt() { return hls_; }
  memtrack::Tracker& tracker() { return *tracker_; }
  const topo::Machine& machine() const { return mpi_.machine(); }
  /// The node-wide recorder (HLS + MPI + scheduler); never null.
  obs::Recorder* obs() const { return hls_.obs(); }

 private:
  std::unique_ptr<memtrack::Tracker> owned_tracker_;
  memtrack::Tracker* tracker_;
  // hls_ first: it owns (or adopts) the recorder the MPI runtime shares.
  hls::Runtime hls_;
  mpi::Runtime mpi_;
};

}  // namespace hlsmpc::mpc
