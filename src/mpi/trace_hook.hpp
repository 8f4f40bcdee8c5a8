// Synchronization-tracing hook interface.
//
// The paper's conclusion proposes detecting HLS-eligible variables by
// retrieving "during one execution of the code, all memory accesses to
// global variables augmented with the synchronizations induced by the MPI
// calls". The runtime exposes exactly those synchronizations through this
// interface: every point-to-point completion is reported. Collectives are
// not: in-node collectives run on ShmCollEngine and send no p2p message,
// so the synchronization they induce is not seen through this hook yet
// (ROADMAP: "An eligibility tracer that sees collectives").
// hb::RuntimeTracer implements the interface and assembles an hb::Trace
// for the eligibility analyzer.
#pragma once

namespace hlsmpc::mpi {

class TraceHook {
 public:
  virtual ~TraceHook() = default;
  /// A send initiated by `task` to `peer_task` (global task ids) in the
  /// given communicator context.
  virtual void on_send(int task, int peer_task, int context, int tag) = 0;
  /// A receive completed by `task` from `peer_task` (resolved source).
  virtual void on_recv(int task, int peer_task, int context, int tag) = 0;
};

}  // namespace hlsmpc::mpi
