// Umbrella header: the complete public MPI-layer surface in one include.
//
//   #include "mpi/mpi.hpp"
//
// pulls in, bottom-up (see the layering diagram in comm.hpp):
//
//   types.hpp          Status/Request, error taxonomy, CollConfig, Op
//   transport.hpp      the Transport interface every byte crosses
//   shm_transport.hpp  intra-node mailbox transport (eager + rendezvous)
//   sim_fabric.hpp     deterministic simulated inter-node fabric
//   tcp_transport.hpp  stream-socket fabric for multi-process runs
//   runtime.hpp        per-node Runtime: ranks, buffers, world Comm
//   comm.hpp           Comm: p2p + collectives for one node
//   rma.hpp            one-sided windows over HLS scopes
//   cluster.hpp        SimCluster/ClusterComm: multi-node hierarchy
//
// detail/mailbox.hpp is deliberately absent: mpi::detail is transport
// implementation state, not API. Code outside src/mpi that names it is a
// layering bug.
#pragma once

#include "mpi/types.hpp"
#include "mpi/transport.hpp"
#include "mpi/shm_transport.hpp"
#include "mpi/sim_fabric.hpp"
#include "mpi/tcp_transport.hpp"
#include "mpi/runtime.hpp"
#include "mpi/comm.hpp"
#include "mpi/rma.hpp"
#include "mpi/cluster.hpp"
