// Automatic HLS-eligibility detection over a live run (the paper's
// conclusion / future work, built on the §III formalism).
//
// The tracer is an obs::Sink: chain it on the recorder the runtime
// records into — mpi::Options::obs, ClusterOptions::obs or
// hls::Runtime::Options::obs_sink — and every synchronization the MPI
// calls induce reaches it: p2p completions as send/recv pairs, every
// in-node and ClusterComm collective and every RMA fence as an n-party
// SyncWave shaped by what the call guarantees. The application reports
// reads/writes to candidate global variables through on_read/on_write —
// the instrumentation a compiler pass would insert. After the run,
// trace() assembles an hb::Trace and advise() runs the Advisor.
//
//   hb::RuntimeTracer tracer(nranks);
//   obs::Recorder rec({.ntasks = nranks, .ring_capacity = 0});
//   rec.chain(&tracer);
//   mpi::Options o;
//   o.obs = &rec;
//   ... run the program, calling tracer.on_write(task, "table", v) ...
//   for (auto& a : tracer.advise()) ...
//
// Limitations (documented, by design): receives are recorded at wait()
// (use wait, not bare test-loops, in traced programs), value tracking is
// by the caller-provided long (hash large objects), and passive-target
// lock/unlock epochs add no edge.
#pragma once

#include <mutex>

#include "hb/advisor.hpp"
#include "obs/event.hpp"

namespace hlsmpc::hb {

class RuntimeTracer final : public obs::Sink {
 public:
  explicit RuntimeTracer(int ntasks);

  // Application-side instrumentation.
  void on_read(int task, const std::string& var, long value);
  void on_write(int task, const std::string& var, long value);

  /// obs::Sink: keeps p2p, collective and RMA fence events.
  void on_event(const obs::Event& e) override;

  /// Assemble the recorded events into an analyzable trace. The k-th
  /// collective (fence) a task records under one key joins the k-th wave
  /// of that key; a wave with a member whose call threw adds no edge.
  Trace trace() const;
  /// Full pipeline: trace -> happens-before -> per-variable advice.
  std::vector<Advice> advise() const { return Advisor::advise(trace()); }

  std::size_t num_events() const;

 private:
  struct Recorded {
    EventKind kind;   ///< barrier stands for any n-party sync
    std::string var;  ///< read/write
    long value = 0;   ///< read/write
    obs::Event ev{};  ///< send/recv/barrier: the runtime's event
  };
  struct PerTask {
    mutable std::mutex mu;
    std::vector<Recorded> events;
  };

  void push(int task, Recorded r);

  int ntasks_;
  std::vector<PerTask> per_task_;
};

}  // namespace hlsmpc::hb
