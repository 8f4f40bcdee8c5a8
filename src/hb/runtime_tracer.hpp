// Automatic HLS-eligibility detection over a live run (the paper's
// conclusion / future work, built on the §III formalism).
//
// Attach a RuntimeTracer to the MPI runtime before running a program:
// every point-to-point completion is recorded automatically via the
// runtime's TraceHook. Collectives are not seen yet: they run on
// ShmCollEngine and send no p2p message, so a barrier or allreduce adds
// no sync edge to the trace (ROADMAP: "An eligibility tracer that sees
// collectives"). The application reports
// reads/writes to candidate global variables through on_read/on_write —
// the instrumentation a compiler pass would insert. After the run,
// trace() assembles an hb::Trace and advise() runs the Advisor.
//
//   hb::RuntimeTracer tracer(nranks);
//   runtime.set_trace_hook(&tracer);
//   runtime.run([&](Comm& world, TaskContext& ctx) {
//     ...
//     tracer.on_write(ctx.task_id(), "table", checksum);
//     ...
//   });
//   runtime.set_trace_hook(nullptr);
//   for (auto& a : tracer.advise()) ...
//
// Limitations (documented, by design): receives are recorded at wait()
// (use wait, not bare test-loops, in traced programs), and value tracking
// is by the caller-provided long (hash large objects).
#pragma once

#include <mutex>

#include "hb/advisor.hpp"
#include "mpi/trace_hook.hpp"
#include "obs/event.hpp"

namespace hlsmpc::hb {

/// Attachable two ways: as the runtime's TraceHook (set_trace_hook) or as
/// an obs::Sink chained onto an obs::Recorder's event stream — the sink
/// path decodes p2p_send/p2p_recv events into the same send/recv records.
/// Attach through one of the two, not both, or every p2p completion is
/// recorded twice.
class RuntimeTracer final : public mpi::TraceHook, public obs::Sink {
 public:
  explicit RuntimeTracer(int ntasks);

  // Application-side instrumentation.
  void on_read(int task, const std::string& var, long value);
  void on_write(int task, const std::string& var, long value);

  // mpi::TraceHook (called by the runtime).
  void on_send(int task, int peer_task, int context, int tag) override;
  void on_recv(int task, int peer_task, int context, int tag) override;

  // obs::Sink: p2p events feed the same record stream; everything else is
  // ignored, collective events included (they carry no sync edge yet; see
  // the header comment).
  void on_event(const obs::Event& e) override;

  /// Assemble the recorded events into an analyzable trace.
  Trace trace() const;
  /// Full pipeline: trace -> happens-before -> per-variable advice.
  std::vector<Advice> advise() const { return Advisor::advise(trace()); }

  std::size_t num_events() const;

 private:
  struct Recorded {
    EventKind kind;
    std::string var;
    long value = 0;
    int peer = -1;
    long tag = 0;
  };
  struct PerTask {
    mutable std::mutex mu;
    std::vector<Recorded> events;
  };

  static long combined_tag(int context, int tag) {
    return (static_cast<long>(context) << 32) |
           static_cast<long>(static_cast<unsigned>(tag));
  }

  int ntasks_;
  std::vector<PerTask> per_task_;
};

}  // namespace hlsmpc::hb
