// Request completion waits: the spin-then-park policy of await_request
// and the transport-level wait wrappers built on it.
#include <algorithm>

#include "mpi/transport.hpp"
#include "obs/recorder.hpp"

namespace hlsmpc::mpi {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a preemptive waiter polls `done` before it parks. A leader
/// exchange on an idle core completes within a few microseconds, while a
/// futex sleep and wake costs about ten; 50 us covers the former with
/// room and bounds what a wait for a slow peer burns.
constexpr auto kSpinBound = std::chrono::microseconds(50);
/// Spin probes between two clock reads.
constexpr unsigned kProbesPerClockRead = 64;

void count_wait(obs::Recorder* obs, int task, obs::Counter c) {
  if (obs != nullptr) obs->count(task, c);
}

/// Rethrow a failed completion, copy out its status and release the
/// request. `req` must be done.
void finish(Request& req, Status* status) {
  const RequestState& st = *req.state();
  if (!st.error.empty()) {
    if (st.error_node >= 0) throw NodeDeadError(st.error_node, st.error);
    throw MpiError(st.error);
  }
  if (status != nullptr) *status = st.status;
  req.state().reset();
}

}  // namespace

bool await_request(ult::TaskContext& ctx, RequestState& st,
                   Clock::time_point deadline, obs::Recorder* obs) {
  const auto done = [&] { return st.done.load(std::memory_order_acquire); };
  if (done()) return true;
  const bool timed = deadline != Clock::time_point::max();
  if (ctx.cooperative()) {
    // The kernel thread is needed to run the completer, and under the
    // deterministic executor each yield is a scheduling decision. The
    // deadline only bounds a genuinely silent peer (in the simulated
    // fabric a death error-completes the request promptly).
    while (!done()) {
      if (timed && Clock::now() >= deadline) return false;
      ctx.yield();
    }
    return true;
  }
  if (!ult::ThreadCensus::oversubscribed()) {
    const Clock::time_point spin_end =
        std::min(Clock::now() + kSpinBound, deadline);
    for (unsigned probe = 1;; ++probe) {
      ult::cpu_relax();
      if (done()) {
        count_wait(obs, ctx.task_id(), obs::Counter::wait_spin_completions);
        return true;
      }
      if (probe % kProbesPerClockRead == 0 && Clock::now() >= spin_end) {
        break;
      }
    }
  }
  // A condvar wait on a passed deadline still sleeps out the kernel's
  // timer slack (~50 us), so an expired wait must not reach it.
  if (timed && Clock::now() >= deadline) return done();
  count_wait(obs, ctx.task_id(), obs::Counter::wait_parks);
  std::unique_lock<std::mutex> lk(st.mu);
  if (!timed) {
    st.cv.wait(lk, done);
    return true;
  }
  return st.cv.wait_until(lk, deadline, done);
}

void transport_wait(ult::TaskContext& ctx, Request& req, Status* status,
                    obs::Recorder* obs) {
  if (!req.valid()) throw MpiError("transport_wait: invalid request");
  await_request(ctx, *req.state(), Clock::time_point::max(), obs);
  finish(req, status);
}

bool transport_wait_for(ult::TaskContext& ctx, Request& req,
                        std::chrono::milliseconds timeout, Status* status) {
  if (!req.valid()) throw MpiError("transport_wait_for: invalid request");
  if (!await_request(ctx, *req.state(), Clock::now() + timeout)) {
    return false;
  }
  finish(req, status);
  return true;
}

}  // namespace hlsmpc::mpi
