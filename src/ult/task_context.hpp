// Execution context seen by a running MPI task.
//
// MPC executes MPI tasks inside user-level threads pinned to cores (paper
// §IV); blocking runtime operations must therefore yield control
// cooperatively instead of blocking the kernel thread, or every other task
// scheduled on the same core would starve. TaskContext abstracts over the
// two execution back ends we provide (kernel threads and fibers): the
// runtime's synchronisation primitives are written once against this
// interface (Backoff below; mpi::await_request for request waits).
#pragma once

#include <thread>

namespace hlsmpc::ult {

class TaskContext;

/// Observer of named synchronization points (wait/notify edges) inside the
/// runtime. The deterministic checking executor (src/check/) installs one
/// to turn every sync edge into a scheduling decision; production contexts
/// carry none and pay a single predicted branch per edge.
class ScheduleHook {
 public:
  virtual ~ScheduleHook() = default;
  /// Called at an instrumented sync edge. May suspend the task (yield to a
  /// co-scheduled one) before returning; callers therefore must not hold
  /// any lock across a sync_point.
  virtual void on_sync_point(TaskContext& ctx, const char* where) = 0;
};

class TaskContext {
 public:
  virtual ~TaskContext() = default;

  /// Give up the cpu so co-scheduled tasks can progress.
  virtual void yield() = 0;

  /// True when tasks share kernel threads cooperatively (fiber back end).
  /// Cooperative contexts must never sleep on a condition variable: the
  /// kernel thread they would park is needed to run the task they wait for.
  virtual bool cooperative() const = 0;

  int task_id() const { return task_id_; }
  /// Hardware thread this task is currently pinned to (topology index).
  int cpu() const { return cpu_; }

  void set_task_id(int id) { task_id_ = id; }
  void set_cpu(int cpu) { cpu_ = cpu; }

  ScheduleHook* schedule_hook() const { return hook_; }
  void set_schedule_hook(ScheduleHook* hook) { hook_ = hook; }

  /// Invoked by runtime code at instrumented synchronization edges
  /// (barrier arrival, single entry/exit, nowait claim, migration). Must
  /// be called with no locks held: the hook may suspend the task.
  void sync_point(const char* where) {
    if (hook_ != nullptr) hook_->on_sync_point(*this, where);
  }

 private:
  int task_id_ = -1;
  int cpu_ = -1;
  ScheduleHook* hook_ = nullptr;
};

/// Processor hint that the caller is in a spin loop (PAUSE / YIELD);
/// falls back to a thread yield where no such instruction exists.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Census of the kernel threads the runtime runs right now. The task
/// threads of ThreadExecutor::run, the workers of a fiber Scheduler and a
/// transport's receiver thread each hold a census entry while they run.
/// Spinning waiters consult it: a busy-wait only pays off while every
/// such thread can own a CPU of its own.
class ThreadCensus {
 public:
  explicit ThreadCensus(int threads);
  ~ThreadCensus();
  ThreadCensus(const ThreadCensus&) = delete;
  ThreadCensus& operator=(const ThreadCensus&) = delete;

  /// CPUs this process may run on (its sched_getaffinity mask, read once).
  static int usable_cpus();
  /// True while more runtime threads run than usable_cpus(), and always
  /// on a single usable CPU, where a spinning waiter only delays the
  /// thread that would complete its wait.
  static bool oversubscribed();

 private:
  int threads_;
};

/// Adaptive spin / yield / block waiter for the runtime's lock-free
/// primitives.
///
/// Cooperative (fiber) contexts yield on *every* probe: the kernel thread
/// they would spin on is needed to run the task they are waiting for, and
/// under the deterministic checking executor each yield is a scheduling
/// decision, so every probe stays an interposable wait edge — and they
/// never block (should_block() is always false). Preemptive contexts
/// escalate: spin with cpu_relax (a barrier partner on another core
/// usually arrives within the spin window), then a few thread yields,
/// then should_block() tells the caller to park on the atomic word it
/// polls (std::atomic::wait) so oversubscribed runs stop burning whole
/// scheduler quanta on runnable-but-idle waiters.
class Backoff {
 public:
  explicit Backoff(TaskContext& ctx)
      : ctx_(&ctx),
        cooperative_(ctx.cooperative()),
        spin_probes_(machine_spin_probes()) {}

  void pause() {
    if (cooperative_ || ++probes_ > spin_probes_) {
      ctx_->yield();
    } else {
      cpu_relax();
    }
  }

  /// True once the spin and yield phases are exhausted: the caller should
  /// block on its polled word instead of calling pause() again. Whoever
  /// changes that word must notify it (see SyncManager::flat_arrive).
  bool should_block() const {
    return !cooperative_ && probes_ >= spin_probes_ + kYieldProbes;
  }

 private:
  static constexpr int kYieldProbes = 4;

  /// Busy-waiting can only ever pay off if the partner we wait for runs
  /// simultaneously on another hardware thread; with one usable cpu (the
  /// affinity mask, not the host's count) every relax is stolen from the
  /// task we are waiting for, so skip straight to yielding there.
  static int machine_spin_probes() {
    static const int v = ThreadCensus::usable_cpus() > 1 ? 128 : 0;
    return v;
  }

  TaskContext* ctx_;
  bool cooperative_;
  int spin_probes_;
  int probes_ = 0;
};

/// TaskContext for plain kernel threads (one std::thread per MPI task).
class ThreadTaskContext final : public TaskContext {
 public:
  void yield() override { std::this_thread::yield(); }
  bool cooperative() const override { return false; }
};

}  // namespace hlsmpc::ult
