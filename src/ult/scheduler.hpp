// Cooperative scheduler multiplexing fibers over per-core workers.
//
// Mirrors MPC's execution model: each worker stands for one hardware
// thread of the node; MPI tasks are fibers pinned to a worker and only
// move when the application explicitly migrates them (MPC_Move, paper
// §IV.A). The Executor interface at the bottom lets the MPI runtime run
// the same task body on either back end (kernel threads or fibers).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "ult/fiber.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::obs {
class Recorder;
}  // namespace hlsmpc::obs

namespace hlsmpc::ult {

class Scheduler;

/// TaskContext for fiber-backed tasks. yield() suspends the fiber and
/// requeues it on its (possibly new) worker.
class FiberTaskContext final : public TaskContext {
 public:
  void yield() override { Fiber::yield(); }
  bool cooperative() const override { return true; }

  /// Worker this task will run on after its next yield.
  int target_worker() const { return target_worker_.load(); }

  /// Re-pin the task; takes effect at the next yield. Used to implement
  /// task migration. Callers must also update cpu() via set_cpu().
  void set_target_worker(int w) { target_worker_.store(w); }

 private:
  std::atomic<int> target_worker_{0};
};

class Scheduler {
 public:
  explicit Scheduler(int num_workers);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Record every fiber resume (counter + instant event) into `obs`.
  /// Call before run().
  void set_obs(obs::Recorder* obs);

  /// Register a task before run(). `worker` is the initial pinning;
  /// the body receives the task's context.
  void spawn(int worker, int task_id, int cpu,
             std::function<void(FiberTaskContext&)> body,
             std::size_t stack_bytes = 256 * 1024);

  /// Run all spawned tasks to completion. Rethrows the first task
  /// exception after all workers have stopped.
  void run();

 private:
  struct Task {
    std::unique_ptr<Fiber> fiber;
    FiberTaskContext ctx;
  };

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task*> ready;
  };

  void worker_loop(int index);
  void enqueue(Task* t);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Task>> tasks_;
  obs::Recorder* obs_ = nullptr;
  std::atomic<int> remaining_{0};
  std::atomic<bool> done_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

/// Runs `n` task bodies to completion; pins[i] is the hardware thread of
/// task i (drives HLS scope resolution and, in fiber mode, the worker).
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void run(int n, const std::vector<int>& pins,
                   const std::function<void(TaskContext&)>& body) = 0;
  virtual const char* name() const = 0;
};

/// One kernel thread per task. Preemptive; tasks may outnumber cpus.
class ThreadExecutor final : public Executor {
 public:
  void run(int n, const std::vector<int>& pins,
           const std::function<void(TaskContext&)>& body) override;
  const char* name() const override { return "thread"; }
};

/// Fibers over `num_workers` kernel threads; task i starts on worker
/// pins[i] % num_workers, matching MPC's task-per-core placement.
class FiberExecutor final : public Executor {
 public:
  explicit FiberExecutor(int num_workers, std::size_t stack_bytes = 256 * 1024)
      : num_workers_(num_workers), stack_bytes_(stack_bytes) {}
  void run(int n, const std::vector<int>& pins,
           const std::function<void(TaskContext&)>& body) override;
  const char* name() const override { return "fiber"; }

  /// Forwarded to the Scheduler of every run().
  void set_obs(obs::Recorder* obs);

 private:
  int num_workers_;
  std::size_t stack_bytes_;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace hlsmpc::ult
