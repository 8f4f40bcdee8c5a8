#include "ult/scheduler.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/recorder.hpp"

namespace hlsmpc::ult {

namespace {

std::atomic<int> g_census{0};

}  // namespace

ThreadCensus::ThreadCensus(int threads) : threads_(threads) {
  g_census.fetch_add(threads_, std::memory_order_relaxed);
}

ThreadCensus::~ThreadCensus() {
  g_census.fetch_sub(threads_, std::memory_order_relaxed);
}

int ThreadCensus::usable_cpus() {
  static const int cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      return std::max(CPU_COUNT(&set), 1);
    }
    return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
  }();
  return cpus;
}

bool ThreadCensus::oversubscribed() {
  const int cpus = usable_cpus();
  return cpus < 2 || g_census.load(std::memory_order_relaxed) > cpus;
}

void Scheduler::set_obs(obs::Recorder* obs) {
  obs_ = obs;
}

void FiberExecutor::set_obs(obs::Recorder* obs) {
  obs_ = obs;
}

Scheduler::Scheduler(int num_workers) {
  if (num_workers < 1) {
    throw std::invalid_argument("Scheduler: need at least one worker");
  }
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

void Scheduler::spawn(int worker, int task_id, int cpu,
                      std::function<void(FiberTaskContext&)> body,
                      std::size_t stack_bytes) {
  if (worker < 0 || worker >= num_workers()) {
    throw std::out_of_range("Scheduler::spawn: bad worker index");
  }
  auto task = std::make_unique<Task>();
  task->ctx.set_task_id(task_id);
  task->ctx.set_cpu(cpu);
  task->ctx.set_target_worker(worker);
  Task* raw = task.get();
  task->fiber = std::make_unique<Fiber>(
      [raw, fn = std::move(body)] { fn(raw->ctx); }, stack_bytes);
  tasks_.push_back(std::move(task));
}

void Scheduler::enqueue(Task* t) {
  // target_worker may be expressed as a cpu index by migration callers;
  // wrap onto the actual worker count (cpu -> carrying worker).
  const int w_idx = t->ctx.target_worker() % num_workers();
  Worker& w = *workers_[static_cast<std::size_t>(w_idx)];
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.ready.push_back(t);
  }
  w.cv.notify_one();
}

void Scheduler::run() {
  remaining_.store(static_cast<int>(tasks_.size()));
  done_.store(tasks_.empty());
  for (auto& t : tasks_) enqueue(t.get());

  ThreadCensus census(num_workers());
  std::vector<std::thread> threads;
  threads.reserve(workers_.size());
  for (int i = 0; i < num_workers(); ++i) {
    threads.emplace_back([this, i] { worker_loop(i); });
  }
  for (auto& th : threads) th.join();
  tasks_.clear();
  if (first_error_) std::rethrow_exception(first_error_);
}

void Scheduler::worker_loop(int index) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  while (!done_.load(std::memory_order_acquire)) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(w.mu);
      if (w.ready.empty()) {
        // Bounded wait: another worker may finish the last task or
        // migrate one here; re-check done_ regularly.
        w.cv.wait_for(lk, std::chrono::milliseconds(1));
        continue;
      }
      task = w.ready.front();
      w.ready.pop_front();
    }
    bool finished = false;
    // Counting from the worker is safe: the task's fiber resumes on this
    // very thread next, so the bump is sequenced before the task's own
    // writes to its block (still effectively single-writer).
    if (obs_ != nullptr) {
      const int tid = task->ctx.task_id();
      obs_->count(tid, obs::Counter::ctx_switches);
      obs::Event e;
      e.kind = obs::EventKind::ctx_switch;
      e.task = tid;
      e.cpu = task->ctx.cpu();
      e.t0 = e.t1 = obs_->now();
      e.arg = index;
      obs_->record(e);
    }
    try {
      finished = task->fiber->resume();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(error_mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      finished = true;  // the fiber is dead either way
    }
    if (finished) {
      if (remaining_.fetch_sub(1) == 1) {
        done_.store(true, std::memory_order_release);
        for (auto& other : workers_) other->cv.notify_all();
      }
    } else {
      enqueue(task);  // honours target_worker, so migration is a re-pin + yield
    }
  }
}

void ThreadExecutor::run(int n, const std::vector<int>& pins,
                         const std::function<void(TaskContext&)>& body) {
  if (static_cast<int>(pins.size()) != n) {
    throw std::invalid_argument("ThreadExecutor: pins.size() != n");
  }
  ThreadCensus census(n);
  std::vector<std::thread> threads;
  std::mutex error_mu;
  std::exception_ptr first_error;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ThreadTaskContext ctx;
      ctx.set_task_id(i);
      ctx.set_cpu(pins[static_cast<std::size_t>(i)]);
      try {
        body(ctx);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

void FiberExecutor::run(int n, const std::vector<int>& pins,
                        const std::function<void(TaskContext&)>& body) {
  if (static_cast<int>(pins.size()) != n) {
    throw std::invalid_argument("FiberExecutor: pins.size() != n");
  }
  Scheduler sched(num_workers_);
  sched.set_obs(obs_);
  for (int i = 0; i < n; ++i) {
    const int cpu = pins[static_cast<std::size_t>(i)];
    sched.spawn(cpu % num_workers_, i, cpu,
                [&body](FiberTaskContext& ctx) { body(ctx); }, stack_bytes_);
  }
  sched.run();
}

}  // namespace hlsmpc::ult
