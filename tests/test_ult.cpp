#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <vector>

#include "ult/fiber.hpp"
#include "ult/scheduler.hpp"
#include "ult/task_context.hpp"

namespace ult = hlsmpc::ult;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  ult::Fiber f([&] { x = 42; });
  EXPECT_TRUE(f.resume());
  EXPECT_EQ(x, 42);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  ult::Fiber f([&] {
    order.push_back(1);
    ult::Fiber::yield();
    order.push_back(3);
    ult::Fiber::yield();
    order.push_back(5);
  });
  EXPECT_FALSE(f.resume());
  order.push_back(2);
  EXPECT_FALSE(f.resume());
  order.push_back(4);
  EXPECT_TRUE(f.resume());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentIsSetOnlyInsideFiber) {
  EXPECT_EQ(ult::Fiber::current(), nullptr);
  ult::Fiber* observed = nullptr;
  ult::Fiber f([&] { observed = ult::Fiber::current(); });
  f.resume();
  EXPECT_EQ(observed, &f);
  EXPECT_EQ(ult::Fiber::current(), nullptr);
}

TEST(Fiber, ExceptionPropagatesFromResume) {
  ult::Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, MisuseThrows) {
  EXPECT_THROW(ult::Fiber::yield(), std::logic_error);  // outside a fiber
  EXPECT_THROW(ult::Fiber({}, 256 * 1024), std::invalid_argument);
  EXPECT_THROW(ult::Fiber([] {}, 1024), std::invalid_argument);  // tiny stack
  ult::Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);  // already finished
}

TEST(Scheduler, RunsAllTasks) {
  ult::Scheduler s(2);
  std::atomic<int> sum{0};
  for (int i = 0; i < 10; ++i) {
    s.spawn(i % 2, i, i, [&sum, i](ult::FiberTaskContext&) { sum += i; });
  }
  s.run();
  EXPECT_EQ(sum.load(), 45);
}

TEST(Scheduler, TasksOnSameWorkerInterleaveViaYield) {
  // Two tasks on one worker ping-pong through a shared counter; this only
  // terminates if yield() actually gives the other fiber the cpu.
  ult::Scheduler s(1);
  std::atomic<int> turn{0};
  std::vector<int> log;
  std::mutex log_mu;
  for (int me = 0; me < 2; ++me) {
    s.spawn(0, me, me, [&, me](ult::FiberTaskContext& ctx) {
      for (int round = 0; round < 3; ++round) {
        while (turn.load() % 2 != me) ctx.yield();
        {
          std::lock_guard<std::mutex> lk(log_mu);
          log.push_back(me);
        }
        turn.fetch_add(1);
      }
    });
  }
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Scheduler, TaskExceptionSurfacesFromRun) {
  ult::Scheduler s(2);
  s.spawn(0, 0, 0, [](ult::FiberTaskContext&) { throw std::runtime_error("x"); });
  s.spawn(1, 1, 1, [](ult::FiberTaskContext&) {});
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Scheduler, MigrationMovesTaskToTargetWorker) {
  ult::Scheduler s(2);
  std::atomic<int> before{-1}, after{-1};
  s.spawn(0, 0, 0, [&](ult::FiberTaskContext& ctx) {
    before = ctx.target_worker();
    ctx.set_target_worker(1);
    ctx.set_cpu(1);
    ctx.yield();  // migration takes effect here
    after = ctx.target_worker();
  });
  s.run();
  EXPECT_EQ(before.load(), 0);
  EXPECT_EQ(after.load(), 1);
}

TEST(Scheduler, RejectsBadWorkerIndex) {
  ult::Scheduler s(2);
  EXPECT_THROW(s.spawn(2, 0, 0, [](ult::FiberTaskContext&) {}),
               std::out_of_range);
  EXPECT_THROW(ult::Scheduler{0}, std::invalid_argument);
}

namespace {

// Shared harness for the executor equivalence tests: all ranks increment a
// counter under a mutex and wait for everyone. Preemptive contexts park on
// the condvar; cooperative ones poll with the lock released and yield.
void run_counter_rendezvous(ult::Executor& ex, int n) {
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<int> pins(static_cast<std::size_t>(n));
  std::iota(pins.begin(), pins.end(), 0);
  ex.run(n, pins, [&](ult::TaskContext& ctx) {
    std::unique_lock<std::mutex> lk(mu);
    ++arrived;
    cv.notify_all();
    if (!ctx.cooperative()) {
      cv.wait(lk, [&] { return arrived == n; });
      return;
    }
    while (arrived != n) {
      lk.unlock();
      ctx.yield();
      lk.lock();
    }
  });
  EXPECT_EQ(arrived, n);
}

}  // namespace

TEST(Executor, ThreadBackendRendezvous) {
  ult::ThreadExecutor ex;
  run_counter_rendezvous(ex, 8);
}

TEST(Executor, FiberBackendRendezvousSingleWorker) {
  // The hardest case: 8 tasks rendezvous on ONE kernel thread. Only works
  // because the cooperative wait yields instead of parking.
  ult::FiberExecutor ex(1);
  run_counter_rendezvous(ex, 8);
}

TEST(Executor, FiberBackendRendezvousMultiWorker) {
  ult::FiberExecutor ex(4);
  run_counter_rendezvous(ex, 16);
}

TEST(Executor, PinsAreVisibleAsCpu) {
  ult::ThreadExecutor ex;
  std::vector<int> pins = {3, 1, 4, 1};
  std::atomic<int> bad{0};
  ex.run(4, pins, [&](ult::TaskContext& ctx) {
    if (ctx.cpu() != pins[static_cast<std::size_t>(ctx.task_id())]) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Executor, PinSizeMismatchThrows) {
  ult::ThreadExecutor tex;
  ult::FiberExecutor fex(2);
  EXPECT_THROW(tex.run(3, {0, 1}, [](ult::TaskContext&) {}),
               std::invalid_argument);
  EXPECT_THROW(fex.run(3, {0, 1}, [](ult::TaskContext&) {}),
               std::invalid_argument);
}

TEST(Executor, BodyExceptionPropagates) {
  ult::ThreadExecutor ex;
  EXPECT_THROW(
      ex.run(2, {0, 1},
             [](ult::TaskContext& ctx) {
               if (ctx.task_id() == 1) throw std::runtime_error("y");
             }),
      std::runtime_error);
}

TEST(Backoff, SpinBudgetIsZeroOnOneUsableCpu) {
  // The ult_backoff_one_cpu ctest entry runs this under `taskset -c 0`;
  // on more usable cpus there is nothing to check.
  if (ult::ThreadCensus::usable_cpus() != 1) {
    GTEST_SKIP() << "needs an affinity mask of one cpu";
  }
  ult::ThreadTaskContext ctx;
  ult::Backoff backoff(ctx);
  // No spin phase: the yield probes alone lead to should_block().
  for (int probe = 0; probe < 4; ++probe) {
    EXPECT_FALSE(backoff.should_block());
    backoff.pause();
  }
  EXPECT_TRUE(backoff.should_block());
}
