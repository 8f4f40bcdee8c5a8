// Failure containment: the fault injector itself, every injection site
// reachable from the public API, the error taxonomy on HlsError/ShmError,
// crash-safe process supervision, and the sync watchdog.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "fault/injector.hpp"
#include "hls/hls.hpp"
#include "shm/arena.hpp"
#include "shm/process_node.hpp"
#include "shm/segment.hpp"
#include "ult/scheduler.hpp"

namespace check = hlsmpc::check;
namespace fault = hlsmpc::fault;
namespace hls = hlsmpc::hls;
namespace shm = hlsmpc::shm;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;

using hlsmpc::ErrorCode;

namespace {

/// Run `n` tasks pinned to cpus 0..n-1 (the test_hls idiom).
void run_tasks(hls::Runtime& rt, int n, ult::Executor& ex,
               const std::function<void(hls::TaskView&)>& body) {
  std::vector<int> pins(static_cast<std::size_t>(n));
  std::iota(pins.begin(), pins.end(), 0);
  ex.run(n, pins, [&](ult::TaskContext& ctx) {
    hls::TaskView view(rt, ctx);
    body(view);
  });
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

}  // namespace

// ---------- error taxonomy ----------

TEST(ErrorTaxonomy, RecoverableClassification) {
  static_assert(hlsmpc::recoverable(ErrorCode::invalid_argument));
  static_assert(hlsmpc::recoverable(ErrorCode::not_eligible));
  static_assert(hlsmpc::recoverable(ErrorCode::out_of_memory));
  static_assert(hlsmpc::recoverable(ErrorCode::segment_create));
  static_assert(hlsmpc::recoverable(ErrorCode::segment_address));
  static_assert(hlsmpc::recoverable(ErrorCode::arena_exhausted));
  static_assert(hlsmpc::recoverable(ErrorCode::fork_failed));
  static_assert(!hlsmpc::recoverable(ErrorCode::task_died));
  static_assert(!hlsmpc::recoverable(ErrorCode::sync_timeout));
  static_assert(!hlsmpc::recoverable(ErrorCode::deadlock));
  static_assert(!hlsmpc::recoverable(ErrorCode::corruption));
  EXPECT_STREQ(hlsmpc::to_string(ErrorCode::arena_exhausted),
               "arena_exhausted");
  EXPECT_STREQ(hlsmpc::to_string(ErrorCode::task_died), "task_died");
}

TEST(ErrorTaxonomy, DefaultsToInvalidArgument) {
  hls::HlsError he("x");
  EXPECT_EQ(he.code(), ErrorCode::invalid_argument);
  EXPECT_TRUE(he.recoverable());
  shm::ShmError se("y");
  EXPECT_EQ(se.code(), ErrorCode::invalid_argument);
  EXPECT_TRUE(se.recoverable());
}

// ---------- the injector itself ----------

TEST(FaultInjector, UninstalledSitesAreInert) {
  ASSERT_EQ(fault::FaultInjector::global(), nullptr);
  EXPECT_FALSE(fault::should_fail("shm:mmap"));
  fault::tick_sync_point();  // no-op, must not crash
}

TEST(FaultInjector, NthHitCountdown) {
  fault::FaultInjector inj;
  inj.arm("x", /*nth=*/3);
  EXPECT_FALSE(inj.should_fail("x", -1));
  EXPECT_FALSE(inj.should_fail("x", -1));
  EXPECT_TRUE(inj.should_fail("x", -1));
  EXPECT_FALSE(inj.should_fail("x", -1));  // one-shot by default
  EXPECT_EQ(inj.hits("x"), 4u);
  EXPECT_EQ(inj.fired("x"), 1u);
  EXPECT_EQ(inj.hits("y"), 0u);
}

TEST(FaultInjector, TimesAlwaysAndDisarm) {
  fault::FaultInjector inj;
  inj.arm("x", 1, -1, /*times=*/2);
  EXPECT_TRUE(inj.should_fail("x", -1));
  EXPECT_TRUE(inj.should_fail("x", -1));
  EXPECT_FALSE(inj.should_fail("x", -1));
  inj.arm_always("y");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(inj.should_fail("y", i));
  inj.disarm("y");
  EXPECT_FALSE(inj.should_fail("y", -1));
  EXPECT_EQ(inj.fired("y"), 10u);
}

TEST(FaultInjector, IndexOperandFilters) {
  fault::FaultInjector inj;
  inj.arm("process:fork", /*nth=*/1, /*index=*/2);
  EXPECT_FALSE(inj.should_fail("process:fork", 0));
  EXPECT_FALSE(inj.should_fail("process:fork", 1));
  EXPECT_TRUE(inj.should_fail("process:fork", 2));
  EXPECT_FALSE(inj.should_fail("process:fork", 2));
  EXPECT_EQ(inj.hits("process:fork"), 4u);
  EXPECT_EQ(inj.fired("process:fork"), 1u);
}

TEST(FaultInjector, SeededModeIsAPureFunctionOfTheSeed) {
  auto sequence = [](std::uint64_t seed) {
    fault::FaultInjector inj;
    inj.seed(seed, 0.5);
    std::vector<bool> fires;
    for (int i = 0; i < 256; ++i) fires.push_back(inj.should_fail("x", -1));
    return fires;
  };
  const auto a = sequence(7);
  EXPECT_EQ(a, sequence(7));
  EXPECT_NE(a, sequence(8));
  const auto n = std::count(a.begin(), a.end(), true);
  EXPECT_GT(n, 64);  // ~128 expected at p=0.5
  EXPECT_LT(n, 192);
}

TEST(FaultInjector, SyncPointGatingWaitsForTheClock) {
  fault::FaultInjector inj;
  inj.arm_at_sync_point("x", /*sync_point=*/3);
  EXPECT_FALSE(inj.should_fail("x", -1));  // clock at 0: dormant
  inj.tick_sync_point();
  inj.tick_sync_point();
  EXPECT_FALSE(inj.should_fail("x", -1));  // clock at 2: still dormant
  inj.tick_sync_point();
  EXPECT_TRUE(inj.should_fail("x", -1));
  EXPECT_EQ(inj.sync_points(), 3u);
}

TEST(FaultInjector, DeterministicExecutorTicksTheClock) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  std::vector<int> pins{0, 1};
  ex.run(2, pins, [](ult::TaskContext& ctx) {
    for (int i = 0; i < 3; ++i) ctx.sync_point("test");
  });
  // 2 tasks x 3 instrumented sync edges.
  EXPECT_EQ(inj.sync_points(), 6u);
}

TEST(FaultInjector, ScopedInstallationUninstallsOnExit) {
  {
    fault::FaultInjector inj;
    fault::ScopedFaultInjection scoped(inj);
    EXPECT_EQ(fault::FaultInjector::global(), &inj);
    inj.arm_always("x");
    EXPECT_TRUE(fault::should_fail("x"));
  }
  EXPECT_EQ(fault::FaultInjector::global(), nullptr);
  EXPECT_FALSE(fault::should_fail("x"));
}

// ---------- shm injection sites ----------

TEST(FaultSites, AnonymousSegmentMmapFailure) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("shm:anon_mmap");
  try {
    shm::AnonymousSegment seg(1 << 16);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::segment_create);
    EXPECT_TRUE(e.recoverable());
    EXPECT_TRUE(contains(e.what(), "mmap")) << e.what();
  }
  // One-shot arming: the retry path is open again.
  shm::AnonymousSegment ok(1 << 16);
  EXPECT_NE(ok.base(), nullptr);
}

TEST(FaultSites, NamedSegmentShmOpenFailure) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("shm:shm_open");
  const std::string name = shm::NamedSegment::unique_name("faultopen");
  try {
    shm::NamedSegment seg(name, 4096, nullptr, /*owner=*/true);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::segment_create);
    EXPECT_TRUE(contains(e.what(), "shm_open")) << e.what();
  }
}

TEST(FaultSites, NamedSegmentFtruncateFailureUnlinks) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("shm:ftruncate");
  const std::string name = shm::NamedSegment::unique_name("faulttrunc");
  try {
    shm::NamedSegment seg(name, 4096, nullptr, /*owner=*/true);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::segment_create);
    EXPECT_TRUE(contains(e.what(), "ftruncate")) << e.what();
  }
  // The failed create must not leak the /dev/shm entry.
  EXPECT_THROW(shm::NamedSegment(name, 4096, nullptr, /*owner=*/false),
               shm::ShmError);
}

TEST(FaultSites, NamedSegmentMmapFailure) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("shm:mmap");
  const std::string name = shm::NamedSegment::unique_name("faultmap");
  try {
    shm::NamedSegment seg(name, 4096, nullptr, /*owner=*/true);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::segment_create);
  }
}

TEST(FaultSites, NamedSegmentWrongAddressIsItsOwnCode) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("shm:map_address");
  const std::string name = shm::NamedSegment::unique_name("faultaddr");
  void* hint = reinterpret_cast<void*>(0x7f5678900000ULL);
  try {
    shm::NamedSegment seg(name, 4096, hint, /*owner=*/true);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::segment_address);
    EXPECT_TRUE(e.recoverable());
    EXPECT_TRUE(contains(e.what(), "address")) << e.what();
  }
}

TEST(FaultSites, ArenaExhaustionDespiteFreeSpace) {
  std::vector<std::byte> mem(1 << 16);
  shm::Arena* a = shm::Arena::create(mem.data(), mem.size());
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("arena:allocate");
  try {
    a->allocate(64);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::arena_exhausted);
    EXPECT_TRUE(e.recoverable());
  }
  // Recoverable means exactly that: the next allocation succeeds.
  void* p = a->allocate(64);
  ASSERT_NE(p, nullptr);
  a->deallocate(p);
  EXPECT_EQ(a->bytes_used(), 0u);
}

TEST(FaultSites, StorageFirstTouchOutOfMemory) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 1);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope(), 1);
  mb.commit();
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("storage:first_touch");
  std::atomic<int> caught{0};
  std::atomic<int> ok_after{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 1, ex, [&](hls::TaskView& view) {
    try {
      view.get(v);
    } catch (const hls::HlsError& e) {
      if (e.code() == ErrorCode::out_of_memory && e.recoverable() &&
          contains(e.what(), "first-touch") &&
          contains(e.what(), "out of memory")) {
        ++caught;
      }
    }
    // Nothing was published on failure; the retry allocates cleanly.
    if (view.get(v) == 1) ++ok_after;
  });
  EXPECT_EQ(caught.load(), 1);
  EXPECT_EQ(ok_after.load(), 1);
  EXPECT_EQ(inj.fired("storage:first_touch"), 1u);
}

// ---------- public-API throw sites carry the right codes ----------

TEST(ErrorTaxonomy, RegistryMisuseIsInvalidArgument) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  hls::add_var<int>(mb, "x", topo::node_scope());
  try {
    hls::add_var<int>(mb, "x", topo::node_scope());
    FAIL() << "expected HlsError";
  } catch (const hls::HlsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
    EXPECT_TRUE(e.recoverable());
  }
  mb.commit();
  try {
    mb.commit();
    FAIL() << "expected HlsError";
  } catch (const hls::HlsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
  }
}

TEST(ErrorTaxonomy, MigrateBadCpuIsInvalidArgument) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 1);
  ult::ThreadExecutor ex;
  std::atomic<int> code_ok{0};
  run_tasks(rt, 1, ex, [&](hls::TaskView& view) {
    try {
      view.migrate(999);
    } catch (const hls::HlsError& e) {
      if (e.code() == ErrorCode::invalid_argument) ++code_ok;
    }
  });
  EXPECT_EQ(code_ok.load(), 1);
}

TEST(ErrorTaxonomy, MigrateCounterMismatchIsNotEligible) {
  topo::Machine m = topo::Machine::nehalem_ex(2);  // numa spans 8 cpus
  hls::Runtime rt(m, 8);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope(), 0);
  mb.commit();
  std::atomic<int> code_ok{0};
  ult::ThreadExecutor ex;
  // All 8 tasks barrier on numa 0; numa 1's instance saw no episodes, so
  // the move is refused as not eligible — a retryable condition (§IV.A).
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    view.get(v);
    view.barrier({v.handle()});
    if (view.context().task_id() == 0) {
      try {
        view.migrate(8);
      } catch (const hls::HlsError& e) {
        if (e.code() == ErrorCode::not_eligible && e.recoverable() &&
            contains(e.what(), "episodes")) {
          ++code_ok;
        }
      }
    }
  });
  EXPECT_EQ(code_ok.load(), 1);
}

TEST(ErrorTaxonomy, ProcessNodeValidationIsInvalidArgument) {
  const topo::Machine m = topo::Machine::core2_cluster_node();
  try {
    shm::ProcessNode node(m, 99);
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
  }
}

// ---------- ProcessNode fault sites (supervision under injection) ----------

TEST(ProcessFault, ForkFailureKillsAndReapsEarlierRanks) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("process:fork", /*nth=*/1, /*index=*/2);
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("x", 8, topo::node_scope());
  try {
    node.run([](shm::ProcessTask& t) { t.barrier("x"); });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::fork_failed);
    EXPECT_TRUE(e.recoverable());
    EXPECT_TRUE(contains(e.what(), "fork failed for rank 2")) << e.what();
    // Ranks 0 and 1 were already forked; both must be gone, not leaked.
    EXPECT_TRUE(contains(e.what(), "killed and reaped 2")) << e.what();
  }
}

TEST(ProcessFault, ChildKilledRightAfterForkIsNamed) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("process:child_exit", /*nth=*/1, /*index=*/1);
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("x", 8, topo::node_scope());
  const auto start = std::chrono::steady_clock::now();
  try {
    // Survivors head into a barrier the dead rank can never join: the
    // supervisor must abort them instead of letting waitpid hang.
    node.run([](shm::ProcessTask& t) { t.barrier("x"); });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::task_died);
    EXPECT_FALSE(e.recoverable());
    EXPECT_TRUE(contains(e.what(), "rank 1")) << e.what();
    EXPECT_TRUE(contains(e.what(), "signal 9")) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Well within the 30 s sync timeout: death is detected by SIGCHLD
  // supervision, not by waiting out the barrier.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

TEST(ProcessFault, CrashWhileHoldingRobustMutexRecovers) {
  fault::FaultInjector inj;
  fault::ScopedFaultInjection scoped(inj);
  inj.arm("process:barrier_locked", /*nth=*/1, /*index=*/1);
  const topo::Machine m = topo::Machine::core2_cluster_node();
  shm::ProcessNode node(m, 4);
  node.add_var("x", 8, topo::node_scope());
  const auto start = std::chrono::steady_clock::now();
  try {
    // Rank 1 dies by SIGKILL while HOLDING the barrier's process-shared
    // mutex. Survivors must take EOWNERDEAD, mark the state poisoned and
    // exit; the parent must name the dead rank.
    node.run([](shm::ProcessTask& t) { t.barrier("x"); });
    FAIL() << "expected ShmError";
  } catch (const shm::ShmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::task_died);
    EXPECT_TRUE(contains(e.what(), "rank 1")) << e.what();
    EXPECT_TRUE(contains(e.what(), "signal 9")) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

// ---------- sync watchdog ----------

TEST(Watchdog, NegativeDeadlineRejected) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  try {
    hls::Runtime rt(m, 2, hls::Runtime::Options{.watchdog_ms = -1});
    FAIL() << "expected HlsError";
  } catch (const hls::HlsError& e) {
    EXPECT_EQ(e.code(), ErrorCode::invalid_argument);
    EXPECT_TRUE(contains(e.what(), "watchdog_ms")) << e.what();
  }
}

TEST(Watchdog, BarrierStuckNamesTheMissingTask) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 2, hls::Runtime::Options{.watchdog_ms = 50});
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope(), 0);
  mb.commit();
  std::atomic<bool> fired{false};
  std::atomic<int> diag_ok{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    view.get(v);
    if (view.context().task_id() == 0) {
      try {
        view.barrier({v.handle()});  // task 1 never arrives
      } catch (const hls::HlsError& e) {
        const std::string what = e.what();
        if (e.code() == ErrorCode::deadlock && !e.recoverable() &&
            contains(what, "watchdog: barrier") && contains(what, "1/2") &&
            contains(what, "missing: task 1")) {
          ++diag_ok;
        } else {
          ADD_FAILURE() << what;
        }
        fired.store(true);
      }
    } else {
      while (!fired.load()) view.context().yield();
    }
  });
  EXPECT_EQ(diag_ok.load(), 1);
  ASSERT_NE(rt.obs(), nullptr);
  bool event_seen = false;
  for (const hlsmpc::obs::Event& e : rt.obs()->events()) {
    if (e.kind == hlsmpc::obs::EventKind::watchdog) {
      event_seen = true;
      EXPECT_EQ(e.task, 0);
      EXPECT_GE(e.arg, 50);                 // waited at least the deadline
      EXPECT_EQ(e.arg2, std::uint64_t{2});  // missing mask = {task 1}
    }
  }
  EXPECT_TRUE(event_seen);
}

TEST(Watchdog, SingleStuckFiresInTheWaiter) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 2, hls::Runtime::Options{.watchdog_ms = 50});
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope(), 0);
  mb.commit();
  std::atomic<bool> fired{false};
  std::atomic<int> diag_ok{0};
  ult::ThreadExecutor ex;
  // Whichever task wins the single stalls inside the block; the loser's
  // completion wait must trip the watchdog rather than spin forever.
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    view.get(v);
    try {
      view.single({v.handle()}, [&] {
        while (!fired.load()) view.context().yield();
      });
    } catch (const hls::HlsError& e) {
      const std::string what = e.what();
      if (e.code() == ErrorCode::deadlock &&
          contains(what, "watchdog: single")) {
        ++diag_ok;
      } else {
        ADD_FAILURE() << what;
      }
      fired.store(true);
    }
  });
  EXPECT_EQ(diag_ok.load(), 1);
}

TEST(Watchdog, FiresUnderTheDeterministicExecutor) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 2, hls::Runtime::Options{.watchdog_ms = 20});
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope(), 0);
  mb.commit();
  std::atomic<bool> fired{false};
  std::atomic<int> diag_ok{0};
  check::RoundRobinPolicy policy(1, 0);
  // Every cooperative yield is one scheduling step; 20 ms of polling can
  // consume millions, so the budget must be far above the default.
  check::DeterministicExecutor ex(policy, /*max_steps=*/50'000'000);
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    view.get(v);
    if (view.context().task_id() == 0) {
      try {
        view.barrier({v.handle()});
      } catch (const hls::HlsError& e) {
        if (e.code() == ErrorCode::deadlock &&
            contains(e.what(), "missing: task 1")) {
          ++diag_ok;
        }
        fired.store(true);
      }
    } else {
      while (!fired.load()) view.context().yield();
    }
  });
  EXPECT_EQ(diag_ok.load(), 1);
}

TEST(Watchdog, OffByDefaultCompletesNormally) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 4);
  EXPECT_EQ(rt.sync().watchdog_ms(), 0);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope(), 0);
  mb.commit();
  std::atomic<int> done{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 4, ex, [&](hls::TaskView& view) {
    for (int i = 0; i < 8; ++i) view.barrier({v.handle()});
    ++done;
  });
  EXPECT_EQ(done.load(), 4);
}
