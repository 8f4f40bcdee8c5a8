// One-sided RMA test suite (mpi/rma.hpp).
//
// Three layers:
//  - direct engine tests on a standalone Win: bounds checking, memmove
//    semantics for overlapping self-puts, in-place accumulate, lock
//    protocol errors, fence epoch bookkeeping, and the watchdog naming
//    missing fence ranks / the current lock holder;
//  - a runtime sweep through Comm::win_create across rank counts 1..16,
//    thread and fiber executors, payload sizes straddling 1 KB, and every
//    target rank — including the non-commutative accumulate sweep reusing
//    test_coll's 2x2-matrices-over-Z_1009 operator, which turns any
//    out-of-rank-order fold into a hard value mismatch;
//  - schedule exploration: the fence publication guarantee and lock
//    mutual exclusion hold under every explored interleaving, seeded
//    epoch-free variants are found and replay from the shrunk trace, and
//    HlsChecker's verify() pass flags the access pair no epoch orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "check/explorer.hpp"
#include "check/hls_checker.hpp"
#include "mpi/rma.hpp"
#include "mpi/runtime.hpp"
#include "obs/recorder.hpp"
#include "topo/topology.hpp"
#include "ult/scheduler.hpp"
#include "ult/task_context.hpp"

namespace check = hlsmpc::check;
namespace hls = hlsmpc::hls;
namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
namespace rma = hlsmpc::mpi::rma;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;

namespace {

// ---- the non-commutative operator (same as test_coll.cpp) ----

constexpr std::int64_t kMod = 1009;

struct Mat {
  std::int32_t a, b, c, d;
  friend bool operator==(const Mat&, const Mat&) = default;
};

constexpr Mat kIdentity{1, 0, 0, 1};

Mat mul(const Mat& x, const Mat& y) {
  const auto m = [](std::int64_t v) {
    return static_cast<std::int32_t>(((v % kMod) + kMod) % kMod);
  };
  return Mat{
      m(static_cast<std::int64_t>(x.a) * y.a +
        static_cast<std::int64_t>(x.b) * y.c),
      m(static_cast<std::int64_t>(x.a) * y.b +
        static_cast<std::int64_t>(x.b) * y.d),
      m(static_cast<std::int64_t>(x.c) * y.a +
        static_cast<std::int64_t>(x.d) * y.c),
      m(static_cast<std::int64_t>(x.c) * y.b +
        static_cast<std::int64_t>(x.d) * y.d),
  };
}

mpi::ReduceFn mat_fn() {
  return [](void* inout, const void* in, std::size_t count) {
    Mat* x = static_cast<Mat*>(inout);
    const Mat* y = static_cast<const Mat*>(in);
    for (std::size_t i = 0; i < count; ++i) x[i] = mul(x[i], y[i]);
  };
}

Mat contrib(int r, std::size_t i) {
  return Mat{static_cast<std::int32_t>(1 + (2 * r + i) % 5),
             static_cast<std::int32_t>((r + 2 * i + 1) % 7),
             static_cast<std::int32_t>((r * r + 3 * i + 2) % 6),
             static_cast<std::int32_t>(1 + (3 * r + 2 * i) % 4)};
}

std::vector<Mat> make_contrib(int r, std::size_t count) {
  std::vector<Mat> v(count);
  for (std::size_t i = 0; i < count; ++i) v[i] = contrib(r, i);
  return v;
}

/// Rank-order fold: v_0 * v_1 * ... * v_upto.
std::vector<Mat> reference(int upto, std::size_t count) {
  std::vector<Mat> ref = make_contrib(0, count);
  for (int r = 1; r <= upto; ++r) {
    for (std::size_t i = 0; i < count; ++i) ref[i] = mul(ref[i], contrib(r, i));
  }
  return ref;
}

// Payload sizes in Mat elements (16 bytes each) straddling 1 KB:
// 16 B, 960 B, 1040 B, 8320 B.
constexpr std::size_t kCounts[] = {1, 60, 65, 520};

/// Deterministic byte pattern for a (source, target, index) triple.
std::uint8_t pattern(int src, int target, std::size_t i) {
  return static_cast<std::uint8_t>(37 * src + 11 * target + i);
}

struct Param {
  int nranks;
  mpi::ExecutorKind exec;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return std::to_string(info.param.nranks) + "ranks_" +
         (info.param.exec == mpi::ExecutorKind::thread ? "thread" : "fiber");
}

mpi::Options opts(const Param& p) {
  mpi::Options o;
  o.nranks = p.nranks;
  o.executor = p.exec;
  return o;
}

class RmaParam : public testing::TestWithParam<Param> {
 protected:
  topo::Machine machine_ = topo::Machine::nehalem_ex(2);
  mpi::Runtime rt_{machine_, opts(GetParam())};
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, RmaParam,
    testing::Values(Param{1, mpi::ExecutorKind::thread},
                    Param{2, mpi::ExecutorKind::thread},
                    Param{3, mpi::ExecutorKind::thread},
                    Param{5, mpi::ExecutorKind::thread},
                    Param{8, mpi::ExecutorKind::thread},
                    Param{13, mpi::ExecutorKind::thread},
                    Param{16, mpi::ExecutorKind::thread},
                    Param{4, mpi::ExecutorKind::fiber},
                    Param{16, mpi::ExecutorKind::fiber}),
    param_name);

// ---------- direct engine tests ----------

TEST(RmaWin, RejectsBadRanksAndRanges) {
  std::vector<std::uint8_t> r0(64), r1(32);
  rma::Win win({{r0.data(), r0.size()}, {r1.data(), r1.size()}});
  ult::ThreadTaskContext ctx;
  std::uint8_t buf[64] = {};

  EXPECT_EQ(win.size(), 2);
  EXPECT_EQ(win.bytes(0), 64u);
  EXPECT_EQ(win.bytes(1), 32u);
  EXPECT_THROW(win.put(ctx, 0, buf, 8, 2, 0), mpi::MpiError);
  EXPECT_THROW(win.put(ctx, 2, buf, 8, 0, 0), mpi::MpiError);
  EXPECT_THROW(win.put(ctx, 0, buf, 33, 1, 0), mpi::MpiError);
  EXPECT_THROW(win.put(ctx, 0, buf, 8, 1, 25), mpi::MpiError);
  EXPECT_THROW(win.get(ctx, 0, buf, 64, 1, 0), mpi::MpiError);
  EXPECT_THROW(win.accumulate(ctx, 0, buf, 3, 16, mat_fn(), 1, 0),
               mpi::MpiError);
  EXPECT_THROW(win.accumulate(ctx, 0, buf, 1, 16, mpi::ReduceFn{}, 0, 0),
               mpi::MpiError);
  EXPECT_THROW(rma::Win({}), mpi::MpiError);
  // Boundary-exact accesses are legal.
  win.put(ctx, 0, buf, 32, 1, 0);
  win.get(ctx, 0, buf, 64, 0, 0);
}

TEST(RmaWin, OverlappingSelfPutBehavesLikeMemmove) {
  std::vector<std::uint8_t> region(32);
  std::vector<std::uint8_t> expect(32);
  for (std::size_t i = 0; i < region.size(); ++i) {
    region[i] = static_cast<std::uint8_t>(i + 1);
    expect[i] = static_cast<std::uint8_t>(i + 1);
  }
  rma::Win win({{region.data(), region.size()}});
  ult::ThreadTaskContext ctx;
  // Shift 24 bytes forward by 4 inside the rank's own exposed region:
  // source and destination overlap, so a memcpy-based put would corrupt.
  std::memmove(expect.data() + 4, expect.data(), 24);
  win.put(ctx, 0, region.data(), 24, 0, 4);
  EXPECT_EQ(region, expect);
}

TEST(RmaWin, InPlaceAccumulateSquaresElements) {
  std::vector<Mat> region = make_contrib(3, 8);
  std::vector<Mat> expect(8);
  for (std::size_t i = 0; i < 8; ++i) {
    expect[i] = mul(region[i], region[i]);
  }
  rma::Win win({{region.data(), region.size() * sizeof(Mat)}});
  ult::ThreadTaskContext ctx;
  // src aliases the target range exactly; the elementwise fold reads each
  // element once as the right operand while updating it as the left.
  win.accumulate(ctx, 0, region.data(), 8, sizeof(Mat), mat_fn(), 0, 0);
  EXPECT_EQ(region, expect);
}

TEST(RmaWin, LockProtocolErrorsThrow) {
  int r0 = 0;
  rma::Win win({{&r0, sizeof r0}});
  ult::ThreadTaskContext ctx;
  EXPECT_THROW(win.unlock(ctx, 0, 0), mpi::MpiError);  // not held
  win.lock(ctx, 0, rma::LockKind::shared, 0);
  EXPECT_THROW(win.lock(ctx, 0, rma::LockKind::shared, 0), mpi::MpiError);
  win.unlock(ctx, 0, 0);
  win.lock(ctx, 0, rma::LockKind::exclusive, 0);
  win.unlock(ctx, 0, 0);
}

TEST(RmaWin, FenceEpochsAdvance) {
  int r0 = 0;
  rma::Win win({{&r0, sizeof r0}});
  ult::ThreadTaskContext ctx;
  EXPECT_EQ(win.fence_epochs(0), 0u);
  for (int i = 1; i <= 3; ++i) {
    win.fence(ctx, 0);  // single-rank window: completes immediately
    EXPECT_EQ(win.fence_epochs(0), static_cast<std::uint64_t>(i));
  }
}

TEST(RmaWin, StuckFenceNamesMissingRanks) {
  int r0 = 0, r1 = 0;
  rma::WinOptions o;
  o.watchdog_ms = 50;
  o.name = "stuckfence";
  rma::Win win({{&r0, sizeof r0}, {&r1, sizeof r1}}, o);
  ult::ThreadTaskContext ctx;
  try {
    win.fence(ctx, 0);  // rank 1 never arrives
    FAIL() << "expected MpiError from the fence watchdog";
  } catch (const mpi::MpiError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("stuckfence"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("epoch 0"), std::string::npos) << msg;
  }
}

TEST(RmaWin, StuckLockNamesHolder) {
  int r0 = 0, r1 = 0;
  rma::WinOptions o;
  o.watchdog_ms = 50;
  rma::Win win({{&r0, sizeof r0}, {&r1, sizeof r1}}, o);
  ult::ThreadTaskContext ctx;
  win.lock(ctx, 0, rma::LockKind::exclusive, 0);
  try {
    win.lock(ctx, 1, rma::LockKind::exclusive, 0);
    FAIL() << "expected MpiError from the lock watchdog";
  } catch (const mpi::MpiError& e) {
    EXPECT_NE(std::string(e.what()).find("held exclusively by rank 0"),
              std::string::npos)
        << e.what();
  }
  // Shared acquisition against a writer reports the same holder.
  try {
    win.lock(ctx, 1, rma::LockKind::shared, 0);
    FAIL() << "expected MpiError from the lock watchdog";
  } catch (const mpi::MpiError& e) {
    EXPECT_NE(std::string(e.what()).find("held exclusively by rank 0"),
              std::string::npos)
        << e.what();
  }
  win.unlock(ctx, 0, 0);
}

// ---------- runtime sweep through Comm::win_create ----------

TEST_P(RmaParam, PutReachesEveryTargetEverySize) {
  const int n = GetParam().nranks;
  for (const std::size_t count : kCounts) {
    const std::size_t chunk = count * sizeof(Mat);
    std::vector<std::vector<std::uint8_t>> regions(
        static_cast<std::size_t>(n));
    for (auto& r : regions) r.assign(chunk * static_cast<std::size_t>(n), 0);
    rt_.run([&](mpi::Comm& world, ult::TaskContext& ctx) {
      const int me = world.rank(ctx);
      auto& mine = regions[static_cast<std::size_t>(me)];
      rma::Win& win = world.win_create(ctx, mine.data(), mine.size());
      win.fence(ctx, me);
      // Every (source, target) pair: rank me writes its slice of every
      // rank's region, at the offset its rank number owns.
      std::vector<std::uint8_t> src(chunk);
      for (int t = 0; t < n; ++t) {
        for (std::size_t i = 0; i < chunk; ++i) src[i] = pattern(me, t, i);
        win.put(ctx, me, src.data(), chunk, t,
                static_cast<std::size_t>(me) * chunk);
      }
      win.fence(ctx, me);
      std::size_t mismatches = 0;
      for (int s = 0; s < n; ++s) {
        for (std::size_t i = 0; i < chunk; ++i) {
          if (mine[static_cast<std::size_t>(s) * chunk + i] !=
              pattern(s, me, i)) {
            ++mismatches;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "rank " << me << " count " << count;
      world.win_free(ctx, win);
    });
  }
}

TEST_P(RmaParam, GetReadsEveryTargetEverySize) {
  const int n = GetParam().nranks;
  for (const std::size_t count : kCounts) {
    const std::size_t chunk = count * sizeof(Mat);
    std::vector<std::vector<std::uint8_t>> regions(
        static_cast<std::size_t>(n));
    for (auto& r : regions) r.assign(chunk, 0);
    rt_.run([&](mpi::Comm& world, ult::TaskContext& ctx) {
      const int me = world.rank(ctx);
      auto& mine = regions[static_cast<std::size_t>(me)];
      for (std::size_t i = 0; i < chunk; ++i) mine[i] = pattern(me, me, i);
      rma::Win& win = world.win_create(ctx, mine.data(), mine.size());
      win.fence(ctx, me);  // publish everyone's initialization
      std::vector<std::uint8_t> got(chunk);
      std::size_t mismatches = 0;
      for (int t = 0; t < n; ++t) {
        win.get(ctx, me, got.data(), chunk, t, 0);
        for (std::size_t i = 0; i < chunk; ++i) {
          if (got[i] != pattern(t, t, i)) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "rank " << me << " count " << count;
      world.win_free(ctx, win);
    });
  }
}

TEST_P(RmaParam, AccumulateFenceRoundsFoldInRankOrder) {
  const int n = GetParam().nranks;
  for (const std::size_t count : kCounts) {
    std::vector<std::vector<Mat>> regions(static_cast<std::size_t>(n));
    for (auto& r : regions) r.assign(count, kIdentity);
    rt_.run([&](mpi::Comm& world, ult::TaskContext& ctx) {
      const int me = world.rank(ctx);
      auto& mine = regions[static_cast<std::size_t>(me)];
      rma::Win& win =
          world.win_create(ctx, mine.data(), mine.size() * sizeof(Mat));
      const std::vector<Mat> my_contrib = make_contrib(me, count);
      // Every target rank accumulates contributions from all ranks; one
      // fence per round serializes the folds into ascending rank order,
      // so the non-commutative operator pins any ordering bug.
      for (int t = 0; t < n; ++t) {
        win.fence(ctx, me);
        for (int r = 0; r < n; ++r) {
          if (me == r) {
            win.accumulate(ctx, me, my_contrib.data(), count, sizeof(Mat),
                           mat_fn(), t, 0);
          }
          win.fence(ctx, me);
        }
      }
      const std::vector<Mat> ref = reference(n - 1, count);
      EXPECT_EQ(mine, ref) << "rank " << me << " count " << count;
      world.win_free(ctx, win);
    });
  }
}

TEST_P(RmaParam, AccumulateUnderExclusiveLockTurnOrder) {
  // Passive-target variant of the rank-order fold: rank 0's region holds
  // a turn word followed by the accumulator; each rank spins on the lock
  // until the turn word names it, folds its contribution, advances the
  // turn. The exclusive lock carries both mutual exclusion and the
  // acquire/release edges the turn-word handoff relies on.
  const int n = GetParam().nranks;
  const std::size_t count = 65;  // 1040 B payload
  struct Region {
    std::int64_t turn;
    Mat acc[65];
  };
  Region shared{};
  shared.turn = 0;
  std::fill(std::begin(shared.acc), std::end(shared.acc), kIdentity);
  rt_.run([&](mpi::Comm& world, ult::TaskContext& ctx) {
    const int me = world.rank(ctx);
    rma::Win& win = world.win_create(
        ctx, me == 0 ? static_cast<void*>(&shared) : nullptr,
        me == 0 ? sizeof shared : 0);
    const std::vector<Mat> my_contrib = make_contrib(me, count);
    bool done = false;
    while (!done) {
      win.lock(ctx, me, rma::LockKind::exclusive, 0);
      std::int64_t turn = -1;
      win.get(ctx, me, &turn, sizeof turn, 0, 0);
      if (turn == me) {
        win.accumulate(ctx, me, my_contrib.data(), count, sizeof(Mat),
                       mat_fn(), 0, offsetof(Region, acc));
        const std::int64_t next = turn + 1;
        win.put(ctx, me, &next, sizeof next, 0, 0);
        done = true;
      }
      win.unlock(ctx, me, 0);
      ctx.yield();
    }
    world.barrier(ctx);
    if (me == 0) {
      const std::vector<Mat> ref = reference(n - 1, count);
      const std::vector<Mat> got(std::begin(shared.acc),
                                 std::end(shared.acc));
      EXPECT_EQ(got, ref);
    }
    world.win_free(ctx, win);
  });
}

TEST(RmaObs, CountersAndEpisodesRecorded) {
  const int n = 2;
  obs::Recorder rec{obs::RecorderOptions{.ntasks = n}};
  topo::Machine machine = topo::Machine::nehalem_ex(2);
  mpi::Options o;
  o.nranks = n;
  o.obs = &rec;
  mpi::Runtime rt(machine, o);
  std::vector<std::vector<std::uint8_t>> regions(n,
                                                 std::vector<std::uint8_t>(64));
  rt.run([&](mpi::Comm& world, ult::TaskContext& ctx) {
    const int me = world.rank(ctx);
    auto& mine = regions[static_cast<std::size_t>(me)];
    rma::Win& win = world.win_create(ctx, mine.data(), mine.size());
    win.fence(ctx, me);
    if (me == 0) {
      std::uint8_t buf[48] = {};
      win.put(ctx, me, buf, 48, 1, 0);
      win.get(ctx, me, buf, 32, 1, 16);
    } else {
      // Bytes [48, 64): disjoint from rank 0's put and get in the same
      // epoch, which the exclusive lock does not serialize against.
      const Mat m = contrib(1, 0);
      win.lock(ctx, me, rma::LockKind::exclusive, 1);
      win.accumulate(ctx, me, &m, 1, sizeof(Mat), mat_fn(), 1, 48);
      win.unlock(ctx, me, 1);
    }
    win.fence(ctx, me);
    world.win_free(ctx, win);
  });
  const obs::Snapshot s = rec.snapshot();
  const auto total = [&](obs::Counter c) { return s.value(c); };
  EXPECT_EQ(total(obs::Counter::rma_puts), 1u);
  EXPECT_EQ(total(obs::Counter::rma_gets), 1u);
  EXPECT_EQ(total(obs::Counter::rma_accs), 1u);
  EXPECT_EQ(total(obs::Counter::rma_bytes), 48u + 32u + sizeof(Mat));
  EXPECT_EQ(total(obs::Counter::rma_locks), 1u);
  // Two explicit fences plus win_free's quiescing fence, per rank.
  EXPECT_EQ(total(obs::Counter::rma_fences), 6u);
  bool saw_op = false, saw_epoch = false, saw_lock_epoch = false;
  for (const obs::Event& e : rec.events()) {
    if (e.kind == obs::EventKind::rma_op) saw_op = true;
    if (e.kind == obs::EventKind::rma_epoch) {
      saw_epoch = true;
      if (e.arg == 2) saw_lock_epoch = true;  // exclusive lock episode
    }
  }
  EXPECT_TRUE(saw_op);
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_lock_epoch);
}

// ---------- schedule exploration and the race checker ----------

namespace {

/// Fresh machine/checker pair per attempt (the checker observes the Win).
struct CheckedEnv {
  topo::Machine m = topo::Machine::generic(1, 2);
  topo::ScopeMap sm{m};
  check::HlsChecker checker;
  explicit CheckedEnv(int ntasks) : checker(sm, ntasks) {}
};

}  // namespace

TEST(RmaExplore, FencePublicationOrderingHoldsEverywhere) {
  // Rank 0 puts then fences; rank 1 fences then reads. Under every
  // explored interleaving the post-fence read sees the pre-fence write,
  // and the checker's happens-before pass stays clean.
  auto attempt = [](ult::Executor& ex) {
    CheckedEnv env(2);
    int r0 = 0, r1 = 0;
    rma::WinOptions o;
    o.observer = &env.checker;
    rma::Win win({{&r0, sizeof r0}, {&r1, sizeof r1}}, o);
    std::vector<int> pins{0, 1};
    int seen = -1;
    ex.run(2, pins, [&](ult::TaskContext& ctx) {
      const int me = ctx.task_id();
      if (me == 0) {
        const int v = 42;
        win.put(ctx, 0, &v, sizeof v, 1, 0);
        win.fence(ctx, 0);
      } else {
        win.fence(ctx, 1);
        win.get(ctx, 1, &seen, sizeof seen, 1, 0);
      }
    });
    if (seen != 42) {
      throw std::runtime_error("write before fence not visible after fence");
    }
    if (!env.checker.verify()) {
      throw std::runtime_error("checker violations:\n" +
                               env.checker.report());
    }
  };
  check::ExploreOptions eo;
  eo.schedules = 300;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  EXPECT_TRUE(res.ok) << res.repro;
}

TEST(RmaExplore, SeededFencelessReadIsFoundAndReplays) {
  // The seeded bug: rank 1 reads with no fence at all. The explorer must
  // find a schedule where the read precedes the write, and the shrunk
  // trace must replay to the same failure.
  auto attempt = [](ult::Executor& ex) {
    int r0 = 0, r1 = 0;
    rma::Win win({{&r0, sizeof r0}, {&r1, sizeof r1}});
    std::vector<int> pins{0, 1};
    int seen = -1;
    ex.run(2, pins, [&](ult::TaskContext& ctx) {
      if (ctx.task_id() == 0) {
        const int v = 42;
        win.put(ctx, 0, &v, sizeof v, 1, 0);
      } else {
        win.get(ctx, 1, &seen, sizeof seen, 1, 0);
      }
    });
    if (seen != 42) throw std::runtime_error("stale read: no fence");
  };
  check::ExploreOptions eo;
  eo.schedules = 300;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("stale read"), std::string::npos) << res.error;
  try {
    explorer.replay(attempt, res.failing_trace);
    FAIL() << "shrunk trace did not reproduce the failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale read"), std::string::npos)
        << e.what();
  }
}

TEST(RmaExplore, ExclusiveLockMakesIncrementsAtomic) {
  auto attempt = [](ult::Executor& ex) {
    CheckedEnv env(2);
    int counter = 0;
    rma::WinOptions o;
    o.observer = &env.checker;
    rma::Win win({{&counter, sizeof counter}, {nullptr, 0}}, o);
    std::vector<int> pins{0, 1};
    ex.run(2, pins, [&](ult::TaskContext& ctx) {
      const int me = ctx.task_id();
      for (int i = 0; i < 2; ++i) {
        win.lock(ctx, me, rma::LockKind::exclusive, 0);
        int v = -1;
        win.get(ctx, me, &v, sizeof v, 0, 0);
        ctx.yield();  // widen the read-modify-write window
        ++v;
        win.put(ctx, me, &v, sizeof v, 0, 0);
        win.unlock(ctx, me, 0);
      }
    });
    if (counter != 4) {
      throw std::runtime_error("lost update: counter " +
                               std::to_string(counter));
    }
    if (!env.checker.verify()) {
      throw std::runtime_error("checker violations:\n" +
                               env.checker.report());
    }
  };
  check::ExploreOptions eo;
  eo.schedules = 300;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  EXPECT_TRUE(res.ok) << res.repro;
}

TEST(RmaExplore, SeededLocklessIncrementLosesUpdates) {
  auto attempt = [](ult::Executor& ex) {
    int counter = 0;
    rma::Win win({{&counter, sizeof counter}, {nullptr, 0}});
    std::vector<int> pins{0, 1};
    ex.run(2, pins, [&](ult::TaskContext& ctx) {
      const int me = ctx.task_id();
      int v = -1;
      win.get(ctx, me, &v, sizeof v, 0, 0);
      ctx.yield();
      ++v;
      win.put(ctx, me, &v, sizeof v, 0, 0);
    });
    if (counter != 2) throw std::runtime_error("lost update");
  };
  check::ExploreOptions eo;
  eo.schedules = 300;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("lost update"), std::string::npos) << res.error;
}

TEST(RmaExplore, SharedLockAdmitsReadersExcludesWriter) {
  // Readers overlap with each other but never with the writer, under
  // every explored schedule.
  auto attempt = [](ult::Executor& ex) {
    int data = 0;
    rma::Win win({{&data, sizeof data}, {nullptr, 0}, {nullptr, 0}});
    std::vector<int> pins{0, 1, 2};
    int readers_inside = 0;
    int writer_inside = 0;
    ex.run(3, pins, [&](ult::TaskContext& ctx) {
      const int me = ctx.task_id();
      if (me == 0) {
        win.lock(ctx, 0, rma::LockKind::exclusive, 0);
        ++writer_inside;
        if (readers_inside != 0) {
          throw std::runtime_error("reader inside writer's critical section");
        }
        const int v = 7;
        win.put(ctx, 0, &v, sizeof v, 0, 0);
        ctx.yield();
        if (readers_inside != 0) {
          throw std::runtime_error("reader entered under exclusive lock");
        }
        --writer_inside;
        win.unlock(ctx, 0, 0);
      } else {
        win.lock(ctx, me, rma::LockKind::shared, 0);
        ++readers_inside;
        if (writer_inside != 0) {
          throw std::runtime_error("writer inside readers' section");
        }
        int v = -1;
        win.get(ctx, me, &v, sizeof v, 0, 0);
        ctx.yield();
        --readers_inside;
        win.unlock(ctx, me, 0);
      }
    });
  };
  check::ExploreOptions eo;
  eo.schedules = 300;
  check::ScheduleExplorer explorer(eo);
  const check::ExploreResult res = explorer.explore(attempt);
  EXPECT_TRUE(res.ok) << res.repro;
}

TEST(RmaExplore, SharedLockReadersOverlapUnderRoundRobin) {
  // With a quantum-1 round robin both readers sit inside the shared
  // section at once — the lock really admits concurrency.
  int data = 0;
  rma::Win win({{&data, sizeof data}, {nullptr, 0}, {nullptr, 0}});
  int inside = 0, max_inside = 0;
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  std::vector<int> pins{0, 1, 2};
  ex.run(3, pins, [&](ult::TaskContext& ctx) {
    const int me = ctx.task_id();
    win.lock(ctx, me, rma::LockKind::shared, 0);
    ++inside;
    max_inside = std::max(max_inside, inside);
    ctx.yield();
    ctx.yield();
    --inside;
    win.unlock(ctx, me, 0);
  });
  EXPECT_GE(max_inside, 2);
}

TEST(RmaChecker, FlagsConflictNoEpochOrders) {
  // Deliberately racy: both tasks put to the same bytes with no fence and
  // no lock. Whatever the schedule, verify() must flag the pair.
  CheckedEnv env(2);
  std::uint8_t region[16] = {};
  rma::WinOptions o;
  o.observer = &env.checker;
  rma::Win win({{region, sizeof region}, {nullptr, 0}}, o);
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  std::vector<int> pins{0, 1};
  ex.run(2, pins, [&](ult::TaskContext& ctx) {
    const int me = ctx.task_id();
    const std::uint8_t v[8] = {static_cast<std::uint8_t>(me)};
    win.put(ctx, me, v, sizeof v, 0, 4);  // overlapping ranges
  });
  EXPECT_FALSE(env.checker.verify());
  bool found = false;
  for (const check::Diagnostic& d : env.checker.violations()) {
    if (d.code == check::Diagnostic::Code::rma_race) found = true;
  }
  EXPECT_TRUE(found) << env.checker.report();
}

TEST(RmaChecker, AcceptsFencedConflictAndDisjointRanges) {
  CheckedEnv env(2);
  std::uint8_t region[16] = {};
  rma::WinOptions o;
  o.observer = &env.checker;
  rma::Win win({{region, sizeof region}, {nullptr, 0}}, o);
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  std::vector<int> pins{0, 1};
  ex.run(2, pins, [&](ult::TaskContext& ctx) {
    const int me = ctx.task_id();
    const std::uint8_t v[4] = {static_cast<std::uint8_t>(me)};
    // Disjoint offsets race-free without any epoch…
    win.put(ctx, me, v, sizeof v, 0, static_cast<std::size_t>(me) * 4);
    win.fence(ctx, me);
    // …and the same bytes are fine once a fence separates the writers.
    if (me == 1) win.put(ctx, me, v, sizeof v, 0, 0);
  });
  EXPECT_TRUE(env.checker.verify()) << env.checker.report();
}

TEST(RmaChecker, LockChainOrdersCriticalSections) {
  // Two exclusive sections on one word, serialized by the real lock: the
  // unlock->lock chain must order their accesses (no rma_race).
  CheckedEnv env(2);
  int region = 0;
  rma::WinOptions o;
  o.observer = &env.checker;
  rma::Win win({{&region, sizeof region}, {nullptr, 0}}, o);
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  std::vector<int> pins{0, 1};
  ex.run(2, pins, [&](ult::TaskContext& ctx) {
    const int me = ctx.task_id();
    win.lock(ctx, me, rma::LockKind::exclusive, 0);
    const int v = me + 1;
    win.put(ctx, me, &v, sizeof v, 0, 0);
    win.unlock(ctx, me, 0);
  });
  EXPECT_TRUE(env.checker.verify()) << env.checker.report();
}

TEST(RmaChecker, FlagsSyntheticLockOverlap) {
  // Feed the checker an event stream no correct Win could emit: two
  // exclusive acquisitions of one word with no release between.
  topo::Machine m = topo::Machine::generic(1, 2);
  topo::ScopeMap sm(m);
  check::HlsChecker checker(sm, 2);
  hls::SyncEvent e;
  e.kind = hls::SyncEvent::Kind::rma_lock;
  e.task = 0;
  e.instance = 3;
  e.rma_target = 0;
  e.rma_excl = true;
  checker.on_sync_event(e);
  e.task = 1;
  checker.on_sync_event(e);
  EXPECT_FALSE(checker.ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].code,
            check::Diagnostic::Code::rma_lock_overlap);

  // Shared acquisition while a writer holds the word is the same class.
  check::HlsChecker checker2(sm, 2);
  e.task = 0;
  e.rma_excl = true;
  checker2.on_sync_event(e);
  e.task = 1;
  e.rma_excl = false;
  checker2.on_sync_event(e);
  EXPECT_FALSE(checker2.ok());
  EXPECT_EQ(checker2.violations()[0].code,
            check::Diagnostic::Code::rma_lock_overlap);
}

TEST(RmaChecker, FlagsSyntheticUnlockWithoutLockAndEpochRegression) {
  topo::Machine m = topo::Machine::generic(1, 2);
  topo::ScopeMap sm(m);
  check::HlsChecker checker(sm, 2);
  hls::SyncEvent e;
  e.kind = hls::SyncEvent::Kind::rma_unlock;
  e.task = 0;
  e.instance = 0;
  e.rma_target = 1;
  e.rma_excl = true;
  checker.on_sync_event(e);
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations()[0].code,
            check::Diagnostic::Code::structural);

  check::HlsChecker checker2(sm, 2);
  e = hls::SyncEvent{};
  e.kind = hls::SyncEvent::Kind::rma_fence_enter;
  e.task = 0;
  e.instance = 0;
  e.task_count = 1;
  checker2.on_sync_event(e);
  checker2.on_sync_event(e);  // epoch did not advance
  ASSERT_FALSE(checker2.ok());
  EXPECT_EQ(checker2.violations()[0].code,
            check::Diagnostic::Code::counter_regression);
}
