// End-to-end automatic HLS-eligibility detection: run real MPI programs
// with a RuntimeTracer chained on the runtime's obs recorder and check the
// advice (the paper's future-work tool, conclusion + §III).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>

#include "hb/runtime_tracer.hpp"
#include "mpi/cluster.hpp"
#include "mpi/rma.hpp"
#include "mpi/runtime.hpp"
#include "obs/recorder.hpp"
#include "topo/topology.hpp"

namespace mpi = hlsmpc::mpi;
namespace hb = hlsmpc::hb;
namespace obs = hlsmpc::obs;
namespace topo = hlsmpc::topo;
using hlsmpc::ult::TaskContext;

namespace {

obs::RecorderOptions counters_only(int n) {
  return {.ntasks = n, .num_scopes = 0, .ring_capacity = 0};
}

/// An in-node runtime whose obs stream feeds `tracer`.
class Traced {
 public:
  Traced(int n, hb::RuntimeTracer& tracer, bool shm = true)
      : rec_(counters_only(n)),
        rt_(topo::Machine::nehalem_ex(1), opts(n, shm)) {
    rec_.chain(&tracer);
  }
  mpi::Runtime& rt() { return rt_; }

 private:
  mpi::Options opts(int n, bool shm) {
    mpi::Options o;
    o.nranks = n;
    o.obs = &rec_;
    o.coll.enable_shm = shm;
    return o;
  }

  obs::Recorder rec_;
  mpi::Runtime rt_;
};

/// The eligibility probe: rank 0 writes `table` = 0 then 1, `sync` runs on
/// every rank, every rank reads 1. The advice is share_as_is only if the
/// synchronization orders rank 0's writes before every read.
void probe(hb::RuntimeTracer& tracer, int task,
           const std::function<void()>& sync) {
  if (task == 0) {
    tracer.on_write(0, "table", 0);
    tracer.on_write(0, "table", 1);
  }
  sync();
  tracer.on_read(task, "table", 1);
}

void expect_share_as_is(const hb::RuntimeTracer& tracer) {
  const auto advice = tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::share_as_is)
      << advice[0].text;
}

hb::Eligibility eligibility(const hb::RuntimeTracer& tracer,
                            const std::string& var) {
  const hb::Trace trace = tracer.trace();
  return hb::Analyzer(trace).analyze().for_var(var).eligibility;
}

}  // namespace

TEST(RuntimeTracer, RecordsP2pSynchronization) {
  hb::RuntimeTracer tracer(2);
  Traced t(2, tracer);
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      tracer.on_write(0, "x", 7);
      world.send_value(ctx, 7, 1, 3);
    } else {
      (void)world.recv_value<int>(ctx, 0, 3);
      tracer.on_read(1, "x", 7);
    }
  });

  const hb::Trace trace = tracer.trace();
  // write, send | recv, read
  ASSERT_EQ(trace.events().size(), 4u);
  hb::Analyzer analyzer(trace);
  // The write happens before the read through the message.
  const auto& order0 = trace.program_order(0);
  const auto& order1 = trace.program_order(1);
  EXPECT_TRUE(analyzer.happens_before(order0[0], order1[1]));
  const auto result = analyzer.analyze();
  EXPECT_EQ(result.for_var("x").eligibility, hb::Eligibility::eligible);
}

TEST(RuntimeTracer, BarrierOrdersOneRanksWritesBeforeEveryRead) {
  // The barrier runs on the shared-memory engine (no p2p message) or the
  // p2p dissemination algorithm; its collective event orders it either way.
  constexpr int kRanks = 4;
  for (const bool shm : {true, false}) {
    SCOPED_TRACE(shm ? "shm engine" : "p2p algorithm");
    hb::RuntimeTracer tracer(kRanks);
    Traced t(kRanks, tracer, shm);
    t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
      probe(tracer, world.rank(ctx), [&] { world.barrier(ctx); });
    });
    expect_share_as_is(tracer);
  }
}

TEST(RuntimeTracer, UnsequencedCollectivesPairByCallOrder) {
  // allreduce and allgather draw no sequence number: their waves pair the
  // k-th such call of every rank, here across both ops and both engines.
  constexpr int kRanks = 4;
  for (const bool shm : {true, false}) {
    SCOPED_TRACE(shm ? "shm engine" : "p2p algorithm");
    hb::RuntimeTracer tracer(kRanks);
    Traced t(kRanks, tracer, shm);
    t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
      const int me = world.rank(ctx);
      std::vector<int> all(kRanks);
      for (const bool reduce : {true, false}) {
        const char* var = reduce ? "before_allreduce" : "before_allgather";
        if (me == 0) {
          tracer.on_write(0, var, 0);
          tracer.on_write(0, var, 1);
        }
        if (reduce) {
          EXPECT_EQ(world.allreduce_value(ctx, 1, mpi::Op::sum), kRanks);
        } else {
          world.allgather(ctx, &me, sizeof(int), all.data());
        }
        tracer.on_read(me, var, 1);
      }
    });
    EXPECT_EQ(eligibility(tracer, "before_allreduce"),
              hb::Eligibility::eligible);
    EXPECT_EQ(eligibility(tracer, "before_allgather"),
              hb::Eligibility::eligible);
  }
}

TEST(RuntimeTracer, FenceOrdersOneRanksWritesBeforeEveryRead) {
  constexpr int kRanks = 4;
  hb::RuntimeTracer tracer(kRanks);
  Traced t(kRanks, tracer);
  std::vector<long> cells(kRanks);
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    mpi::rma::Win& win = world.win_create(
        ctx, &cells[static_cast<std::size_t>(me)], sizeof(long));
    probe(tracer, me, [&] { win.fence(ctx, me); });
    world.win_free(ctx, win);
  });
  expect_share_as_is(tracer);
}

TEST(RuntimeTracer, ClusterCollectivesOrderOneRanksWritesBeforeEveryRead) {
  for (const auto exec :
       {mpi::ExecutorKind::thread, mpi::ExecutorKind::fiber}) {
    for (const bool allreduce : {false, true}) {
      SCOPED_TRACE(std::string(exec == mpi::ExecutorKind::thread ? "thread"
                                                                  : "fiber") +
                   (allreduce ? " allreduce" : " barrier"));
      hb::RuntimeTracer tracer(4);
      obs::Recorder rec(counters_only(4));
      rec.chain(&tracer);
      mpi::ClusterOptions o;
      o.nnodes = 2;
      o.ranks_per_node = 2;
      o.executor = exec;
      o.obs = &rec;
      mpi::SimCluster cluster(o);
      cluster.run([&](mpi::ClusterComm& cc, TaskContext& ctx) {
        probe(tracer, cc.rank(ctx), [&] {
          if (allreduce) {
            EXPECT_EQ(cc.allreduce_value(ctx, 1, mpi::Op::sum), 4);
          } else {
            cc.barrier(ctx);
          }
        });
      });
      expect_share_as_is(tracer);
    }
  }
}

TEST(RuntimeTracer, CrossNodeMessageOrdersWriteBeforeRead) {
  hb::RuntimeTracer tracer(4);
  obs::Recorder rec(counters_only(4));
  rec.chain(&tracer);
  mpi::ClusterOptions o;
  o.nnodes = 2;
  o.ranks_per_node = 2;
  o.obs = &rec;
  mpi::SimCluster cluster(o);
  cluster.run([&](mpi::ClusterComm& cc, TaskContext& ctx) {
    const int me = cc.rank(ctx);
    int v = 1;
    if (me == 0) {
      tracer.on_write(0, "x", 0);
      tracer.on_write(0, "x", 1);
      cc.send(ctx, &v, sizeof(v), 2, 5);  // rank 2 lives on node 1
    } else if (me == 2) {
      cc.recv(ctx, &v, sizeof(v), mpi::kAnySource, 5);
      tracer.on_read(2, "x", 1);
    }
  });
  expect_share_as_is(tracer);
}

TEST(RuntimeTracer, SubCommunicatorCollectiveOrdersItsMembersOnly) {
  hb::RuntimeTracer tracer(4);
  Traced t(4, tracer);
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    mpi::Comm& half = world.split(ctx, me / 2, me);  // {0, 1} and {2, 3}
    if (me == 0) {
      for (const char* var : {"member", "outsider"}) {
        tracer.on_write(0, var, 0);
        tracer.on_write(0, var, 1);
      }
    }
    half.barrier(ctx);
    if (me == 1) tracer.on_read(1, "member", 1);
    if (me == 2) tracer.on_read(2, "outsider", 1);
  });
  EXPECT_EQ(eligibility(tracer, "member"), hb::Eligibility::eligible);
  EXPECT_NE(eligibility(tracer, "outsider"), hb::Eligibility::eligible);
}

TEST(RuntimeTracer, BcastOrdersTheRootBeforeTheOthersOnly) {
  for (const bool shm : {true, false}) {
    SCOPED_TRACE(shm ? "shm engine" : "p2p algorithm");
    hb::RuntimeTracer tracer(3);
    Traced t(3, tracer, shm);
    t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
      const int me = world.rank(ctx);
      const char* mine = me == 0 ? "from_root" : "to_root";
      if (me < 2) {
        tracer.on_write(me, mine, 0);
        tracer.on_write(me, mine, 1);
      }
      (void)world.bcast_value(ctx, me, 0);
      if (me == 1) tracer.on_read(1, "from_root", 1);
      if (me == 0) tracer.on_read(0, "to_root", 1);
    });
    EXPECT_EQ(eligibility(tracer, "from_root"), hb::Eligibility::eligible);
    // A non-root's pre-call write is not ordered before the root's
    // post-call read: bcast moves data away from the root only.
    EXPECT_NE(eligibility(tracer, "to_root"), hb::Eligibility::eligible);
  }
}

TEST(RuntimeTracer, ScanOrdersLowerRanksBeforeHigherOnly) {
  for (const bool shm : {true, false}) {
    SCOPED_TRACE(shm ? "shm engine" : "p2p algorithm");
    hb::RuntimeTracer tracer(4);
    Traced t(4, tracer, shm);
    t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
      const int me = world.rank(ctx);
      if (me == 0 || me == 3) {
        const char* mine = me == 0 ? "low" : "high";
        tracer.on_write(me, mine, 0);
        tracer.on_write(me, mine, 1);
      }
      EXPECT_EQ(world.scan_value(ctx, 1, mpi::Op::sum), me + 1);
      if (me == 3) tracer.on_read(3, "low", 1);
      if (me == 0) tracer.on_read(0, "high", 1);
    });
    EXPECT_EQ(eligibility(tracer, "low"), hb::Eligibility::eligible);
    EXPECT_NE(eligibility(tracer, "high"), hb::Eligibility::eligible);
  }
}

TEST(RuntimeTracer, CallThatThrewAddsNoEdge) {
  // Fed by hand: a barrier wave where task 1's call unwound an exception
  // (flag false) must order nothing, the same wave completed must.
  for (const bool completed : {false, true}) {
    hb::RuntimeTracer tracer(2);
    tracer.on_write(0, "x", 0);
    tracer.on_write(0, "x", 1);
    for (int task = 0; task < 2; ++task) {
      obs::Event e;
      e.kind = obs::EventKind::collective;
      e.task = task;
      e.flag = task == 0 || completed;
      e.arg = obs::coll_event_arg(obs::CollOp::barrier, obs::CollAlg::p2p);
      e.arg2 = obs::sync_key(1, 0);
      tracer.on_event(e);
    }
    tracer.on_read(1, "x", 1);
    EXPECT_EQ(eligibility(tracer, "x") == hb::Eligibility::eligible,
              completed);
  }
}

TEST(RuntimeTracer, DetectsRankDependentVariable) {
  constexpr int kRanks = 4;
  hb::RuntimeTracer tracer(kRanks);
  Traced t(kRanks, tracer);
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    tracer.on_write(me, "my_rank", me);
    world.barrier(ctx);
    tracer.on_read(me, "my_rank", me);
  });

  const auto advice = tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation, hb::Recommendation::keep_private);
  EXPECT_FALSE(advice[0].spmd_identical_writes);
}

TEST(RuntimeTracer, DetectsSpmdUpdatePattern) {
  // The listing-1 pattern: every rank recomputes the variable identically
  // each step with no separating barrier -> advise single insertion.
  constexpr int kRanks = 3;
  hb::RuntimeTracer tracer(kRanks);
  Traced t(kRanks, tracer);
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (int step = 1; step <= 2; ++step) {
      tracer.on_write(me, "cfg", step * 10);
      tracer.on_read(me, "cfg", step * 10);
    }
  });

  const auto advice = tracer.advise();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].recommendation,
            hb::Recommendation::wrap_writes_in_single);
}

TEST(RuntimeTracer, SendrecvRingIsCaptured) {
  constexpr int kRanks = 4;
  hb::RuntimeTracer tracer(kRanks);
  Traced t(kRanks, tracer);
  std::atomic<int> sum{0};
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    int got = -1;
    world.sendrecv(ctx, &me, sizeof(int), (me + 1) % kRanks, 0, &got,
                   sizeof(int), (me + 3) % kRanks, 0);
    sum += got;
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
  // One send + one recv per rank.
  EXPECT_EQ(tracer.num_events(), 2u * kRanks);
  // The trace replays cleanly (all recvs matched).
  EXPECT_NO_THROW(hb::Analyzer{tracer.trace()});
}

TEST(RuntimeTracer, NumEventsCountsAppAndRuntimeEvents) {
  hb::RuntimeTracer tracer(2);
  Traced t(2, tracer);
  t.rt().run([&](mpi::Comm& world, TaskContext& ctx) {
    tracer.on_write(world.rank(ctx), "v", 1);
  });
  EXPECT_EQ(tracer.num_events(), 2u);
  EXPECT_THROW(hb::RuntimeTracer{0}, hlsmpc::hls::HlsError);
}
