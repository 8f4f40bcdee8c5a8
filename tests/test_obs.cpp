// Tests for the observability layer (src/obs/): recorder counters and
// event rings, sink chaining, exporters (snapshot JSON, Chrome trace),
// runtime instrumentation counts, the consolidated directive surface
// (ScopeSet, single_nowait on a bound task), and — via the
// deterministic schedule explorer — that episode counters are invariant
// across task interleavings.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/deterministic_executor.hpp"
#include "check/explorer.hpp"
#include "hb/runtime_tracer.hpp"
#include "hls/hls.hpp"
#include "mpc/node.hpp"
#include "mpi/rma.hpp"

namespace check = hlsmpc::check;
namespace hb = hlsmpc::hb;
namespace hls = hlsmpc::hls;
namespace mpc = hlsmpc::mpc;
namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
namespace rma = hlsmpc::mpi::rma;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;

namespace {

/// Run `n` tasks pinned to cpus 0..n-1 on a deterministic executor.
void run_tasks(hls::Runtime& rt, int n, ult::Executor& ex,
               const std::function<void(hls::TaskView&)>& body) {
  std::vector<int> pins(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pins[static_cast<std::size_t>(i)] = i;
  ex.run(n, pins, [&](ult::TaskContext& ctx) {
    hls::TaskView view(rt, ctx);
    body(view);
  });
}

obs::Event make_event(obs::EventKind kind, int task, std::uint64_t t0,
                      std::uint64_t t1) {
  obs::Event e;
  e.kind = kind;
  e.task = task;
  e.t0 = t0;
  e.t1 = t1;
  return e;
}

/// Sink that remembers every event it saw.
struct CollectingSink final : obs::Sink {
  std::vector<obs::Event> seen;
  void on_event(const obs::Event& e) override { seen.push_back(e); }
};

}  // namespace

// ---------- recorder: counters ----------

TEST(ObsRecorder, CountersAggregateAcrossTasks) {
  obs::Recorder rec({.ntasks = 3, .num_scopes = 0, .ring_capacity = 0});
  rec.count(0, obs::Counter::barrier_entries);
  rec.count(0, obs::Counter::barrier_entries);
  rec.count(2, obs::Counter::barrier_entries, 5);
  rec.count(1, obs::Counter::single_wins);
  // Out-of-range tasks are ignored, not UB.
  rec.count(-1, obs::Counter::single_wins);
  rec.count(99, obs::Counter::single_wins);

  EXPECT_EQ(rec.counter(0, obs::Counter::barrier_entries), 2u);
  EXPECT_EQ(rec.counter(2, obs::Counter::barrier_entries), 5u);
  EXPECT_EQ(rec.counter(99, obs::Counter::barrier_entries), 0u);

  const obs::Snapshot s = rec.snapshot();
  ASSERT_EQ(s.tasks.size(), 3u);
  EXPECT_EQ(s.value(obs::Counter::barrier_entries), 7u);
  EXPECT_EQ(s.value(obs::Counter::single_wins), 1u);
  EXPECT_EQ(s.tasks[1].value(obs::Counter::single_wins), 1u);
}

TEST(ObsRecorder, ScopeBytesPerDenseId) {
  obs::Recorder rec({.ntasks = 2, .num_scopes = 4, .ring_capacity = 0});
  rec.count_scope_bytes(0, 1, 256);
  rec.count_scope_bytes(1, 1, 256);
  rec.count_scope_bytes(0, 3, 64);
  rec.count_scope_bytes(0, 7, 1);  // out of range: ignored

  const obs::Snapshot s = rec.snapshot();
  ASSERT_EQ(s.total.scope_bytes.size(), 4u);
  EXPECT_EQ(s.total.scope_bytes[1], 512u);
  EXPECT_EQ(s.total.scope_touches[1], 2u);
  EXPECT_EQ(s.total.scope_bytes[3], 64u);
  EXPECT_EQ(s.total.scope_bytes[0], 0u);
}

// ---------- recorder: event rings ----------

TEST(ObsRecorder, RingRetainsNewestAndCountsDrops) {
  obs::Recorder rec({.ntasks = 1, .num_scopes = 0, .ring_capacity = 4});
  for (int i = 0; i < 10; ++i) {
    rec.record(make_event(obs::EventKind::barrier, 0,
                          static_cast<std::uint64_t>(i),
                          static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(rec.events_recorded(0), 10u);
  EXPECT_EQ(rec.dropped(0), 6u);
  const std::vector<obs::Event> evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(evs.front().t0, 6u);
  EXPECT_EQ(evs.back().t0, 9u);
}

TEST(ObsRecorder, EventsMergeSortedAcrossTasks) {
  obs::Recorder rec({.ntasks = 2, .num_scopes = 0, .ring_capacity = 8});
  rec.record(make_event(obs::EventKind::barrier, 1, 5, 9));
  rec.record(make_event(obs::EventKind::barrier, 0, 2, 3));
  rec.record(make_event(obs::EventKind::barrier, 0, 7, 8));
  const std::vector<obs::Event> evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].t0, 2u);
  EXPECT_EQ(evs[1].t0, 5u);
  EXPECT_EQ(evs[2].t0, 7u);
}

TEST(ObsRecorder, ZeroCapacityDisablesRingsKeepsCounters) {
  obs::Recorder rec({.ntasks = 1, .num_scopes = 0, .ring_capacity = 0});
  rec.record(make_event(obs::EventKind::barrier, 0, 1, 2));
  rec.count(0, obs::Counter::barrier_entries);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.counter(0, obs::Counter::barrier_entries), 1u);
}

// ---------- sink chaining ----------

TEST(ObsRecorder, ChainedSinksSeeEveryEvent) {
  obs::Recorder rec({.ntasks = 1, .num_scopes = 0, .ring_capacity = 4});
  CollectingSink sink;
  rec.chain(&sink);
  rec.record(make_event(obs::EventKind::single_exec, 0, 1, 2));
  // Events without a valid task bypass the rings but still reach sinks.
  rec.record(make_event(obs::EventKind::first_touch, -1, 3, 3));
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[1].task, -1);
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST(ObsRecorder, RecorderChainsOntoRecorder) {
  // A Recorder is itself a Sink: a node-wide recorder can forward into a
  // long-lived aggregate one.
  obs::Recorder downstream({.ntasks = 2, .num_scopes = 0, .ring_capacity = 4});
  obs::Recorder rec({.ntasks = 2, .num_scopes = 0, .ring_capacity = 4});
  rec.chain(&downstream);
  rec.record(make_event(obs::EventKind::barrier, 1, 4, 6));
  ASSERT_EQ(downstream.events().size(), 1u);
  EXPECT_EQ(downstream.events()[0].duration_ns(), 2u);
}

// ---------- exporters ----------

TEST(ObsSnapshot, JsonCarriesCounterAndScopeColumns) {
  obs::Recorder rec({.ntasks = 1, .num_scopes = 2, .ring_capacity = 0});
  rec.count(0, obs::Counter::get_addr_warm, 3);
  rec.count_scope_bytes(0, 1, 128);
  const std::string json =
      obs::to_json(rec.snapshot(), {"node", "numa"});
  EXPECT_NE(json.find("\"get_addr_warm\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes_numa\": 128"), std::string::npos) << json;
  EXPECT_NE(json.find("\"touches_numa\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tasks\""), std::string::npos) << json;
}

TEST(ObsChromeTrace, EmitsSlicesInstantsAndMetadata) {
  std::vector<obs::Event> evs;
  obs::Event barrier = make_event(obs::EventKind::barrier, 0, 1000, 3000);
  barrier.sid = 0;
  barrier.instance = 0;
  evs.push_back(barrier);
  obs::Event coll = make_event(obs::EventKind::collective, 1, 2000, 2500);
  coll.arg = obs::coll_event_arg(obs::CollOp::allreduce,
                                 obs::CollAlg::shm_hier, 4096);
  coll.arg2 = obs::sync_key(5, 9);
  evs.push_back(coll);
  obs::Event bcast = make_event(obs::EventKind::collective, 1, 2600, 2700);
  bcast.arg = obs::coll_event_arg(obs::CollOp::bcast, obs::CollAlg::p2p);
  bcast.arg2 = obs::sync_key(5, 10);
  bcast.instance = 3;  // root task
  evs.push_back(bcast);
  obs::Event fence = make_event(obs::EventKind::rma_epoch, 0, 2800, 2900);
  fence.instance = 2;  // window
  fence.arg2 = 6;      // fence epoch
  evs.push_back(fence);
  obs::Event p2p = make_event(obs::EventKind::p2p_send, 0, 2100, 2100);
  p2p.arg = 1;
  p2p.arg2 = (std::int64_t{7} << 32) | 42;
  evs.push_back(p2p);

  obs::TraceNaming naming;
  naming.scope_name = [](int sid) {
    return sid == 0 ? std::string("node") : std::string();
  };
  const std::string json = obs::chrome_trace_json(evs, naming);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("barrier node#0"), std::string::npos) << json;
  EXPECT_NE(json.find("coll allreduce"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bytes\": 4096"), std::string::npos) << json;
  EXPECT_NE(json.find("\"alg\": \"shm_hier\", \"key\": \"5:9\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"key\": \"5:10\", \"root\": 3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"instance\": 2, \"epoch\": 6"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tag\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\": 2.000"), std::string::npos) << json;
  // Per-task thread metadata for both tasks.
  EXPECT_NE(json.find("task 0"), std::string::npos);
  EXPECT_NE(json.find("task 1"), std::string::npos);
}

// ---------- ScopeSet and the consolidated directive surface ----------

TEST(ScopeSet, ResolvesCommonAndWidestOnce) {
  topo::Machine m = topo::Machine::generic(2, 4);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<int>(mb, "a", topo::numa_scope());
  auto b = hls::add_var<int>(mb, "b", topo::node_scope());
  mb.commit();

  const hls::ScopeSet same(rt, {a.handle(), a.handle()});
  EXPECT_TRUE(same.single_scoped());
  EXPECT_EQ(same.common().kind, topo::ScopeKind::numa);

  const hls::ScopeSet mixed(rt, {a.handle(), b.handle()});
  EXPECT_FALSE(mixed.single_scoped());
  EXPECT_EQ(mixed.widest().kind, topo::ScopeKind::node);
  EXPECT_THROW(mixed.common(), hls::HlsError);

  EXPECT_THROW(hls::ScopeSet(rt, {}), hls::HlsError);
  EXPECT_THROW(hls::ScopeSet().widest(), hls::HlsError);
}

TEST(ScopeSet, DirectivesDispatchThroughPreresolvedSet) {
  topo::Machine m = topo::Machine::generic(1, 2);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();

  int singles = 0;
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    const hls::ScopeSet set = view.scopes({v.handle()});
    for (int round = 0; round < 3; ++round) {
      view.barrier(set);
      view.single(set, [&] { ++singles; });
    }
  });
  EXPECT_EQ(singles, 3);
}

TEST(DirectiveSurface, SingleNowaitOnBoundTask) {
  topo::Machine m = topo::Machine::generic(1, 1);
  hls::Runtime rt(m, 1);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  ult::ThreadTaskContext ctx;
  ctx.set_task_id(0);
  ctx.set_cpu(0);
  rt.bind_task(ctx);
  EXPECT_TRUE(rt.single_nowait({v.handle()}, ctx));
}

// ---------- runtime instrumentation ----------

TEST(ObsRuntime, CountsDirectivesAndStorage) {
  topo::Machine m = topo::Machine::generic(1, 2);
  hls::Runtime rt(m, 2, hls::Runtime::Options{.obs_ring_capacity = 4096});
  obs::Recorder* rec = rt.obs();
  ASSERT_NE(rec, nullptr);

  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();

  constexpr int kRounds = 3;
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    for (int round = 0; round < kRounds; ++round) {
      (void)view.get(v);
      view.barrier({v.handle()});
      view.single({v.handle()}, [] {});
      view.single_nowait({v.handle()}, [] {});
    }
  });

  const obs::Snapshot s = rec->snapshot();
  // One cold resolve per task, the rest warm.
  EXPECT_EQ(s.value(obs::Counter::get_addr_cold), 2u);
  EXPECT_EQ(s.value(obs::Counter::get_addr_warm),
            static_cast<std::uint64_t>(2 * kRounds - 2));
  EXPECT_EQ(s.value(obs::Counter::barrier_entries),
            static_cast<std::uint64_t>(2 * kRounds));
  // Every single elects exactly one executor.
  EXPECT_EQ(s.value(obs::Counter::single_wins),
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(s.value(obs::Counter::single_losses),
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(s.value(obs::Counter::nowait_claims),
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(s.value(obs::Counter::nowait_skips),
            static_cast<std::uint64_t>(kRounds));
  // The module region materialized once, on the node instance (sid 0).
  EXPECT_EQ(s.value(obs::Counter::first_touches), 1u);
  ASSERT_FALSE(s.total.scope_bytes.empty());
  EXPECT_GE(s.total.scope_bytes[0], sizeof(int));

  // Episode events carry durations on the recorder's clock axis.
  bool saw_barrier = false;
  bool saw_single_exec = false;
  bool saw_first_touch = false;
  for (const obs::Event& e : rec->events()) {
    if (e.kind == obs::EventKind::barrier) {
      saw_barrier = true;
      EXPECT_GE(e.t1, e.t0);
      EXPECT_EQ(e.sid, 0);
    }
    if (e.kind == obs::EventKind::single_exec) saw_single_exec = true;
    if (e.kind == obs::EventKind::first_touch) {
      saw_first_touch = true;
      EXPECT_GE(e.arg, static_cast<std::int64_t>(sizeof(int)));
    }
  }
  EXPECT_TRUE(saw_barrier);
  EXPECT_TRUE(saw_single_exec);
  EXPECT_TRUE(saw_first_touch);
}

TEST(ObsRuntime, MigrationCountsAcceptAndReject) {
  topo::Machine m = topo::Machine::generic(1, 2);
  hls::Runtime rt(m, 2);
  obs::Recorder* rec = rt.obs();
  ASSERT_NE(rec, nullptr);

  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::core_scope());
  mb.commit();

  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    if (view.context().task_id() == 0) {
      // Both tasks have seen zero episodes: the move is legal.
      view.migrate(1);
      // Now unbalance the counters and try again: rejected.
      view.single_nowait({v.handle()}, [] {});
      EXPECT_THROW(view.migrate(0), hls::HlsError);
    }
  });
  const obs::Snapshot s = rec->snapshot();
  EXPECT_EQ(s.value(obs::Counter::migrations_ok), 1u);
  EXPECT_EQ(s.value(obs::Counter::migrations_rejected), 1u);
}

TEST(ObsRuntime, SharedRecorderViaOptionsAndSinkChain) {
  topo::Machine m = topo::Machine::generic(1, 2);
  obs::Recorder shared({.ntasks = 2, .num_scopes = 8, .ring_capacity = 64});
  CollectingSink sink;
  hls::Runtime rt(m, 2,
                  hls::Runtime::Options{.obs = &shared, .obs_sink = &sink});
  ASSERT_EQ(rt.obs(), &shared);

  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  check::RoundRobinPolicy policy(1, 0);
  check::DeterministicExecutor ex(policy);
  run_tasks(rt, 2, ex,
            [&](hls::TaskView& view) { view.barrier({v.handle()}); });
  EXPECT_EQ(shared.counter(0, obs::Counter::barrier_entries), 1u);
  EXPECT_FALSE(sink.seen.empty());
}

// ---------- determinism under schedule exploration ----------

TEST(ObsExplorer, EpisodeCountersInvariantAcrossSchedules) {
  // The *totals* of the episode counters are schedule-independent: any
  // interleaving elects one single executor per instance and round, every
  // task enters every barrier, and the first touch happens exactly once.
  // Per-task win/loss splits may differ between schedules; their sums may
  // not. The attempt throws on violation, so the explorer sweeps it
  // across systematic + random schedules.
  constexpr int kTasks = 3;
  constexpr int kRounds = 2;
  auto attempt = [&](ult::Executor& ex) {
    topo::Machine m = topo::Machine::generic(1, 4);
    hls::Runtime rt(m, kTasks);
    obs::Recorder* rec = rt.obs();
    hls::ModuleBuilder mb(rt.registry(), "mod");
    auto v = hls::add_var<int>(mb, "v", topo::node_scope());
    mb.commit();
    run_tasks(rt, kTasks, ex, [&](hls::TaskView& view) {
      for (int round = 0; round < kRounds; ++round) {
        (void)view.get(v);
        view.barrier({v.handle()});
        view.single({v.handle()}, [] {});
        view.single_nowait({v.handle()}, [] {});
      }
    });
    const obs::Snapshot s = rec->snapshot();
    auto expect = [](std::uint64_t got, std::uint64_t want,
                     const char* what) {
      if (got != want) {
        throw std::runtime_error(std::string(what) + ": got " +
                                 std::to_string(got) + ", want " +
                                 std::to_string(want));
      }
    };
    expect(s.value(obs::Counter::barrier_entries), kTasks * kRounds,
           "barrier_entries");
    expect(s.value(obs::Counter::single_wins), kRounds, "single_wins");
    expect(s.value(obs::Counter::single_losses), (kTasks - 1) * kRounds,
           "single_losses");
    expect(s.value(obs::Counter::nowait_claims) +
               s.value(obs::Counter::nowait_skips),
           kTasks * kRounds, "nowait claim+skip");
    expect(s.value(obs::Counter::nowait_claims), kRounds, "nowait_claims");
    expect(s.value(obs::Counter::first_touches), 1, "first_touches");
    expect(s.value(obs::Counter::get_addr_cold), kTasks, "get_addr_cold");
  };
  check::ExploreOptions opts;
  opts.schedules = 200;
  check::ScheduleExplorer explorer(opts);
  const check::ExploreResult res = explorer.explore(attempt);
  EXPECT_TRUE(res.ok) << res.repro;
  EXPECT_EQ(res.schedules_run, 200);
}

TEST(ObsExplorer, SameScheduleSameCounters) {
  // Replaying one fixed schedule must reproduce the per-task counter
  // blocks bit for bit — the property that makes obs snapshots usable as
  // regression columns in BENCH_*.json.
  auto run_once = [](std::vector<std::uint64_t>* out) {
    topo::Machine m = topo::Machine::generic(1, 2);
    hls::Runtime rt(m, 2);
    hls::ModuleBuilder mb(rt.registry(), "mod");
    auto v = hls::add_var<int>(mb, "v", topo::node_scope());
    mb.commit();
    check::RandomPolicy policy(1234);
    check::DeterministicExecutor ex(policy);
    run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
      for (int round = 0; round < 4; ++round) {
        (void)view.get(v);
        view.barrier({v.handle()});
        view.single_nowait({v.handle()}, [] {});
      }
    });
    const obs::Snapshot s = rt.obs()->snapshot();
    for (const auto& t : s.tasks) {
      out->insert(out->end(), t.c.begin(), t.c.end());
    }
  };
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  run_once(&a);
  run_once(&b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// ---------- node-level wiring (MPI + HLS + tracer retrofit) ----------

TEST(ObsNode, SharedRecorderSeesMpiAndHls) {
  topo::Machine m = topo::Machine::generic(1, 2);
  mpc::NodeOptions opts;
  opts.mpi.nranks = 2;
  opts.obs_ring_capacity = 4096;
  mpc::Node node(m, opts);
  obs::Recorder* rec = node.obs();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(node.mpi_rt().obs(), rec);

  hls::ArrayVar<double> shared;
  {
    hls::ModuleBuilder mb(node.hls_rt().registry(), "mod");
    shared = hls::add_array<double>(mb, "B", 8, topo::node_scope());
    mb.commit();
  }
  node.run([&](mpi::Comm& world, hls::TaskView& view) {
    auto& ctx = view.context();
    (void)view.get(shared);
    view.barrier({shared.handle()});
    world.barrier(ctx);
    (void)world.allreduce_value(ctx, 1.0, mpi::Op::sum);
    // Explicit point-to-point traffic: collectives may be served entirely
    // by the shared-memory engine, without a single mailbox message.
    const int me = world.rank(ctx);
    if (me == 0) {
      world.send_value(ctx, 41, 1, 7);
    } else {
      (void)world.recv_value<int>(ctx, 0, 7);
    }
  });

  const obs::Snapshot s = rec->snapshot();
  EXPECT_EQ(s.value(obs::Counter::barrier_entries), 2u);
  EXPECT_GT(s.value(obs::Counter::coll_ops), 0u);
  EXPECT_GT(s.value(obs::Counter::p2p_sends), 0u);
  EXPECT_EQ(s.value(obs::Counter::p2p_sends),
            s.value(obs::Counter::p2p_recvs));
  // The drained stream renders to a Chrome trace with MPI slices.
  const std::string json = obs::chrome_trace_json(rec->events());
  EXPECT_NE(json.find("\"cat\": \"mpi\""), std::string::npos);
}

namespace {

/// A 2-rank node on one fiber worker: every wait is a yield and the
/// worker runs its queue in order, so counters repeat run to run.
mpc::NodeOptions one_worker_node(std::size_t ring, obs::Sink* sink) {
  mpc::NodeOptions opts;
  opts.mpi.nranks = 2;
  opts.mpi.executor = mpi::ExecutorKind::fiber;
  opts.mpi.fiber_workers = 1;
  opts.obs_ring_capacity = ring;
  opts.obs_sink = sink;
  return opts;
}

/// HLS barrier and single, MPI barrier, allreduce, p2p and an RMA fence.
void run_every_layer(mpc::Node& node) {
  hls::ArrayVar<double> shared;
  {
    hls::ModuleBuilder mb(node.hls_rt().registry(), "mod");
    shared = hls::add_array<double>(mb, "B", 8, topo::node_scope());
    mb.commit();
  }
  node.run([&](mpi::Comm& world, hls::TaskView& view) {
    auto& ctx = view.context();
    const int me = world.rank(ctx);
    (void)view.get(shared);
    view.barrier({shared.handle()});
    view.single({shared.handle()}, [] {});
    world.barrier(ctx);
    (void)world.allreduce_value(ctx, 1.0, mpi::Op::sum);
    if (me == 0) {
      world.send_value(ctx, 41, 1, 7);
    } else {
      (void)world.recv_value<int>(ctx, 0, 7);
    }
    std::vector<double> region(4, 0.0);
    rma::Win& win = world.win_create(ctx, region.data(),
                                     region.size() * sizeof(double));
    win.fence(ctx, me);
    win.put(ctx, me, &region[0], sizeof(double), 1 - me, 0);
    win.fence(ctx, me);
    world.win_free(ctx, win);
  });
}

/// Per-kind event counts; thread-safe.
struct KindCountingSink final : obs::Sink {
  std::mutex mu;
  std::map<obs::EventKind, std::size_t> kinds;
  bool stamped = true;  ///< every event had 0 < t0 <= t1
  void on_event(const obs::Event& e) override {
    std::lock_guard<std::mutex> lk(mu);
    ++kinds[e.kind];
    if (e.t0 == 0 || e.t1 < e.t0) stamped = false;
  }
};

}  // namespace

TEST(ObsNode, DefaultNodeKeepsNoRingAndCountsTheSame) {
  // The owned recorder defaults to no ring and no sink: not listening.
  // Its counters must not depend on that, so a node given rings that
  // runs the same program snapshots identically, counter for counter.
  topo::Machine m = topo::Machine::generic(1, 2);
  mpc::Node quiet(m, one_worker_node(mpc::NodeOptions{}.obs_ring_capacity,
                                     nullptr));
  run_every_layer(quiet);
  mpc::Node ringed(m, one_worker_node(4096, nullptr));
  run_every_layer(ringed);

  EXPECT_EQ(quiet.obs()->ring_capacity(), 0u);
  EXPECT_FALSE(quiet.obs()->listening());
  EXPECT_TRUE(quiet.obs()->events().empty());
  EXPECT_EQ(quiet.obs()->now(), 0u);
  ASSERT_FALSE(ringed.obs()->events().empty());

  const obs::Snapshot a = quiet.obs()->snapshot();
  const obs::Snapshot b = ringed.obs()->snapshot();
  EXPECT_EQ(a.value(obs::Counter::barrier_entries), 2u);
  EXPECT_EQ(a.value(obs::Counter::single_wins), 1u);
  EXPECT_GT(a.value(obs::Counter::coll_ops), 0u);
  EXPECT_EQ(a.value(obs::Counter::p2p_sends), 1u);
  EXPECT_EQ(a.value(obs::Counter::rma_puts), 2u);
  EXPECT_GT(a.value(obs::Counter::rma_fences), 0u);
  EXPECT_GT(a.value(obs::Counter::ctx_switches), 0u);
  EXPECT_EQ(obs::to_json(a), obs::to_json(b));
}

TEST(ObsNode, SinkAloneTurnsListeningOn) {
  // A sink chained on a ring-0 recorder receives every event a ring
  // records for the same program, stamped on the recorder's clock.
  topo::Machine m = topo::Machine::generic(1, 2);
  KindCountingSink sink;
  mpc::Node sunk(m, one_worker_node(0, &sink));
  run_every_layer(sunk);
  mpc::Node ringed(m, one_worker_node(4096, nullptr));
  run_every_layer(ringed);

  EXPECT_TRUE(sunk.obs()->listening());
  EXPECT_TRUE(sunk.obs()->events().empty());
  std::map<obs::EventKind, std::size_t> ring_kinds;
  for (const obs::Event& e : ringed.obs()->events()) ++ring_kinds[e.kind];
  for (const obs::EventKind k :
       {obs::EventKind::barrier, obs::EventKind::single_exec,
        obs::EventKind::collective, obs::EventKind::p2p_send,
        obs::EventKind::rma_op, obs::EventKind::rma_epoch,
        obs::EventKind::ctx_switch}) {
    EXPECT_GT(ring_kinds[k], 0u) << obs::to_string(k);
  }
  EXPECT_EQ(sink.kinds, ring_kinds);
  EXPECT_TRUE(sink.stamped);
}

TEST(ObsNode, RuntimeTracerRetrofitsAsSink) {
  // hb::RuntimeTracer attached through the obs event stream (NodeOptions
  // obs_sink): a barrier alone, served by the shared-memory engine without
  // a p2p message, reaches it as a collective event and becomes the
  // representative exchange of hb::SyncWave.
  topo::Machine m = topo::Machine::generic(1, 2);
  hb::RuntimeTracer tracer(2);
  mpc::NodeOptions opts;
  opts.mpi.nranks = 2;
  opts.obs_sink = &tracer;
  mpc::Node node(m, opts);

  node.run([&](mpi::Comm& world, hls::TaskView& view) {
    auto& ctx = view.context();
    if (ctx.task_id() == 0) tracer.on_write(0, "x", 1);
    world.barrier(ctx);
    tracer.on_read(ctx.task_id(), "x", 1);
  });

  const hb::Trace t = tracer.trace();
  bool saw_send = false;
  bool saw_recv = false;
  for (const auto& e : t.events()) {
    if (e.kind == hb::EventKind::send) saw_send = true;
    if (e.kind == hb::EventKind::recv) saw_recv = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}
