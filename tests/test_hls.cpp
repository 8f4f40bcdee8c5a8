#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "check/hls_checker.hpp"
#include "hls/hls.hpp"
#include "ult/scheduler.hpp"

namespace hls = hlsmpc::hls;
namespace topo = hlsmpc::topo;
namespace ult = hlsmpc::ult;
namespace obs = hlsmpc::obs;

namespace {

/// Run `n` tasks pinned to cpus 0..n-1 on the given machine.
void run_tasks(hls::Runtime& rt, int n, ult::Executor& ex,
               const std::function<void(hls::TaskView&)>& body) {
  std::vector<int> pins(static_cast<std::size_t>(n));
  std::iota(pins.begin(), pins.end(), 0);
  ex.run(n, pins, [&](ult::TaskContext& ctx) {
    hls::TaskView view(rt, ctx);
    body(view);
  });
}

}  // namespace

// ---------- registry ----------

TEST(HlsRegistry, OffsetsRespectAlignment) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 4);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<char>(mb, "a", topo::node_scope());
  auto b = hls::add_var<double>(mb, "b", topo::node_scope());
  auto c = hls::add_var<char>(mb, "c", topo::node_scope());
  auto d = hls::add_var<int>(mb, "d", topo::node_scope());
  mb.commit();
  EXPECT_EQ(a.handle().offset, 0u);
  EXPECT_EQ(b.handle().offset, 8u);  // aligned up from 1
  EXPECT_EQ(c.handle().offset, 16u);
  EXPECT_EQ(d.handle().offset, 20u);  // aligned up from 17
}

TEST(HlsRegistry, PerScopeRegionsAreIndependent) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 4);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<double>(mb, "a", topo::node_scope());
  auto b = hls::add_var<double>(mb, "b", topo::numa_scope());
  mb.commit();
  // Different scopes each start their own region at offset 0.
  EXPECT_EQ(a.handle().offset, 0u);
  EXPECT_EQ(b.handle().offset, 0u);
  EXPECT_NE(a.handle().scope, b.handle().scope);
}

TEST(HlsRegistry, CacheScopeLevelResolvesToLlc) {
  topo::Machine m = topo::Machine::nehalem_ex(2);  // llc = L3
  hls::Runtime rt(m, 4);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::cache_scope(0));
  mb.commit();
  EXPECT_EQ(v.handle().scope.kind, topo::ScopeKind::cache);
  EXPECT_EQ(v.handle().scope.cache_level, 3);
}

TEST(HlsRegistry, MisuseIsRejected) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  hls::add_var<int>(mb, "x", topo::node_scope());
  EXPECT_THROW(hls::add_var<int>(mb, "x", topo::node_scope()), hls::HlsError);
  EXPECT_THROW(mb.add_raw("z", topo::node_scope(), 0, 8, {}), hls::HlsError);
  EXPECT_THROW(mb.add_raw("w", topo::node_scope(), 8, 3, {}), hls::HlsError);
  mb.commit();
  // "variable must not have been accessed yet": no declarations after the
  // module is live.
  EXPECT_THROW(hls::add_var<int>(mb, "y", topo::node_scope()), hls::HlsError);
  EXPECT_THROW(mb.commit(), hls::HlsError);
}

TEST(HlsRegistry, UseBeforeCommitThrows) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  ult::ThreadExecutor ex;
  EXPECT_THROW(
      run_tasks(rt, 1, ex, [&](hls::TaskView& view) { view.get(v); }),
      hls::HlsError);
}

// ---------- storage & sharing ----------

TEST(HlsStorage, NodeScopeSharesOneCopy) {
  topo::Machine m = topo::Machine::nehalem_ex(4);
  hls::Runtime rt(m, 8);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope(), 41);
  mb.commit();
  std::mutex mu;
  std::set<void*> addrs;
  ult::ThreadExecutor ex;
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    int& x = view.get(v);
    EXPECT_EQ(x, 41);  // initializer ran
    std::lock_guard<std::mutex> lk(mu);
    addrs.insert(&x);
  });
  EXPECT_EQ(addrs.size(), 1u);
  EXPECT_EQ(rt.storage().copies(v.handle().scope, v.handle().module), 1);
}

TEST(HlsStorage, NumaScopeOneCopyPerNuma) {
  topo::Machine m = topo::Machine::nehalem_ex(4);  // 8 cpus per numa
  hls::Runtime rt(m, 32);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<double>(mb, "v", topo::numa_scope(), 2.5);
  mb.commit();
  std::mutex mu;
  std::map<int, std::set<void*>> addrs_by_numa;
  ult::ThreadExecutor ex;
  run_tasks(rt, 32, ex, [&](hls::TaskView& view) {
    double& x = view.get(v);
    EXPECT_EQ(x, 2.5);
    std::lock_guard<std::mutex> lk(mu);
    addrs_by_numa[m.numa_of_cpu(view.cpu())].insert(&x);
  });
  EXPECT_EQ(addrs_by_numa.size(), 4u);
  std::set<void*> all;
  for (const auto& [numa, addrs] : addrs_by_numa) {
    EXPECT_EQ(addrs.size(), 1u) << "numa " << numa;
    all.insert(addrs.begin(), addrs.end());
  }
  EXPECT_EQ(all.size(), 4u);  // distinct across numa nodes
  EXPECT_EQ(rt.storage().copies(v.handle().scope, v.handle().module), 4);
}

TEST(HlsStorage, CoreScopePrivatePerCore) {
  topo::Machine m = topo::Machine::generic(1, 4, 1 << 20, /*smt=*/2);
  hls::Runtime rt(m, 8);  // 8 hw threads on 4 cores
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::core_scope());
  mb.commit();
  std::mutex mu;
  std::map<int, std::set<void*>> by_core;
  ult::ThreadExecutor ex;
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    int& x = view.get(v);
    std::lock_guard<std::mutex> lk(mu);
    by_core[m.core_of_cpu(view.cpu())].insert(&x);
  });
  // Hyperthreads of a core share; different cores do not (paper §II.B.1).
  EXPECT_EQ(by_core.size(), 4u);
  for (const auto& [core, addrs] : by_core) EXPECT_EQ(addrs.size(), 1u);
  EXPECT_EQ(rt.storage().copies(v.handle().scope, v.handle().module), 4);
}

TEST(HlsStorage, WritesVisibleWithinScopeInstance) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_array<long>(mb, "arr", 16, topo::numa_scope());
  mb.commit();
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    long* arr = view.get(v);
    const int numa = m.numa_of_cpu(view.cpu());
    view.single({v.handle()}, [&] { arr[0] = 1000 + numa; });
    // After the single, every member of the instance sees the write.
    if (arr[0] != 1000 + numa) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(HlsStorage, MemoryAccountingMatchesCopyCount) {
  topo::Machine m = topo::Machine::nehalem_ex(4);
  hlsmpc::memtrack::Tracker tracker;
  hls::Runtime rt(m, 32, &tracker);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  constexpr std::size_t kN = 1 << 12;
  auto node_table = hls::add_array<double>(mb, "node_table", kN,
                                           topo::node_scope());
  auto numa_table = hls::add_array<double>(mb, "numa_table", kN,
                                           topo::numa_scope());
  mb.commit();
  ult::ThreadExecutor ex;
  run_tasks(rt, 32, ex, [&](hls::TaskView& view) {
    view.get(node_table);
    view.get(numa_table);
  });
  // 1 node copy + 4 numa copies of kN doubles each.
  EXPECT_EQ(tracker.current(hlsmpc::memtrack::Category::hls_shared),
            (1 + 4) * kN * sizeof(double));
}

TEST(HlsStorage, LazyAllocationOnlyTouchedInstances) {
  topo::Machine m = topo::Machine::nehalem_ex(4);
  hls::Runtime rt(m, 4);  // tasks only on cpus 0..3 => numa 0 only
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope());
  mb.commit();
  ult::ThreadExecutor ex;
  run_tasks(rt, 4, ex, [&](hls::TaskView& view) { view.get(v); });
  EXPECT_EQ(rt.storage().copies(v.handle().scope, v.handle().module), 1);
}

TEST(HlsStorage, InitializerRunsOncePerInstance) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  static std::atomic<int> init_runs{0};
  init_runs = 0;
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_array<int>(mb, "v", 8, topo::numa_scope(),
                               [](int* p, std::size_t n) {
                                 ++init_runs;
                                 for (std::size_t i = 0; i < n; ++i) {
                                   p[i] = static_cast<int>(i);
                                 }
                               });
  mb.commit();
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    int* p = view.get(v);
    EXPECT_EQ(p[7], 7);
    for (int i = 0; i < 100; ++i) view.get(v);  // repeated access
  });
  EXPECT_EQ(init_runs.load(), 2);  // one per touched numa instance
}

// ---------- synchronization ----------

namespace {

struct SyncParam {
  topo::ScopeSpec scope;
  bool fiber;
};

std::string sync_param_name(const testing::TestParamInfo<SyncParam>& info) {
  std::string s = topo::to_string(info.param.scope);
  for (char& c : s) {
    if (c == '(' || c == ')') c = '_';
  }
  return s + (info.param.fiber ? "_fiber" : "_thread");
}

class HlsSyncParam : public testing::TestWithParam<SyncParam> {
 protected:
  std::unique_ptr<ult::Executor> make_executor() {
    if (GetParam().fiber) return std::make_unique<ult::FiberExecutor>(2);
    return std::make_unique<ult::ThreadExecutor>();
  }
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Scopes, HlsSyncParam,
    testing::Values(SyncParam{topo::node_scope(), false},
                    SyncParam{topo::numa_scope(), false},
                    SyncParam{topo::cache_scope(0), false},
                    SyncParam{topo::core_scope(), false},
                    SyncParam{topo::node_scope(), true},
                    SyncParam{topo::numa_scope(), true}),
    sync_param_name);

TEST_P(HlsSyncParam, SingleExecutesExactlyOncePerInstance) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  const int ntasks = 16;
  hls::Runtime rt(m, ntasks);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", GetParam().scope);
  mb.commit();
  const hls::CanonicalScope canon = v.handle().scope;
  const int ninstances =
      rt.scope_map().num_instances(GetParam().scope) *
          0 +  // instances touched = those with tasks; all are (16 tasks on 16 cpus)
      std::min(rt.scope_map().num_instances(GetParam().scope), ntasks);
  std::atomic<int> executions{0};
  std::atomic<int> bad{0};
  auto ex = make_executor();
  run_tasks(rt, ntasks, *ex, [&](hls::TaskView& view) {
    int& x = view.get(v);
    view.single({v.handle()}, [&] {
      ++executions;
      x = 7;
    });
    if (x != 7) ++bad;  // single's implicit barrier makes the write visible
  });
  EXPECT_EQ(executions.load(), ninstances);
  EXPECT_EQ(bad.load(), 0);
  (void)canon;
}

TEST_P(HlsSyncParam, BarrierSeparatesPhases) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  const int ntasks = 16;
  hls::Runtime rt(m, ntasks);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_array<int>(mb, "v", 16, GetParam().scope);
  mb.commit();
  topo::ScopeMap sm(m);
  const int per_instance = sm.cpus_per_instance(GetParam().scope);
  std::atomic<int> bad{0};
  auto ex = make_executor();
  run_tasks(rt, ntasks, *ex, [&](hls::TaskView& view) {
    int* arr = view.get(v);
    const int slot = view.cpu() % per_instance;
    for (int phase = 0; phase < 5; ++phase) {
      arr[slot] = phase;
      view.barrier({v.handle()});
      // All instance members must have written this phase.
      const int members = std::min(per_instance, 16);
      for (int i = 0; i < members; ++i) {
        if (arr[i] != phase) ++bad;
      }
      view.barrier({v.handle()});
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(HlsSyncParam, SingleNowaitFirstTaskRuns) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  const int ntasks = 16;
  hls::Runtime rt(m, ntasks);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", GetParam().scope);
  mb.commit();
  const int ninstances =
      std::min(rt.scope_map().num_instances(GetParam().scope), ntasks);
  std::atomic<int> executions{0};
  auto ex = make_executor();
  run_tasks(rt, ntasks, *ex, [&](hls::TaskView& view) {
    for (int site = 0; site < 3; ++site) {
      view.single_nowait({v.handle()}, [&] { ++executions; });
    }
  });
  EXPECT_EQ(executions.load(), 3 * ninstances);
}

TEST(HlsSync, HierarchicalAndFlatBarriersAgree) {
  topo::Machine m = topo::Machine::nehalem_ex(4);
  for (bool flat : {false, true}) {
    hls::Runtime rt(m, 32);
    rt.sync().force_flat(flat);
    EXPECT_EQ(rt.sync().uses_hierarchy(hls::CanonicalScope{
                  topo::ScopeKind::node, 0}),
              !flat);
    hls::ModuleBuilder mb(rt.registry(), "mod");
    auto v = hls::add_var<long>(mb, "v", topo::node_scope());
    mb.commit();
    std::atomic<long> sum{0};
    std::atomic<int> bad{0};
    ult::ThreadExecutor ex;
    run_tasks(rt, 32, ex, [&](hls::TaskView& view) {
      for (int round = 0; round < 3; ++round) {
        sum.fetch_add(1);
        view.barrier({v.handle()});
        if (sum.load() < 32 * (round + 1)) ++bad;
        view.barrier({v.handle()});
      }
    });
    EXPECT_EQ(bad.load(), 0) << (flat ? "flat" : "hierarchical");
  }
}

TEST(HlsSync, SingleLastArriverExecutes) {
  // The paper implements single as a modified barrier in which the LAST
  // entering task executes the block. Stagger arrivals and check that the
  // executor is the straggler.
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 4);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  std::atomic<int> arrivals{0};
  std::atomic<bool> task3_ran{false};
  ult::ThreadExecutor ex;
  run_tasks(rt, 4, ex, [&](hls::TaskView& view) {
    view.get(v);
    const int me = view.context().task_id();
    if (me == 3) {
      // Stagger: enter only after the other three are (about to be)
      // parked inside the single's barrier.
      while (arrivals.load() < 3) view.context().yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else {
      arrivals.fetch_add(1);
    }
    view.single({v.handle()}, [&] { task3_ran = (me == 3); });
  });
  EXPECT_TRUE(task3_ran.load());
}

TEST(HlsSync, MixedScopeSingleRejected) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<int>(mb, "a", topo::node_scope());
  auto b = hls::add_var<int>(mb, "b", topo::numa_scope());
  mb.commit();
  std::atomic<int> threw{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    try {
      view.single({a.handle(), b.handle()}, [] {});
    } catch (const hls::HlsError&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(HlsSync, BarrierListUsesWidestScope) {
  // barrier(a: numa, b: node) must synchronize the whole node (§II.B.2).
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<int>(mb, "a", topo::numa_scope());
  auto b = hls::add_var<int>(mb, "b", topo::node_scope());
  mb.commit();
  EXPECT_EQ(rt.widest_scope({a.handle(), b.handle()}).kind,
            topo::ScopeKind::node);
  std::atomic<int> count{0};
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    count.fetch_add(1);
    view.barrier({a.handle(), b.handle()});
    if (count.load() != 16) ++bad;  // node-wide rendezvous
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(HlsSync, EmptyListsRejected) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 1);
  ult::ThreadExecutor ex;
  std::atomic<int> threw{0};
  run_tasks(rt, 1, ex, [&](hls::TaskView& view) {
    try {
      view.barrier({});
    } catch (const hls::HlsError&) {
      ++threw;
    }
    try {
      view.single({}, [] {});
    } catch (const hls::HlsError&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 2);
}

TEST(HlsStorage, MultipleModulesCoexist) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 8);
  hls::ModuleBuilder physics(rt.registry(), "physics");
  auto eos = hls::add_array<double>(physics, "eos", 128, topo::node_scope());
  physics.commit();
  hls::ModuleBuilder solver(rt.registry(), "solver");
  auto cfg = hls::add_var<int>(solver, "cfg", topo::node_scope(), 5);
  auto cache_tab =
      hls::add_array<float>(solver, "tab", 64, topo::numa_scope());
  solver.commit();

  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    double* e = view.get(eos);
    int& c = view.get(cfg);
    float* t = view.get(cache_tab);
    if (c != 5) ++bad;
    view.single({eos.handle()}, [&] { e[0] = 1.5; });
    view.single({cache_tab.handle()}, [&] { t[0] = 2.5f; });
    if (e[0] != 1.5 || t[0] != 2.5f) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(rt.registry().num_modules(), 2);
}

TEST(HlsStorage, ConcurrentFirstTouchIsSafe) {
  // Many tasks race to be the first accessor of many modules; each module
  // region must be allocated and initialized exactly once.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  constexpr int kModules = 12;
  static std::atomic<int> inits{0};
  inits = 0;
  std::vector<hls::ArrayVar<long>> vars;
  for (int i = 0; i < kModules; ++i) {
    hls::ModuleBuilder mb(rt.registry(), "mod" + std::to_string(i));
    vars.push_back(hls::add_array<long>(
        mb, "v", 256, topo::node_scope(), [](long* p, std::size_t n) {
          ++inits;
          for (std::size_t j = 0; j < n; ++j) p[j] = static_cast<long>(j);
        }));
    mb.commit();
  }
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    for (int round = 0; round < 3; ++round) {
      for (auto& v : vars) {
        long* p = view.get(v);
        if (p[255] != 255) ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(inits.load(), kModules);  // once per module (node scope => 1 inst)
}

TEST(HlsStorage, ConcurrentFirstTouchInitializesOnce) {
  // N tasks race the lazy first touch of ONE module region on the SAME
  // scope instance. The double-checked atomic publish must elect exactly
  // one initializer, and every racer must observe the same fully
  // initialized region (ledger-checked per task).
  topo::Machine m = topo::Machine::nehalem_ex(2);
  const int ntasks = 16;
  hls::Runtime rt(m, ntasks);
  static std::atomic<int> inits{0};
  inits = 0;
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_array<long>(mb, "v", 512, topo::node_scope(),
                                [](long* p, std::size_t n) {
                                  ++inits;
                                  for (std::size_t i = 0; i < n; ++i) {
                                    p[i] = static_cast<long>(i) * 3;
                                  }
                                });
  mb.commit();
  std::vector<void*> ledger(static_cast<std::size_t>(ntasks), nullptr);
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, ntasks, ex, [&](hls::TaskView& view) {
    long* p = view.get(v);  // all tasks race the first touch
    ledger[static_cast<std::size_t>(view.context().task_id())] = p;
    // A non-winning racer must never see a partially initialized region.
    if (p[0] != 0 || p[511] != 511 * 3) ++bad;
  });
  EXPECT_EQ(inits.load(), 1);  // node scope: one instance, one init
  EXPECT_EQ(bad.load(), 0);
  for (int t = 1; t < ntasks; ++t) {
    EXPECT_EQ(ledger[static_cast<std::size_t>(t)], ledger[0]) << "task " << t;
  }
  EXPECT_EQ(rt.storage().copies(v.handle().scope, v.handle().module), 1);
}

TEST(HlsStorage, TrailingOverrunRejected) {
  // The range check must catch [offset, offset + size) running past the
  // region end, not just a bad start offset: an in-bounds offset with a
  // size crossing the boundary used to pass silently.
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 1);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_array<int>(mb, "v", 4, topo::node_scope());  // 16 bytes
  mb.commit();
  const hls::VarHandle h = v.handle();
  auto& st = rt.storage();
  // Whole region and suffixes are fine.
  EXPECT_NE(st.get_addr(h.scope, h.module, 0, 16, 0), nullptr);
  EXPECT_NE(st.get_addr(h.scope, h.module, 12, 4, 0), nullptr);
  EXPECT_NE(st.get_addr(h.scope, h.module, 16, 0, 0), nullptr);  // empty tail
  // Start offset past the end: caught before and now.
  EXPECT_THROW(st.get_addr(h.scope, h.module, 17, 0, 0), hls::HlsError);
  // Trailing overrun: starts in bounds, runs past the end.
  EXPECT_THROW(st.get_addr(h.scope, h.module, 12, 8, 0), hls::HlsError);
  EXPECT_THROW(st.get_addr(h.scope, h.module, 0, 17, 0), hls::HlsError);
  // Offset + size overflow must not wrap around to "in bounds".
  EXPECT_THROW(st.get_addr(h.scope, h.module, 8,
                           std::numeric_limits<std::size_t>::max() - 4, 0),
               hls::HlsError);
  // The same check guards the cached Runtime::get_addr path.
  ult::ThreadExecutor ex;
  std::atomic<int> threw{0};
  run_tasks(rt, 1, ex, [&](hls::TaskView& view) {
    view.get(v);  // warm the per-task cache
    hls::VarHandle bad = h;
    bad.offset = 12;
    bad.size = 8;
    try {
      view.runtime().get_addr(bad, view.context());
    } catch (const hls::HlsError&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 1);
}

// ---------- Runtime::get_addr: the checks its inline warm path keeps ----------

namespace {

/// A thread context bound to `rt` as task `task` on `cpu`.
ult::ThreadTaskContext bound_ctx(hls::Runtime& rt, int task, int cpu) {
  ult::ThreadTaskContext ctx;
  ctx.set_task_id(task);
  ctx.set_cpu(cpu);
  rt.bind_task(ctx);
  return ctx;
}

std::uint64_t counter(const hls::Runtime& rt, int task, obs::Counter c) {
  return rt.obs()->counter(task, c);
}

}  // namespace

TEST(HlsGetAddr, DefaultHandleThrows) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 1);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  ult::ThreadTaskContext ctx = bound_ctx(rt, 0, 0);
  EXPECT_NE(rt.get_addr(v.handle(), ctx), nullptr);  // cache is warm
  EXPECT_THROW(rt.get_addr(hls::VarHandle{}, ctx), hls::HlsError);
}

TEST(HlsGetAddr, CpuGuardMissesWhenCpuChangesWithoutBind) {
  // ult::Scheduler and the executors re-pin through ctx.set_cpu without
  // calling the runtime; the cache's cpu guard must turn the next call
  // into a miss that resolves the new cpu's instance.
  topo::Machine m = topo::Machine::nehalem_ex(2);  // cpu 8 = numa 1
  hls::Runtime rt(m, 1);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope());
  mb.commit();
  const hls::VarHandle h = v.handle();
  ult::ThreadTaskContext ctx = bound_ctx(rt, 0, 0);
  void* on_numa0 = rt.get_addr(h, ctx);
  EXPECT_EQ(rt.get_addr(h, ctx), on_numa0);  // warm hit
  const std::uint64_t cold = counter(rt, 0, obs::Counter::get_addr_cold);
  ctx.set_cpu(8);
  void* on_numa1 = rt.get_addr(h, ctx);
  EXPECT_NE(on_numa1, on_numa0);
  EXPECT_EQ(on_numa1, rt.storage().get_addr(h, 8));
  EXPECT_EQ(counter(rt, 0, obs::Counter::get_addr_cold), cold + 1);
}

TEST(HlsGetAddr, WarmRangeFailureThrowsWithoutResolving) {
  // A range failure against a warm entry throws from the cached region's
  // size alone: no storage resolve (get_addr_cold), no page-cache touch.
  const std::string dir = testing::TempDir() + "hls_getaddr_warm_range";
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime::Options o;
  o.tier.dir = dir;
  o.tier.page_bytes = 4096;
  hls::Runtime rt(m, 1, o);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_array<int>(mb, "v", 4096, topo::node_scope());
  mb.commit();
  const hls::VarHandle h = v.handle();
  rt.storage().set_tier(h.scope, hls::Tier::file_backed);
  ult::ThreadTaskContext ctx = bound_ctx(rt, 0, 0);
  ASSERT_NE(rt.get_addr(h, ctx), nullptr);  // cold: fills the cache
  hls::VarHandle bad = h;
  bad.offset = h.size - 4;
  bad.size = 8;
  auto touches = [&] {
    return counter(rt, 0, obs::Counter::tier_cache_hits) +
           counter(rt, 0, obs::Counter::tier_cache_misses);
  };
  const std::uint64_t cold = counter(rt, 0, obs::Counter::get_addr_cold);
  const std::uint64_t warm = counter(rt, 0, obs::Counter::get_addr_warm);
  const std::uint64_t touched = touches();
  EXPECT_GT(touched, 0u);  // the cold resolve went through the cache
  EXPECT_THROW(rt.get_addr(bad, ctx), hls::HlsError);
  EXPECT_EQ(counter(rt, 0, obs::Counter::get_addr_cold), cold);
  EXPECT_EQ(counter(rt, 0, obs::Counter::get_addr_warm), warm);
  EXPECT_EQ(touches(), touched);
}

TEST(HlsMigration, AddrCacheInvalidatedOnMigration) {
  // MPC_Move must drop the task's resolved-address cache: after a legal
  // move to another numa instance the same handle resolves to that
  // instance's copy, and moving back returns the original address.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 1);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope(), 9);
  mb.commit();
  ult::ThreadExecutor ex;
  std::atomic<int> bad{0};
  run_tasks(rt, 1, ex, [&](hls::TaskView& view) {
    int* on_numa0 = &view.get(v);
    if (&view.get(v) != on_numa0) ++bad;  // warm hit is stable
    view.migrate(8);                      // numa 0 -> numa 1
    int* on_numa1 = &view.get(v);
    if (on_numa1 == on_numa0) ++bad;  // stale cached pointer => shared copy
    if (*on_numa1 != 9) ++bad;        // fresh copy was initialized
    view.migrate(0);
    if (&view.get(v) != on_numa0) ++bad;  // back to the first instance
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(rt.storage().copies(v.handle().scope, v.handle().module), 2);
}

TEST(HlsSync, SingleNowaitSitesAreIndependentPerScope) {
  // nowait counters are per scope: sites on different scopes do not
  // interfere.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<int>(mb, "a", topo::node_scope());
  auto b = hls::add_var<int>(mb, "b", topo::numa_scope());
  mb.commit();
  std::atomic<int> node_runs{0}, numa_runs{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    view.single_nowait({a.handle()}, [&] { ++node_runs; });
    view.single_nowait({b.handle()}, [&] { ++numa_runs; });
    view.single_nowait({a.handle()}, [&] { ++node_runs; });
  });
  EXPECT_EQ(node_runs.load(), 2);  // two node sites
  EXPECT_EQ(numa_runs.load(), 2);  // one site x two numa instances
}

TEST(HlsSync, ListingTwoBarrierNowaitPattern) {
  // Listing 2 of the paper: explicit barriers around two nowait singles
  // halves the synchronizations of listing 1 while staying correct.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<int>(mb, "a", topo::node_scope());
  auto b = hls::add_var<int>(mb, "b", topo::numa_scope());
  mb.commit();
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    int& av = view.get(a);
    int& bv = view.get(b);
    view.barrier({a.handle(), b.handle()});
    view.single_nowait({a.handle()}, [&] { av = 4; });
    view.single_nowait({b.handle()}, [&] { bv = 2; });
    view.barrier({a.handle(), b.handle()});
    // After the closing barrier both writes are visible everywhere.
    if (av != 4 || bv != 2) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

// ---------- migration ----------

TEST(HlsMigration, AlignedCountersAllowMove) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope(), 5);
  mb.commit();
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  // Tasks on cpus 0 and 1 (both numa 0); task 0 moves to numa 1.
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    int* before = &view.get(v);
    if (view.context().task_id() == 0) {
      view.migrate(8);  // cpu 8 = numa 1
      int* after = &view.get(v);
      if (after == before) ++bad;  // must now see numa 1's copy
      if (*after != 5) ++bad;      // fresh copy initialized
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(HlsMigration, MismatchedCountersRejectMove) {
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 8);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope());
  mb.commit();
  std::atomic<int> threw{0};
  ult::ThreadExecutor ex;
  // All 8 tasks on numa 0 (cpus 0..7). They perform a numa-scope barrier;
  // numa 1's instance has seen none, so migration there must be refused.
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    view.get(v);
    view.barrier({v.handle()});
    if (view.context().task_id() == 0) {
      try {
        view.migrate(8);
      } catch (const hls::HlsError&) {
        ++threw;
      }
    }
  });
  EXPECT_EQ(threw.load(), 1);
}

TEST(HlsMigration, MismatchedNowaitCountersRejectMove) {
  // Nowait sites count toward the §IV.A episode totals: a task that passed
  // a numa-scope nowait site cannot move to a numa instance that has not.
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 2);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope());
  mb.commit();
  std::atomic<int> threw{0};
  ult::ThreadExecutor ex;
  // Both tasks on numa 0 (cpus 0, 1) pass one nowait site, so their numa
  // counters read 1; numa 1's instance still reads 0.
  run_tasks(rt, 2, ex, [&](hls::TaskView& view) {
    view.get(v);
    view.single_nowait({v.handle()}, [] {});
    view.barrier({v.handle()});
    if (view.context().task_id() == 0) {
      try {
        view.migrate(8);  // cpu 8 = numa 1
      } catch (const hls::HlsError& e) {
        ++threw;
        EXPECT_NE(std::string(e.what()).find("episodes"), std::string::npos);
      }
    }
  });
  EXPECT_EQ(threw.load(), 1);
}

TEST(HlsMigration, MigrateMidSingleThrows) {
  // The elected executor owns the instance's exclusivity and its counters
  // are mid-update: MPC_Move from inside the block must be refused even
  // when the counters would otherwise match.
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 4);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  std::atomic<int> threw{0};
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 4, ex, [&](hls::TaskView& view) {
    view.get(v);
    view.single({v.handle()}, [&] {
      try {
        view.migrate(5);  // same node: counters match, still illegal here
        ++bad;
      } catch (const hls::HlsError& e) {
        ++threw;
        EXPECT_NE(std::string(e.what()).find("single"), std::string::npos);
      }
    });
    // The refused move must leave the single usable: everyone gets here.
    view.barrier({v.handle()});
  });
  EXPECT_EQ(threw.load(), 1);  // exactly one executor tried
  EXPECT_EQ(bad.load(), 0);
}

TEST(HlsMigration, MigrateThenBarrierRecountsParticipants) {
  // After a legal move the barrier arrival counts must follow the new
  // pinning: numa 0 now expects 3 arrivals, numa 1 exactly 1 — with stale
  // counts either side would hang (guarded by the ctest timeout).
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 4);
  hlsmpc::check::HlsChecker checker(rt.scope_map(), 4);
  rt.sync().set_observer(&checker);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto nv = hls::add_var<int>(mb, "nv", topo::node_scope());
  auto v = hls::add_var<int>(mb, "v", topo::numa_scope());
  mb.commit();
  std::atomic<int> threw{0};
  ult::ThreadExecutor ex;
  // All 4 tasks start on numa 0 (cpus 0..3); task 0 moves to numa 1.
  run_tasks(rt, 4, ex, [&](hls::TaskView& view) {
    view.get(v);
    view.barrier({nv.handle()});
    if (view.context().task_id() == 0) {
      try {
        view.migrate(8);  // counters all aligned: must be accepted
      } catch (const hls::HlsError&) {
        ++threw;
      }
    }
    view.barrier({nv.handle()});  // publish the new pinning to everyone
    view.barrier({v.handle()});   // numa barrier under the new layout
  });
  rt.sync().set_observer(nullptr);
  EXPECT_EQ(threw.load(), 0);
  const hls::CanonicalScope numa{topo::ScopeKind::numa, 0};
  const hls::CanonicalScope node{topo::ScopeKind::node, 0};
  EXPECT_EQ(rt.sync().participants(numa, 0), 3);
  EXPECT_EQ(rt.sync().participants(numa, 8), 1);
  // Both numa instances completed exactly one episode each.
  EXPECT_EQ(rt.sync().instance_sync_count(numa, 0), 1u);
  EXPECT_EQ(rt.sync().instance_sync_count(numa, 8), 1u);
  EXPECT_EQ(rt.sync().instance_sync_count(node, 0), 2u);
  EXPECT_TRUE(checker.verify()) << checker.report();
}

TEST(HlsMigration, BadCpuRejected) {
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 1);
  ult::ThreadExecutor ex;
  std::atomic<int> threw{0};
  run_tasks(rt, 1, ex, [&](hls::TaskView& view) {
    try {
      view.migrate(99);
    } catch (const hls::HlsError&) {
      ++threw;
    }
  });
  EXPECT_EQ(threw.load(), 1);
}

TEST(HlsStorage, NumaLevelTwoSharesPerSocket) {
  // The numa scope's level clause (§II.B.1): on a machine with two NUMA
  // domains per socket, numa = 4 copies, numa level(2) = 2 copies.
  topo::MachineDesc d;
  d.name = "numa-heavy";
  d.sockets = 2;
  d.numa_per_socket = 2;
  d.cores_per_numa = 2;
  d.caches = {
      {.level = 1, .size_bytes = 32 << 10, .line_bytes = 64,
       .associativity = 8, .cpus_per_instance = 1, .latency_cycles = 4},
      {.level = 2, .size_bytes = 1 << 20, .line_bytes = 64,
       .associativity = 16, .cpus_per_instance = 4, .latency_cycles = 30},
  };
  const topo::Machine m{d};
  hls::Runtime rt(m, 8);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto per_domain = hls::add_var<int>(mb, "d", topo::numa_scope());
  auto per_socket =
      hls::add_var<int>(mb, "s", topo::ScopeSpec{topo::ScopeKind::numa, 2});
  mb.commit();
  ult::ThreadExecutor ex;
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    view.get(per_domain);
    view.get(per_socket);
  });
  EXPECT_EQ(rt.storage().copies(per_domain.handle().scope,
                                per_domain.handle().module),
            4);
  EXPECT_EQ(rt.storage().copies(per_socket.handle().scope,
                                per_socket.handle().module),
            2);
}

TEST(HlsStorage, NumaLevelCollapsesOnSingleDomainSockets) {
  // On Nehalem-EX one socket == one NUMA domain, so numa(2) and numa are
  // the same canonical scope (no duplicate storage).
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 4);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto a = hls::add_var<int>(mb, "a", topo::numa_scope());
  auto b =
      hls::add_var<int>(mb, "b", topo::ScopeSpec{topo::ScopeKind::numa, 2});
  mb.commit();
  EXPECT_EQ(a.handle().scope, b.handle().scope);
}

// ---------- heap-backed HLS variables (listing 4 pattern) ----------

TEST(HlsHeap, PointerVariableWithSingleAllocation) {
  // "an HLS global variable can point to heap-allocated memory with a
  // proper use of the single directive around allocation/deallocation".
  topo::Machine m = topo::Machine::nehalem_ex(1);
  hls::Runtime rt(m, 8);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto bptr = hls::add_var<double*>(mb, "B", topo::node_scope(), nullptr);
  mb.commit();
  std::atomic<int> bad{0};
  ult::ThreadExecutor ex;
  run_tasks(rt, 8, ex, [&](hls::TaskView& view) {
    double*& B = view.get(bptr);
    view.single({bptr.handle()}, [&] {
      B = new double[64];
      for (int i = 0; i < 64; ++i) B[i] = i * 0.5;
    });
    if (B == nullptr || B[10] != 5.0) ++bad;
    view.barrier({bptr.handle()});
    view.single({bptr.handle()}, [&] {
      delete[] B;
      B = nullptr;
    });
    if (B != nullptr) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

// ---------- stress: oversubscribed single/nowait hammer ----------

TEST(HlsStress, SingleHammerExactlyOneWinnerPerEpisode) {
  // 8 tasks on 4 cpus (two per core) hammer alternating single /
  // single-nowait sites for 1000 iterations. An atomic per-episode ledger
  // proves exactly one winner per episode; the race checker rides along
  // and the episode counters must balance at the end.
  topo::Machine m = topo::Machine::generic(1, 4);
  const int ntasks = 8;
  const int iters = 1000;
  hls::Runtime rt(m, ntasks);
  hlsmpc::check::HlsChecker checker(rt.scope_map(), ntasks);
  rt.sync().set_observer(&checker);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  std::vector<std::atomic<int>> ledger(iters);
  std::vector<int> pins(ntasks);
  for (int i = 0; i < ntasks; ++i) pins[i] = i % m.num_cpus();
  ult::ThreadExecutor ex;
  ex.run(ntasks, pins, [&](ult::TaskContext& ctx) {
    hls::TaskView view(rt, ctx);
    view.get(v);
    for (int i = 0; i < iters; ++i) {
      if (i % 2 == 0) {
        view.single({v.handle()},
                    [&] { ledger[static_cast<std::size_t>(i)].fetch_add(1); });
      } else {
        view.single_nowait(
            {v.handle()},
            [&] { ledger[static_cast<std::size_t>(i)].fetch_add(1); });
      }
    }
  });
  rt.sync().set_observer(nullptr);
  for (int i = 0; i < iters; ++i) {
    ASSERT_EQ(ledger[static_cast<std::size_t>(i)].load(), 1)
        << "episode " << i << " had the wrong number of winners";
  }
  const hls::CanonicalScope node{topo::ScopeKind::node, 0};
  EXPECT_EQ(rt.sync().instance_sync_count(node, 0),
            static_cast<std::uint64_t>(iters));
  for (int t = 0; t < ntasks; ++t) {
    EXPECT_EQ(rt.sync().task_sync_count(t, node),
              static_cast<std::uint64_t>(iters))
        << "task " << t;
  }
  EXPECT_TRUE(checker.verify()) << checker.report();
}

// ---------- property sweep: episode counters stay consistent ----------

class HlsCounterSweep : public testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Episodes, HlsCounterSweep,
                         testing::Values(1, 3, 10));

TEST_P(HlsCounterSweep, TaskAndInstanceCountsAgree) {
  const int episodes = GetParam();
  topo::Machine m = topo::Machine::nehalem_ex(2);
  hls::Runtime rt(m, 16);
  hls::ModuleBuilder mb(rt.registry(), "mod");
  auto v = hls::add_var<int>(mb, "v", topo::node_scope());
  mb.commit();
  ult::ThreadExecutor ex;
  run_tasks(rt, 16, ex, [&](hls::TaskView& view) {
    for (int e = 0; e < episodes; ++e) {
      switch (e % 3) {
        case 0:
          view.barrier({v.handle()});
          break;
        case 1:
          view.single({v.handle()}, [] {});
          break;
        case 2:
          view.single_nowait({v.handle()}, [] {});
          break;
      }
    }
  });
  const hls::CanonicalScope node{topo::ScopeKind::node, 0};
  const auto inst_count = rt.sync().instance_sync_count(node, 0);
  EXPECT_EQ(inst_count, static_cast<std::uint64_t>(episodes));
  for (int t = 0; t < 16; ++t) {
    EXPECT_EQ(rt.sync().task_sync_count(t, node),
              static_cast<std::uint64_t>(episodes))
        << "task " << t;
  }
}
