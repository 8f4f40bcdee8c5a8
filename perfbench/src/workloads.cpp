// The four workloads. Each repetition builds the runtime from scratch
// (that is the set-up the benchmark times), runs a fixed number of
// closed-loop steps on 4 ranks — a rank starts step k+1 only after step
// k's closing synchronization — and checks the outputs against a
// sequential reference the workload computes itself from the same
// generated inputs.
//
// Only public entry points are driven: mpc::Node, hls::Runtime/TaskView,
// mpi::Comm, mpi::rma::Win, hls::CheckpointStore and mpi::SimCluster.
// Spans (traced repetitions only) wrap each call into a layer; a span's
// name says which layer the call enters ("hls.", "mpi.", "compute." for
// the workload's own kernel, "bench." for the loop itself).
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "hls/checkpoint.hpp"
#include "hls/hls.hpp"
#include "mpc/node.hpp"
#include "mpi/cluster.hpp"
#include "mpi/rma.hpp"

namespace perfbench {

namespace {

using namespace hlsmpc;

/// Two sockets of two cores: node and numa scopes stay distinct.
topo::Machine machine() { return topo::Machine::generic(2, 2); }

mpc::NodeOptions node_options() {
  mpc::NodeOptions o;
  o.mpi.nranks = kRanks;
  o.mpi.executor = mpi::ExecutorKind::thread;
  return o;
}

constexpr double kMiB = 1024.0 * 1024.0;

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// Phase boundaries of one repetition. Rank 0 writes the scalar fields,
/// each rank its own body_start/cold slot; read only after the join.
struct Timeline {
  std::uint64_t begin = now_ns();
  std::uint64_t launch = 0;
  std::uint64_t setup_end = 0;
  std::uint64_t solve_end = 0;
  std::array<std::uint64_t, kRanks> body_start{};
  std::array<double, kRanks> cold_ms{};
  std::vector<double> step_ms;

  void finish(Rep& rep) const {
    rep.setup_s = static_cast<double>(setup_end - begin) / 1e9;
    rep.solve_s += static_cast<double>(solve_end - setup_end) / 1e9;
    rep.step_ms = step_ms;
    const std::uint64_t last =
        *std::max_element(body_start.begin(), body_start.end());
    rep.layer["ult.launch_ms"] = static_cast<double>(last - launch) / 1e6;
    rep.layer["hls.get_addr.cold_ms"] =
        *std::max_element(cold_ms.begin(), cold_ms.end());
  }
};

Rep new_rep(bool traced) {
  Rep rep;
  if (traced) rep.tracers.resize(kRanks);
  return rep;
}

Tracer* tracer_of(Rep& rep, int rank) {
  return rep.tracers.empty() ? nullptr
                             : &rep.tracers[static_cast<std::size_t>(rank)];
}

void fail(Rep& rep, const std::string& why) {
  if (rep.ok) rep.error = why;
  rep.ok = false;
}

/// obs::Recorder::snapshot() counts of one repetition (the runtime is
/// fresh per repetition, so totals are per-repetition values).
void count_obs(Rep& rep, const obs::Recorder* rec) {
  if (rec == nullptr) return;
  const obs::Snapshot s = rec->snapshot();
  const auto v = [&](obs::Counter c) { return static_cast<double>(s.value(c)); };
  rep.layer["hls.get_addr.calls"] =
      v(obs::Counter::get_addr_warm) + v(obs::Counter::get_addr_cold);
  rep.layer["obs.coll_shm_ops"] = v(obs::Counter::coll_shm_ops);
  rep.layer["obs.coll_shm_pipelined_ops"] =
      v(obs::Counter::coll_shm_pipelined_ops);
  rep.layer["obs.tier_preread_bytes"] = v(obs::Counter::tier_preread_bytes);
  rep.layer["obs.tier_writeback_bytes"] =
      v(obs::Counter::tier_writeback_bytes);
  rep.layer["ult.ctx_switches"] = v(obs::Counter::ctx_switches);
  rep.layer["mpi.rma.put.bytes"] = v(obs::Counter::rma_bytes);
  const double hits = v(obs::Counter::tier_cache_hits);
  const double touches = hits + v(obs::Counter::tier_cache_misses);
  rep.layer["hls.tier.cache_touches"] = touches;
  rep.layer["hls.tier.cache_hit_ratio"] = touches > 0 ? hits / touches : 0;
}

/// `#pragma hls single` through the runtime's scope core, traced as
/// "hls.single.exec" on the executing rank (its body spans are children)
/// and "hls.single.wait" on the others.
template <typename Fn>
void single(hls::Runtime& rt, const hls::ScopeSet& ss, ult::TaskContext& ctx,
            Tracer* tr, int step, Fn&& body) {
  const std::uint64_t t0 = tr != nullptr ? now_ns() : 0;
  if (rt.single_enter(ss, ctx)) {
    const int idx = tr != nullptr ? tr->begin_at("hls.single.exec", step, t0)
                                  : -1;
    body();
    rt.single_done(ss, ctx);
    if (tr != nullptr) tr->end(idx);
  } else if (tr != nullptr) {
    tr->end(tr->begin_at("hls.single.wait", step, t0));
  }
}

/// Resolve `h` for the first time on this rank (the cold path: first
/// touch, tier attach) and record how long it took.
void* cold_get_addr(hls::Runtime& rt, const hls::VarHandle& h,
                    ult::TaskContext& ctx, Tracer* tr, Timeline& tl, int me) {
  const std::uint64_t t0 = now_ns();
  SpanGuard g(tr, "hls.get_addr.cold", -1);
  void* p = rt.get_addr(h, ctx);
  tl.cold_ms[static_cast<std::size_t>(me)] = ms_since(t0);
  return p;
}

// ---------------------------------------------------------------- mesh_update

/// Table I's mesh update on the real runtime: a node-scope table every
/// rank reads at random, rewritten inside a `single` every step (the
/// update variant), each access resolved through get_addr as the -fhls
/// rewrite emits it.
class MeshUpdate final : public Workload {
 public:
  // Table and mesh stay resident in each core's L2: the step is bound by
  // address resolution and synchronization, not by the shared L3.
  static constexpr std::size_t kTable = std::size_t{1} << 15;  // 256 KiB
  static constexpr std::size_t kCells = std::size_t{1} << 15;  // per rank
  static constexpr int kSteps = 400;

  explicit MeshUpdate(std::uint64_t seed) : seed_(seed), base_(kTable) {
    Rng g{mix64(seed ^ 0x7461626c65ULL)};
    for (double& b : base_) b = 1.0 + g.unit();
    expected_ = reference();
  }

  int steps_per_rep() const override { return kSteps; }

  Rep run_rep(bool traced) override {
    Rep rep = new_rep(traced);
    Timeline tl;
    mpc::Node node(machine(), node_options());
    const hls::VarHandle h = register_table(node.hls_rt());
    std::array<double, kRanks> sums{};
    tl.launch = now_ns();
    node.run([&](mpi::Comm& world, hls::TaskView& view) {
      ult::TaskContext& ctx = view.context();
      hls::Runtime& rt = view.runtime();
      const int me = world.rank(ctx);
      tl.body_start[static_cast<std::size_t>(me)] = now_ns();
      Tracer* tr = tracer_of(rep, me);
      memtrack::Buffer mesh_buf(node.tracker(), memtrack::Category::app,
                                kCells * sizeof(double));
      double* mesh = mesh_buf.as<double>();
      Rng rng{rank_seed(me)};
      for (std::size_t i = 0; i < kCells; ++i) mesh[i] = mesh_init(rng);
      auto* table = static_cast<double*>(cold_get_addr(rt, h, ctx, tr, tl, me));
      const hls::ScopeSet ss(rt, {h});
      world.barrier(ctx);
      if (me == 0) tl.setup_end = now_ns();
      {
        SpanGuard phase(tr, "bench.phase", -1);
        for (int s = 0; s < kSteps; ++s) {
          const std::uint64_t t0 = now_ns();
          SpanGuard step(tr, "bench.step", s);
          single(rt, ss, ctx, tr, s, [&] {
            SpanGuard g(tr, "compute.table", s);
            for (std::size_t j = 0; j < kTable; ++j) table[j] = table_value(j, s);
          });
          {
            SpanGuard g(tr, "compute.sweep", s);
            for (std::size_t i = 0; i < kCells; ++i) {
              const auto* t = static_cast<const double*>(rt.get_addr(h, ctx));
              mesh[i] = 0.5 * (mesh[i] + t[rng.next() % kTable]);
            }
          }
          {
            SpanGuard g(tr, "mpi.barrier", s);
            world.barrier(ctx);
          }
          {
            SpanGuard g(tr, "hls.barrier", s);
            rt.barrier(ss, ctx);
          }
          if (me == 0) tl.step_ms.push_back(ms_since(t0));
        }
      }
      if (me == 0) tl.solve_end = now_ns();
      double local = 0;
      for (std::size_t i = 0; i < kCells; ++i) local += mesh[i];
      sums[static_cast<std::size_t>(me)] = local;
    });
    double total = 0;
    for (const double s : sums) total += s;  // ascending rank order
    if (total != expected_) fail(rep, "mesh_update checksum differs from the sequential reference");
    rep.tracked_peak_mb = static_cast<double>(node.tracker().peak_total()) / kMiB;
    count_obs(rep, node.obs());
    tl.finish(rep);
    return rep;
  }

  /// Warm get_addr is shorter than a clock read, so it is timed in one
  /// batch per rank after the repetitions; the median rank is reported.
  void after_run(std::map<std::string, double>& layer) override {
    constexpr int kCalls = 1 << 22;
    mpc::Node node(machine(), node_options());
    const hls::VarHandle h = register_table(node.hls_rt());
    std::array<double, kRanks> ns{};
    node.run([&](mpi::Comm& world, hls::TaskView& view) {
      ult::TaskContext& ctx = view.context();
      hls::Runtime& rt = view.runtime();
      const int me = world.rank(ctx);
      auto sink = reinterpret_cast<std::uintptr_t>(rt.get_addr(h, ctx));
      world.barrier(ctx);
      const std::uint64_t t0 = now_ns();
      for (int k = 0; k < kCalls; ++k) {
        sink += reinterpret_cast<std::uintptr_t>(rt.get_addr(h, ctx));
      }
      ns[static_cast<std::size_t>(me)] =
          static_cast<double>(now_ns() - t0) / kCalls;
      if (sink == 1) std::abort();  // keeps the loop's results observable
    });
    layer["hls.get_addr.ns_per_call"] =
        median(std::vector<double>(ns.begin(), ns.end()));
  }

 private:
  hls::VarHandle register_table(hls::Runtime& rt) const {
    hls::ModuleBuilder mb(rt.registry(), "meshupdate");
    const auto table =
        hls::add_array<double>(mb, "table", kTable, topo::node_scope());
    mb.commit();
    return table.handle();
  }
  std::uint64_t rank_seed(int r) const {
    return mix64(seed_ + 0x1000 + static_cast<std::uint64_t>(r));
  }
  static double mesh_init(Rng& rng) {
    return 0.125 * static_cast<double>(rng.next() % 16);
  }
  double table_value(std::size_t j, int step) const {
    return base_[j] + 1e-3 * static_cast<double>(step);
  }
  /// Every rank's sweeps replayed sequentially, sums folded in ascending
  /// rank order.
  double reference() const {
    std::vector<double> mesh(kCells);
    double total = 0;
    for (int r = 0; r < kRanks; ++r) {
      Rng rng{rank_seed(r)};
      for (double& m : mesh) m = mesh_init(rng);
      for (int s = 0; s < kSteps; ++s) {
        for (double& m : mesh) m = 0.5 * (m + table_value(rng.next() % kTable, s));
      }
      double local = 0;
      for (const double m : mesh) local += m;
      total += local;
    }
    return total;
  }

  std::uint64_t seed_;
  std::vector<double> base_;
  double expected_ = 0;
};

// ------------------------------------------------------------------- halo_rma

/// 1-D Jacobi on core-scope rma_backing: per iteration two 8-byte puts
/// into the neighbours' halo slots, two fences and an 8-byte max-residual
/// allreduce. One step is a batch of kIters iterations.
class HaloRma final : public Workload {
 public:
  static constexpr int kN = 512;  // interior cells per rank
  static constexpr int kIters = 50;
  static constexpr int kSteps = 500;

  explicit HaloRma(std::uint64_t seed) : rod_(kRanks * kN + 2) {
    // Dirichlet ends 1 and 2, interior in [1, 2): the field stays far
    // from zero, so no subnormal arithmetic creeps in over long runs.
    Rng g{mix64(seed ^ 0x68616c6fULL)};
    rod_.front() = 1.0;
    rod_.back() = 2.0;
    for (std::size_t i = 1; i + 1 < rod_.size(); ++i) rod_[i] = 1.0 + g.unit();
    reference();
  }

  int steps_per_rep() const override { return kSteps; }

  Rep run_rep(bool traced) override {
    Rep rep = new_rep(traced);
    Timeline tl;
    mpc::Node node(machine(), node_options());
    const hls::VarHandle h =
        node.hls_rt().rma_backing("halo", (kN + 2) * sizeof(double));
    std::vector<double> field(rod_.size());
    double residual = -1;
    tl.launch = now_ns();
    node.run([&](mpi::Comm& world, hls::TaskView& view) {
      ult::TaskContext& ctx = view.context();
      hls::Runtime& rt = view.runtime();
      const int me = world.rank(ctx);
      tl.body_start[static_cast<std::size_t>(me)] = now_ns();
      Tracer* tr = tracer_of(rep, me);
      auto* u = static_cast<double*>(cold_get_addr(rt, h, ctx, tr, tl, me));
      const auto first = rod_.begin() + static_cast<std::ptrdiff_t>(me) * kN;
      std::copy(first, first + kN + 2, u);
      mpi::rma::Win& win = world.win_create(ctx, u, (kN + 2) * sizeof(double));
      std::vector<double> next(kN);
      const int left = me - 1;
      const int right = me + 1 < kRanks ? me + 1 : -1;
      win.fence(ctx, me);
      world.barrier(ctx);
      if (me == 0) tl.setup_end = now_ns();
      double res = 0;
      {
        SpanGuard phase(tr, "bench.phase", -1);
        for (int s = 0; s < kSteps; ++s) {
          const std::uint64_t t0 = now_ns();
          SpanGuard step(tr, "bench.step", s);
          for (int it = 0; it < kIters; ++it) {
            if (left >= 0) {
              SpanGuard g(tr, "mpi.rma.put", s);
              win.put(ctx, me, &u[1], sizeof(double), left,
                      (kN + 1) * sizeof(double));
            }
            if (right >= 0) {
              SpanGuard g(tr, "mpi.rma.put", s);
              win.put(ctx, me, &u[kN], sizeof(double), right, 0);
            }
            {
              SpanGuard g(tr, "mpi.rma.fence", s);
              win.fence(ctx, me);  // halos filled and published
            }
            double local = 0;
            {
              SpanGuard g(tr, "compute.relax", s);
              for (int i = 1; i <= kN; ++i) {
                const double v = 0.5 * (u[i - 1] + u[i + 1]);
                local = std::max(local, std::fabs(v - u[i]));
                next[static_cast<std::size_t>(i - 1)] = v;
              }
              std::copy(next.begin(), next.end(), u + 1);
            }
            {
              SpanGuard g(tr, "mpi.rma.fence", s);
              win.fence(ctx, me);  // halos stable until the next puts
            }
            {
              SpanGuard g(tr, "mpi.allreduce", s);
              res = world.allreduce_value(ctx, local, mpi::Op::max);
            }
          }
          if (me == 0) tl.step_ms.push_back(ms_since(t0));
        }
      }
      if (me == 0) {
        tl.solve_end = now_ns();
        residual = res;
      }
      std::copy(u + 1, u + 1 + kN,
                field.begin() + 1 + static_cast<std::ptrdiff_t>(me) * kN);
      world.win_free(ctx, win);
    });
    field.front() = rod_.front();
    field.back() = rod_.back();
    if (std::memcmp(field.data(), ref_.data(), field.size() * sizeof(double)) != 0) {
      fail(rep, "halo_rma field differs from the sequential Jacobi");
    }
    if (residual != ref_residual_) fail(rep, "halo_rma residual differs from the sequential Jacobi");
    rep.tracked_peak_mb = static_cast<double>(node.tracker().peak_total()) / kMiB;
    rep.layer["mpi.allreduce.bytes"] = sizeof(double);
    count_obs(rep, node.obs());
    tl.finish(rep);
    return rep;
  }

 private:
  void reference() {
    std::vector<double> u = rod_;
    std::vector<double> next = rod_;
    double res = 0;
    for (int it = 0; it < kSteps * kIters; ++it) {
      res = 0;
      for (std::size_t i = 1; i + 1 < u.size(); ++i) {
        next[i] = 0.5 * (u[i - 1] + u[i + 1]);
        res = std::max(res, std::fabs(next[i] - u[i]));
      }
      std::swap(u, next);
    }
    ref_ = u;
    ref_residual_ = res;
  }

  std::vector<double> rod_;
  std::vector<double> ref_;
  double ref_residual_ = 0;
};

// ------------------------------------------------------------------ tier_ckpt

/// Node-scope state on Tier::file_backed, 16x the page-cache pool. Every
/// step each rank rewrites one slice of its share, then a 1 MiB allreduce
/// (the pipelined path) and an HLS barrier; every kCkptEvery steps a
/// `single` runs tier_flush + checkpoint_incremental. The repetition ends
/// by restoring the checkpoint into a fresh runtime.
///
/// A rank keeps rewriting the same slice for a whole checkpoint interval.
/// The first write to a file page after a flush faults into the file
/// system (on a journaling one that waits on the disk), so only the step
/// after each checkpoint pays it and the median step stays a property of
/// the runtime rather than of the disk.
class TierCkpt final : public Workload {
 public:
  static constexpr std::size_t kStateBytes = std::size_t{64} << 20;
  static constexpr std::size_t kElems = kStateBytes / sizeof(std::uint64_t);
  static constexpr std::size_t kShare = kElems / kRanks;
  static constexpr std::size_t kSlice = 32768;  // 256 KiB
  static constexpr std::size_t kSlices = kShare / kSlice;
  static constexpr std::size_t kReduce = (std::size_t{1} << 20) / 8;  // 1 MiB
  static constexpr std::size_t kPageBytes = 64 * 1024;
  static constexpr std::size_t kPoolPages = 64;  // 4 MiB
  static constexpr int kSteps = 100;
  static constexpr int kCkptEvery = 8;

  TierCkpt(std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {}

  int steps_per_rep() const override { return kSteps; }

  Rep run_rep(bool traced) override {
    Rep rep = new_rep(traced);
    // Fresh tier and checkpoint directories per repetition: stale
    // file_backed files would re-open and skip the initializer, stale
    // versions would satisfy restore.
    const std::filesystem::path dir =
        std::filesystem::path(workdir_) /
        ("tier_ckpt." + std::to_string(::getpid()) + "." +
         std::to_string(rep_seq_++));
    struct RemoveDir {
      std::filesystem::path p;
      ~RemoveDir() {
        std::error_code ec;
        std::filesystem::remove_all(p, ec);
      }
    } cleanup{dir};
    std::filesystem::create_directories(dir);

    Timeline tl;
    hls::CheckpointStore store(hls::CheckpointStore::Options{
        .dir = (dir / "ckpt").string(), .tag = "state", .keep = 2});
    int last_ckpt = -1;
    double flush_bytes = 0;
    double save_bytes = 0;
    std::array<std::vector<int>, kRanks> bad_steps;
    {
      mpc::NodeOptions no = node_options();
      no.tier = tier_config(dir / "tier");
      mpc::Node node(machine(), no);
      const hls::VarHandle h = register_state(node.hls_rt());
      obs::Recorder* rec = node.obs();
      tl.launch = now_ns();
      node.run([&](mpi::Comm& world, hls::TaskView& view) {
        ult::TaskContext& ctx = view.context();
        hls::Runtime& rt = view.runtime();
        const int me = world.rank(ctx);
        tl.body_start[static_cast<std::size_t>(me)] = now_ns();
        Tracer* tr = tracer_of(rep, me);
        auto* state =
            static_cast<std::uint64_t*>(cold_get_addr(rt, h, ctx, tr, tl, me));
        std::vector<std::uint64_t> in(kReduce);
        std::vector<std::uint64_t> out(kReduce);
        const hls::ScopeSet ss(rt, {h});
        world.barrier(ctx);
        if (me == 0) tl.setup_end = now_ns();
        {
          SpanGuard phase(tr, "bench.phase", -1);
          for (int s = 0; s < kSteps; ++s) {
            const std::uint64_t t0 = now_ns();
            SpanGuard step(tr, "bench.step", s);
            {
              SpanGuard g(tr, "compute.write", s);
              auto* p = static_cast<std::uint64_t*>(rt.get_addr(h, ctx)) +
                        static_cast<std::size_t>(me) * kShare +
                        slice_of(s) * kSlice;
              const std::uint64_t w = written_base(s, me);
              for (std::size_t i = 0; i < kSlice; ++i) p[i] = w + i;
            }
            {
              SpanGuard g(tr, "compute.fill", s);
              const std::uint64_t c = contrib_base(s, me);
              for (std::size_t i = 0; i < kReduce; ++i) in[i] = c + i;
            }
            {
              SpanGuard g(tr, "mpi.allreduce", s);
              world.allreduce(ctx, std::span<const std::uint64_t>(in),
                              std::span<std::uint64_t>(out), mpi::Op::sum);
            }
            if (!reduce_ok(out, s)) bad_steps[static_cast<std::size_t>(me)].push_back(s);
            {
              SpanGuard g(tr, "hls.barrier", s);
              rt.barrier(ss, ctx);
            }
            if (s % kCkptEvery == kCkptEvery - 1) {
              single(rt, ss, ctx, tr, s, [&] {
                {
                  SpanGuard g(tr, "hls.tier.flush", s);
                  flush_bytes += static_cast<double>(rt.tier_flush(ctx));
                }
                SpanGuard g(tr, "hls.ckpt.save", s);
                const std::uint64_t b0 = ckpt_bytes(rec);
                rt.checkpoint_incremental(store, topo::node_scope());
                save_bytes += static_cast<double>(ckpt_bytes(rec) - b0);
                last_ckpt = s;
              });
            }
            if (me == 0) tl.step_ms.push_back(ms_since(t0));
          }
        }
        if (me == 0) {
          tl.solve_end = now_ns();
          rep.layer["hls.tier.resident_mb"] =
              static_cast<double>(resident_bytes(state, kStateBytes)) / kMiB;
        }
      });
      for (const auto& bad : bad_steps) {
        if (!bad.empty()) fail(rep, "tier_ckpt allreduce result is wrong");
      }
      const auto live = node.hls_rt().storage().resolve(h.scope, h.module, 0);
      if (!state_matches(reinterpret_cast<const std::uint64_t*>(live.base),
                         kSteps - 1)) {
        fail(rep, "tier_ckpt live state differs from the written slices");
      }
      rep.tracked_peak_mb =
          static_cast<double>(node.tracker().peak_total()) / kMiB;
      count_obs(rep, rec);
    }
    tl.finish(rep);

    // Warm restart: a fresh runtime on a fresh tier directory restores
    // the last checkpoint (counted in the timed phase).
    const std::uint64_t r0 = now_ns();
    hls::Runtime rt2(machine(), kRanks,
                     hls::Runtime::Options{.tier = tier_config(dir / "tier2")});
    const hls::VarHandle h2 = register_state(rt2);
    rt2.restore(store, topo::node_scope());
    const double restore_ms = ms_since(r0);
    rep.solve_s += restore_ms / 1e3;
    const double restored = static_cast<double>(ckpt_bytes(rt2.obs()));
    const auto back = rt2.storage().resolve(h2.scope, h2.module, 0);
    if (last_ckpt < 0 ||
        !state_matches(reinterpret_cast<const std::uint64_t*>(back.base),
                       last_ckpt)) {
      fail(rep, "tier_ckpt restored state differs from the last checkpoint");
    }
    rep.layer["mpi.allreduce.bytes"] = kReduce * sizeof(std::uint64_t);
    rep.layer["hls.tier.flush_bytes"] = flush_bytes;
    rep.layer["hls.ckpt.save.bytes"] = save_bytes;
    rep.layer["hls.ckpt.restore.ms"] = restore_ms;
    rep.layer["hls.ckpt.restore.gbps"] = restored / (restore_ms * 1e6);
    rep.layer["hls.tier.attach_ms"] = rep.layer["hls.get_addr.cold_ms"];
    return rep;
  }

 private:
  static hls::TierConfig tier_config(const std::filesystem::path& dir) {
    return hls::TierConfig{.dir = dir.string(),
                           .file_prefix = "state",
                           .page_bytes = kPageBytes,
                           .pool_pages = kPoolPages,
                           .read_ahead_pages = 8};
  }
  hls::VarHandle register_state(hls::Runtime& rt) const {
    hls::ModuleBuilder mb(rt.registry(), "state");
    const std::uint64_t base = initial_base();
    const auto st = hls::add_array<std::uint64_t>(
        mb, "state", kElems, topo::node_scope(),
        [base](std::uint64_t* p, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) p[i] = base + i;
        });
    mb.commit();
    rt.storage().set_module_tier(st.handle().scope, st.handle().module,
                                 hls::Tier::file_backed);
    return st.handle();
  }
  static std::uint64_t ckpt_bytes(const obs::Recorder* rec) {
    return rec != nullptr ? rec->counter(0, obs::Counter::ckpt_bytes) : 0;
  }
  std::uint64_t initial_base() const { return mix64(seed_ ^ 0x737461746bULL); }
  std::uint64_t written_base(int step, int rank) const {
    return mix64(seed_ + 0x100000 + static_cast<std::uint64_t>(step) * kRanks +
                 static_cast<std::uint64_t>(rank));
  }
  std::uint64_t contrib_base(int step, int rank) const {
    return mix64(seed_ + 0x200000 + static_cast<std::uint64_t>(step) * kRanks +
                 static_cast<std::uint64_t>(rank));
  }
  /// Sampled check of the integer allreduce: element i must be
  /// sum_r contrib_base(step, r) + kRanks * i.
  bool reduce_ok(const std::vector<std::uint64_t>& out, int step) const {
    std::uint64_t sum = 0;
    for (int r = 0; r < kRanks; ++r) sum += contrib_base(step, r);
    for (std::size_t k = 0; k < 16; ++k) {
      const std::size_t i = (k * 8191 + static_cast<std::size_t>(step)) % kReduce;
      if (out[i] != sum + kRanks * i) return false;
    }
    return true;
  }
  static std::size_t slice_of(int step) {
    return static_cast<std::size_t>(step / kCkptEvery) % kSlices;
  }
  /// The state after steps 0..`last` replayed sequentially: each element
  /// holds the newest write to its slice, or its initial value.
  bool state_matches(const std::uint64_t* st, int last) const {
    std::vector<int> newest(kSlices, -1);
    for (int s = 0; s <= last; ++s) newest[slice_of(s)] = s;
    for (std::size_t e = 0; e < kElems; ++e) {
      const int r = static_cast<int>(e / kShare);
      const std::size_t off = e % kShare;
      const int k = newest[off / kSlice];
      const std::uint64_t want =
          k < 0 ? initial_base() + e : written_base(k, r) + off % kSlice;
      if (st[e] != want) return false;
    }
    return true;
  }
  /// Kernel residency of [p, p + bytes) by mincore — what the tier really
  /// costs in DRAM, whatever its own bookkeeping says.
  static std::size_t resident_bytes(const void* p, std::size_t bytes) {
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    const std::uintptr_t lo = reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
    const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(p) + bytes;
    std::vector<unsigned char> vec((hi - lo + page - 1) / page);
    if (::mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()) != 0) return 0;
    std::size_t n = 0;
    for (const unsigned char v : vec) n += v & 1u;
    return n * page;
  }

  std::uint64_t seed_;
  std::string workdir_;
  int rep_seq_ = 0;
};

// ---------------------------------------------------------- cluster_allreduce

/// A 2-node x 2-rank SimCluster: per step kSmallPerStep small allreduces,
/// one large allreduce and a barrier, all through the node-leader tier
/// and the simulated fabric.
class ClusterAllreduce final : public Workload {
 public:
  static constexpr std::size_t kSmall = 8;       // 64 B
  static constexpr std::size_t kLarge = 32768;   // 256 KiB
  static constexpr int kSmallPerStep = 8;
  static constexpr int kSteps = 500;

  explicit ClusterAllreduce(std::uint64_t seed) {
    for (int r = 0; r < kRanks; ++r) {
      a_[static_cast<std::size_t>(r)] = mix64(seed ^ (0xa000ULL + static_cast<std::uint64_t>(r)));
      b_[static_cast<std::size_t>(r)] = mix64(seed ^ (0xb000ULL + static_cast<std::uint64_t>(r)));
    }
  }

  int steps_per_rep() const override { return kSteps; }

  Rep run_rep(bool traced) override {
    Rep rep = new_rep(traced);
    Timeline tl;
    obs::Recorder rec(obs::RecorderOptions{.ntasks = kRanks, .num_scopes = 0,
                                           .ring_capacity = 0});
    mpi::ClusterOptions co;
    co.nnodes = 2;
    co.ranks_per_node = 2;
    co.obs = &rec;
    mpi::SimCluster cluster(co);
    std::array<int, kRanks> bad{};
    tl.launch = now_ns();
    cluster.run([&](mpi::ClusterComm& cc, ult::TaskContext& ctx) {
      const int me = cc.rank(ctx);
      tl.body_start[static_cast<std::size_t>(me)] = now_ns();
      Tracer* tr = tracer_of(rep, me);
      std::vector<std::uint64_t> sin(kSmall), sout(kSmall);
      std::vector<std::uint64_t> lin(kLarge), lout(kLarge);
      std::uint64_t k = 0;  // call counter: varies every contribution
      cc.barrier(ctx);
      if (me == 0) tl.setup_end = now_ns();
      {
        SpanGuard phase(tr, "bench.phase", -1);
        for (int s = 0; s < kSteps; ++s) {
          const std::uint64_t t0 = now_ns();
          SpanGuard step(tr, "bench.step", s);
          for (int q = 0; q < kSmallPerStep; ++q, ++k) {
            fill(sin, me, k);
            {
              SpanGuard g(tr, "mpi.cluster.allreduce_small", s);
              cc.allreduce(ctx, std::span<const std::uint64_t>(sin),
                           std::span<std::uint64_t>(sout), mpi::Op::sum);
            }
            bad[static_cast<std::size_t>(me)] += !fold_ok(sout, k, 1);
          }
          {
            SpanGuard g(tr, "compute.fill", s);
            fill(lin, me, k);
          }
          {
            SpanGuard g(tr, "mpi.cluster.allreduce_large", s);
            cc.allreduce(ctx, std::span<const std::uint64_t>(lin),
                         std::span<std::uint64_t>(lout), mpi::Op::sum);
          }
          // Sampled every step, whole on the last one.
          bad[static_cast<std::size_t>(me)] +=
              !fold_ok(lout, k++, s + 1 == kSteps ? 1 : 8191);
          {
            SpanGuard g(tr, "mpi.cluster.barrier", s);
            cc.barrier(ctx);
          }
          if (me == 0) tl.step_ms.push_back(ms_since(t0));
        }
      }
      if (me == 0) tl.solve_end = now_ns();
    });
    for (const int b : bad) {
      if (b != 0) fail(rep, "cluster_allreduce result differs from the integer fold");
    }
    std::size_t tracked = 0;
    for (int n = 0; n < cluster.nnodes(); ++n) {
      tracked += cluster.node_runtime(n).tracker().peak_total();
    }
    rep.tracked_peak_mb = static_cast<double>(tracked) / kMiB;
    const mpi::TransportStats& fs = cluster.fabric().stats();
    rep.layer["mpi.fabric.sends"] = static_cast<double>(fs.messages.load());
    rep.layer["mpi.fabric.bytes"] = static_cast<double>(fs.bytes.load());
    rep.layer["mpi.fabric.retries"] = static_cast<double>(fs.retries.load());
    rep.layer["mpi.cluster.allreduce_large.bytes"] = kLarge * sizeof(std::uint64_t);
    count_obs(rep, &rec);
    tl.finish(rep);
    return rep;
  }

 private:
  void fill(std::vector<std::uint64_t>& v, int r, std::uint64_t k) const {
    const std::uint64_t a = a_[static_cast<std::size_t>(r)] + k;
    const std::uint64_t b = b_[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = a + i * b;
  }
  /// Integer fold: element i of call k must be
  /// sum_r (a_r + k + i * b_r), checked at every `stride`-th element.
  bool fold_ok(const std::vector<std::uint64_t>& v, std::uint64_t k,
               std::size_t stride) const {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    for (int r = 0; r < kRanks; ++r) {
      a += a_[static_cast<std::size_t>(r)] + k;
      b += b_[static_cast<std::size_t>(r)];
    }
    for (std::size_t i = 0; i < v.size(); i += stride) {
      if (v[i] != a + i * b) return false;
    }
    return true;
  }

  std::array<std::uint64_t, kRanks> a_{};
  std::array<std::uint64_t, kRanks> b_{};
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "mesh_update") return std::make_unique<MeshUpdate>(seed);
  if (name == "halo_rma") return std::make_unique<HaloRma>(seed);
  if (name == "tier_ckpt") return std::make_unique<TierCkpt>(seed, workdir);
  if (name == "cluster_allreduce") {
    return std::make_unique<ClusterAllreduce>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
