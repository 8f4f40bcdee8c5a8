// perfbench: end-to-end benchmark of the HLS runtime.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--workdir <dir>] [--commit <sha>]
//
// Runs repetitions of one workload (see workloads.cpp) until `--seconds`
// have passed; the first repetition only warms the process up. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced repetitions and reports the per-layer
// metrics from the traced ones (spans, obs counts, mincore) plus the
// tracing overhead (traced vs untraced solve time). The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 when every output check passed, 1 when one failed or a
// repetition threw, 2 on bad arguments or an unoptimized build.
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  std::string workdir = ".";
  std::string commit = "unknown";
};

/// A metric as printed: value plus unit, and the sample count it rests on.
struct Metric {
  double value = 0;
  const char* unit = "";
  std::size_t samples = 0;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

// ------------------------------------------------------------- host stamp

#define PB_STR2(x) #x
#define PB_STR(x) PB_STR2(x)
/// Value of a build switch macro, or "unset" when the build defines none.
#define PB_SWITCH(name) \
  {#name, std::strcmp(#name, PB_STR(name)) == 0 ? "unset" : PB_STR(name)}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fs_type(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

/// Host and build shape as one JSON object: results compare only like
/// with like.
std::string host_stamp(const Args& a) {
  const std::pair<const char*, const char*> switches[] = {
      PB_SWITCH(HLSMPC_OBS_ENABLED),         PB_SWITCH(HLSMPC_COLL_SHM_ENABLED),
      PB_SWITCH(HLSMPC_COLL_PIPELINE_ENABLED), PB_SWITCH(HLSMPC_RMA_ENABLED),
      PB_SWITCH(HLSMPC_TCP_ENABLED),         PB_SWITCH(HLSMPC_RECOVERY_ENABLED),
      PB_SWITCH(HLSMPC_STORAGE_TIER_ENABLED),
  };
  std::ostringstream o;
  o << "{\"nproc\":" << affinity_cpus()
    << ",\"online_cpus\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"cpu_model\":" << json_str(cpu_model())
    << ",\"build_type\":\"release\",\"switches\":{";
  bool first = true;
  for (const auto& [name, value] : switches) {
    o << (first ? "" : ",") << json_str(name) << ":" << json_str(value);
    first = false;
  }
  o << "},\"tier_dir_fs\":" << json_str(fs_type(a.workdir))
    << ",\"commit\":" << json_str(a.commit)
    << ",\"workload\":" << json_str(a.workload) << ",\"seed\":" << a.seed
    << ",\"ranks\":" << kRanks << ",\"executor\":\"thread\"}";
  return o.str();
}

/// Peak resident set of the process (VmHWM), in MiB: real memory,
/// file-tier pages included.
double vm_hwm_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// -------------------------------------------------------- per-layer math

bool named(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

/// Durations (ns) of every span called `name`, over all ranks.
std::vector<double> durations(const Rep& rep, const char* name) {
  std::vector<double> out;
  for (const Tracer& t : rep.tracers) {
    for (const Span& s : t.spans()) {
      if (named(s, name)) out.push_back(static_cast<double>(s.duration()));
    }
  }
  return out;
}

/// Release latency (ns) of every episode of a collective synchronization
/// traced as `name` on every rank: the k-th such span of each rank is
/// episode k.
std::vector<double> release_ns(const Rep& rep, const char* name) {
  std::vector<std::vector<const Span*>> per_rank;
  std::size_t episodes = SIZE_MAX;
  for (const Tracer& t : rep.tracers) {
    per_rank.emplace_back();
    for (const Span& s : t.spans()) {
      if (named(s, name)) per_rank.back().push_back(&s);
    }
    episodes = std::min(episodes, per_rank.back().size());
  }
  std::vector<double> out;
  for (std::size_t k = 0; k < episodes && !per_rank.empty(); ++k) {
    std::vector<std::uint64_t> arrive, exit;
    for (const auto& spans : per_rank) {
      arrive.push_back(spans[k]->start);
      exit.push_back(spans[k]->end);
    }
    const std::vector<double> rel = release_latency_ns(arrive, exit);
    out.insert(out.end(), rel.begin(), rel.end());
  }
  return out;
}

/// Release latency (ns) of `single` waiters: waiter exit minus the moment
/// the executor finished the block (the end of its last body span).
std::vector<double> single_release_ns(const Rep& rep) {
  struct Ep {
    const Span* span;
    std::uint64_t done;
  };
  std::vector<std::vector<Ep>> per_rank;
  std::size_t episodes = SIZE_MAX;
  for (const Tracer& t : rep.tracers) {
    per_rank.emplace_back();
    const auto& spans = t.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (named(s, "hls.single.wait")) per_rank.back().push_back({&s, 0});
      if (!named(s, "hls.single.exec")) continue;
      std::uint64_t done = s.end;
      for (std::size_t j = i + 1; j < spans.size() && spans[j].start < s.end; ++j) {
        if (spans[j].parent == static_cast<int>(i)) done = spans[j].end;
      }
      per_rank.back().push_back({&s, done});
    }
    episodes = std::min(episodes, per_rank.back().size());
  }
  std::vector<double> out;
  for (std::size_t k = 0; k < episodes && !per_rank.empty(); ++k) {
    std::uint64_t done = 0;
    for (const auto& eps : per_rank) {
      if (named(*eps[k].span, "hls.single.exec")) done = eps[k].done;
    }
    if (done == 0) continue;
    for (const auto& eps : per_rank) {
      if (named(*eps[k].span, "hls.single.wait")) {
        out.push_back(static_cast<double>(eps[k].span->end) -
                      static_cast<double>(done));
      }
    }
  }
  return out;
}

double p50_or0(const std::vector<double>& v) { return v.empty() ? 0 : percentile(v, 50); }
double p90_or0(const std::vector<double>& v) { return v.empty() ? 0 : percentile(v, 90); }

/// Every per-layer metric the benchmark reports, in BENCHMARK.json order.
/// A workload that bypasses a layer reports 0 for it.
Metrics layer_metrics(const std::vector<const Rep*>& traced,
                      const std::vector<double>& traced_solve,
                      const std::vector<double>& plain_solve,
                      const std::map<std::string, double>& once) {
  const double nrep = static_cast<double>(traced.size());
  auto pooled = [&](const std::function<std::vector<double>(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep* r : traced) {
      const std::vector<double> x = f(*r);
      v.insert(v.end(), x.begin(), x.end());
    }
    return v;
  };
  auto dur = [&](const char* name) {
    return pooled([name](const Rep& r) { return durations(r, name); });
  };
  auto rel = [&](const char* name) {
    return pooled([name](const Rep& r) { return release_ns(r, name); });
  };
  auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return s;
  };
  // Per-repetition value measured outside spans: median over traced reps.
  auto value = [&](const std::string& key) {
    if (auto it = once.find(key); it != once.end()) return it->second;
    std::vector<double> v;
    for (const Rep* r : traced) {
      if (auto it = r->layer.find(key); it != r->layer.end()) v.push_back(it->second);
    }
    return v.empty() ? 0.0 : median(v);
  };
  auto calls = [&](const std::vector<double>& d) {
    return static_cast<double>(d.size()) / nrep;
  };
  auto ms_per_rep = [&](const std::vector<double>& d) { return sum(d) / 1e6 / nrep; };

  const auto exec = dur("hls.single.exec");
  const auto wait = dur("hls.single.wait");
  const auto hbar = dur("hls.barrier");
  const auto mbar = dur("mpi.barrier");
  const auto ared = dur("mpi.allreduce");
  const auto put = dur("mpi.rma.put");
  const auto fence = dur("mpi.rma.fence");
  const auto flush = dur("hls.tier.flush");
  const auto save = dur("hls.ckpt.save");
  const auto csmall = dur("mpi.cluster.allreduce_small");
  const auto clarge = dur("mpi.cluster.allreduce_large");
  const auto cbar = dur("mpi.cluster.barrier");
  const auto single_rel = pooled(single_release_ns);

  // The time ledger: span self time per layer over every traced rep.
  // Warm get_addr runs inside the compute sweep, batch-timed: move its
  // estimated share from compute to hls.
  Ledger led;
  for (const Rep* r : traced) {
    std::vector<std::vector<Span>> spans;
    for (const Tracer& t : r->tracers) spans.push_back(t.spans());
    Ledger one = close_ledger(spans, "bench.phase");
    const auto it = r->layer.find("hls.get_addr.calls");
    const double warm = it == r->layer.end() ? 0 : it->second;
    one.reattribute("compute", "hls", warm * value("hls.get_addr.ns_per_call"));
    led.wall_ns += one.wall_ns;
    for (const auto& [l, ns] : one.self_ns) led.self_ns[l] += ns;
  }
  const double save_s = sum(save) / 1e9;

  Metrics m;
  auto add = [&](const char* name, double v, const char* unit, std::size_t n = 0) {
    m.emplace_back(name, Metric{v, unit, n});
  };
  add("hls.get_addr.calls", value("hls.get_addr.calls"), "count");
  add("hls.get_addr.ns_per_call", value("hls.get_addr.ns_per_call"), "ns");
  add("hls.get_addr.cold_ms", value("hls.get_addr.cold_ms"), "ms");
  add("hls.single.calls", calls(exec) + calls(wait), "count");
  add("hls.single.exec_ms", ms_per_rep(exec), "ms", exec.size());
  add("hls.single.wait_ms", ms_per_rep(wait), "ms", wait.size());
  add("hls.single.release_us_p50", p50_or0(single_rel) / 1e3, "us", single_rel.size());
  add("hls.barrier.calls", calls(hbar), "count");
  add("hls.barrier.wait_ms", ms_per_rep(hbar), "ms", hbar.size());
  const auto hbar_rel = rel("hls.barrier");
  add("hls.barrier.release_us_p50", p50_or0(hbar_rel) / 1e3, "us", hbar_rel.size());
  add("mpi.barrier.calls", calls(mbar), "count");
  add("mpi.barrier.wait_ms", ms_per_rep(mbar), "ms", mbar.size());
  const auto mbar_rel = rel("mpi.barrier");
  add("mpi.barrier.release_us_p50", p50_or0(mbar_rel) / 1e3, "us", mbar_rel.size());
  add("mpi.allreduce.calls", calls(ared), "count");
  add("mpi.allreduce.us_p50", p50_or0(ared) / 1e3, "us", ared.size());
  add("mpi.allreduce.us_p90", p90_or0(ared) / 1e3, "us", ared.size());
  const auto ared_rel = rel("mpi.allreduce");
  add("mpi.allreduce.release_us_p50", p50_or0(ared_rel) / 1e3, "us", ared_rel.size());
  add("mpi.allreduce.bytes", value("mpi.allreduce.bytes"), "B");
  add("obs.coll_shm_ops", value("obs.coll_shm_ops"), "count");
  add("obs.coll_shm_pipelined_ops", value("obs.coll_shm_pipelined_ops"), "count");
  add("mpi.rma.put.calls", calls(put), "count");
  add("mpi.rma.put.ns_p50", p50_or0(put), "ns", put.size());
  add("mpi.rma.put.bytes", value("mpi.rma.put.bytes"), "B");
  add("mpi.rma.fence.calls", calls(fence), "count");
  add("mpi.rma.fence.wait_ms", ms_per_rep(fence), "ms", fence.size());
  const auto fence_rel = rel("mpi.rma.fence");
  add("mpi.rma.fence.release_us_p50", p50_or0(fence_rel) / 1e3, "us", fence_rel.size());
  add("hls.tier.attach_ms", value("hls.tier.attach_ms"), "ms");
  add("hls.tier.flush_ms", ms_per_rep(flush), "ms", flush.size());
  add("hls.tier.flush_bytes", value("hls.tier.flush_bytes"), "B");
  add("hls.tier.resident_mb", value("hls.tier.resident_mb"), "MiB");
  add("hls.tier.cache_hit_ratio", value("hls.tier.cache_hit_ratio"), "ratio");
  add("hls.tier.cache_touches", value("hls.tier.cache_touches"), "count");
  add("obs.tier_preread_bytes", value("obs.tier_preread_bytes"), "B");
  add("obs.tier_writeback_bytes", value("obs.tier_writeback_bytes"), "B");
  add("hls.ckpt.save.calls", calls(save), "count");
  add("hls.ckpt.save.ms_p50", p50_or0(save) / 1e6, "ms", save.size());
  add("hls.ckpt.save.gbps",
      save_s > 0 ? value("hls.ckpt.save.bytes") * nrep / save_s / 1e9 : 0, "GB/s");
  add("hls.ckpt.restore.ms", value("hls.ckpt.restore.ms"), "ms");
  add("hls.ckpt.restore.gbps", value("hls.ckpt.restore.gbps"), "GB/s");
  add("mpi.cluster.allreduce_small.us_p50", p50_or0(csmall) / 1e3, "us", csmall.size());
  add("mpi.cluster.allreduce_large.us_p50", p50_or0(clarge) / 1e3, "us", clarge.size());
  add("mpi.cluster.allreduce_large.gbps",
      clarge.empty() ? 0 : value("mpi.cluster.allreduce_large.bytes") / p50_or0(clarge),
      "GB/s");
  add("mpi.cluster.barrier.us_p50", p50_or0(cbar) / 1e3, "us", cbar.size());
  add("mpi.fabric.sends", value("mpi.fabric.sends"), "count");
  add("mpi.fabric.bytes", value("mpi.fabric.bytes"), "B");
  add("mpi.fabric.retries", value("mpi.fabric.retries"), "count");
  add("ult.ctx_switches", value("ult.ctx_switches"), "count");
  add("ult.launch_ms", value("ult.launch_ms"), "ms");
  add("compute.ms", led.layer("compute") / 1e6 / nrep, "ms");
  add("ledger.hls_ms", led.layer("hls") / 1e6 / nrep, "ms");
  add("ledger.mpi_ms", led.layer("mpi") / 1e6 / nrep, "ms");
  add("ledger.gap_pct", led.gap_pct(), "%");
  add("trace.overhead_pct",
      100.0 * (median(traced_solve) / median(plain_solve) - 1.0), "%",
      traced_solve.size() + plain_solve.size());
  return m;
}

// ------------------------------------------------------------- main loop

bool parse(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") { a.seed = std::stoull(v); have_seed = true; }
      else if (k == "--seconds") { a.seconds = std::stod(v); have_seconds = true; }
      else if (k == "--trace") a.trace = v == "1";
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--workdir") a.workdir = v;
      else if (k == "--commit") a.commit = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && have_seconds &&
         a.seconds > 0;
}

void print_metric(const std::string& name, const Metric& m) {
  if (m.samples > 0) {
    std::printf("%-36s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value, m.unit, m.samples);
  } else {
    std::printf("%-36s %14.6g %s\n", name.c_str(), m.value, m.unit);
  }
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, a.workdir);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const std::string stamp = host_stamp(a);
  std::printf("host %s\n", stamp.c_str());
  std::fflush(stdout);

  // Rep 0 warms the process up and is discarded. In the traced run odd
  // reps are traced (at most kMaxTraced: spans stay in memory), the others
  // measure the same work untraced.
  constexpr int kMaxTraced = 3;
  const std::size_t min_reps = a.trace ? 4 : 3;
  std::vector<Rep> reps;
  std::string error;
  const std::uint64_t t_start = now_ns();
  for (int i = 0, ntraced = 0;; ++i) {
    const bool traced = a.trace && i % 2 == 1 && ntraced < kMaxTraced;
    ntraced += traced;
    try {
      Rep r = w->run_rep(traced);
      if (i > 0) reps.push_back(std::move(r));
      else if (!r.ok) reps.push_back(std::move(r));  // a wrong warm-up counts
    } catch (const std::exception& e) {
      error = e.what();
      break;
    }
    if (!reps.empty() && !reps.back().ok) break;
    const double elapsed = static_cast<double>(now_ns() - t_start) / 1e9;
    if (reps.size() >= min_reps && elapsed >= a.seconds) break;
  }

  // Before the pooled vectors below exist: the peak is the workload's.
  const double rss_mb = vm_hwm_mb();
  const std::size_t per_rep = static_cast<std::size_t>(w->steps_per_rep());
  std::size_t attempted = per_rep * (reps.size() + (error.empty() ? 0 : 1));
  std::size_t failed = error.empty() ? 0 : per_rep;
  for (const Rep& r : reps) {
    if (!r.ok) {
      failed += per_rep;
      error = r.error;
    }
  }
  const bool correct = failed == 0;

  std::vector<double> steps, setup, solve, tracked, traced_solve, plain_solve;
  std::vector<const Rep*> traced;
  for (const Rep& r : reps) {
    steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
    setup.push_back(r.setup_s);
    solve.push_back(r.solve_s);
    tracked.push_back(r.tracked_peak_mb);
    if (r.tracers.empty()) {
      plain_solve.push_back(r.solve_s);
    } else {
      traced_solve.push_back(r.solve_s);
      traced.push_back(&r);
    }
  }

  Metrics m;
  if (correct && !a.trace) {
    if (!percentile_supported(steps.size(), 90)) {
      std::fprintf(stderr, "perfbench: %zu steps cannot support a p90\n", steps.size());
      return 2;
    }
    m.emplace_back("step_ms_p50", Metric{percentile(steps, 50), "ms", steps.size()});
    m.emplace_back("step_ms_p90", Metric{percentile(steps, 90), "ms", steps.size()});
    m.emplace_back("solve_s", Metric{median(solve), "s", solve.size()});
    m.emplace_back("setup_s", Metric{median(setup), "s", setup.size()});
    m.emplace_back("rss_peak_mb", Metric{rss_mb, "MiB", 1});
    m.emplace_back("tracked_peak_mb", Metric{median(tracked), "MiB", tracked.size()});
  } else if (correct) {
    std::map<std::string, double> once;
    w->after_run(once);
    m = layer_metrics(traced, traced_solve, plain_solve, once);
    if (!a.trace_out.empty() && !traced.empty()) {
      std::vector<std::vector<Span>> spans;
      for (const Tracer& t : traced.front()->tracers) spans.push_back(t.spans());
      if (!write_chrome_trace(a.trace_out, spans, stamp)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
      }
    }
  }

  std::printf("workload %s seed %llu: %zu reps x %zu steps, closed loop, %d ranks\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              reps.size(), per_rep, kRanks);
  for (const auto& [name, metric] : m) print_metric(name, metric);
  std::printf("fail_ratio %.6g (%zu/%zu)%s%s\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              failed, attempted, error.empty() ? "" : ": ", error.c_str());

  std::ostringstream j;
  j.precision(17);
  j << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    j << (first ? "" : ", ") << json_str(name) << ": {\"value\": " << metric.value
      << ", \"unit\": " << json_str(metric.unit) << "}";
    first = false;
  }
  j << "}}";
  std::printf("%s\n", j.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report from a debug build\n");
  return 2;
#endif
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--workdir <dir>] "
                 "[--commit <sha>]\n");
    return 2;
  }
  return perfbench::run(a);
}
