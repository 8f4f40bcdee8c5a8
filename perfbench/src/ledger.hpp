// The benchmark's measurement math: percentiles, span self time, release
// latency and the per-layer time ledger. Header-only and free of runtime
// dependencies so perfbench_test can check it on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval of one rank. `parent` indexes the same rank's span
/// vector (-1 = root); `step` is the workload step the span belongs to
/// (-1 = outside the step loop). `name` points at a string literal; its
/// text up to the first '.' names the layer ("hls", "mpi", "ult",
/// "compute"; "bench" is the benchmark's own glue).
struct Span {
  const char* name = "";
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::int32_t parent = -1;
  std::int32_t step = -1;

  std::uint64_t duration() const { return end - start; }
};

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. Throws on an empty input.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/// A percentile is reported only with at least ten samples beyond it.
inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= 10;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children of one rank run sequentially, so
/// their clipped durations never overlap.
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start, p.start);
    const std::uint64_t hi = std::min(s.end, p.end);
    const std::uint64_t covered = hi > lo ? hi - lo : 0;
    auto& ps = self[static_cast<std::size_t>(s.parent)];
    ps -= std::min(ps, covered);
  }
  return self;
}

/// Layer of a span name: the text before the first '.'.
inline std::string layer_of(const char* name) {
  const std::string n(name);
  return n.substr(0, n.find('.'));
}

/// Release latency of one synchronization episode: for every rank, its
/// exit time minus the LAST rank's arrival, so the mechanism's cost is
/// separated from load imbalance (which only delays the last arrival).
inline std::vector<double> release_latency_ns(
    const std::vector<std::uint64_t>& arrive,
    const std::vector<std::uint64_t>& exit) {
  if (arrive.size() != exit.size() || arrive.empty()) {
    throw std::invalid_argument("release latency: arrive/exit size mismatch");
  }
  const std::uint64_t last = *std::max_element(arrive.begin(), arrive.end());
  std::vector<double> out;
  out.reserve(exit.size());
  for (const std::uint64_t e : exit) {
    out.push_back(static_cast<double>(e) - static_cast<double>(last));
  }
  return out;
}

/// Where the traced wall time of the ranks went. `self_ns` sums span self
/// time per layer over all ranks; `wall_ns` sums each rank's timed-phase
/// span. The gap is wall time no runtime layer and no compute span
/// accounts for (the benchmark's own glue plus whatever the spans miss).
struct Ledger {
  std::map<std::string, double> self_ns;
  double wall_ns = 0;

  double layer(const std::string& l) const {
    auto it = self_ns.find(l);
    return it == self_ns.end() ? 0.0 : it->second;
  }
  /// Move `ns` of self time from layer `from` to layer `to` — for work
  /// timed in a batch rather than per call (warm get_addr inside compute).
  void reattribute(const std::string& from, const std::string& to, double ns) {
    const double moved = std::min(ns, layer(from));
    self_ns[from] -= moved;
    self_ns[to] += moved;
  }
  double accounted_ns() const {
    double sum = 0;
    for (const auto& [l, ns] : self_ns) {
      if (l != "bench") sum += ns;
    }
    return sum;
  }
  double gap_pct() const {
    return wall_ns > 0 ? 100.0 * (wall_ns - accounted_ns()) / wall_ns : 0.0;
  }
};

/// Build the ledger of one traced phase. `per_rank[r]` holds rank r's
/// spans; `root_name` names the span that brackets each rank's timed phase
/// (its duration is that rank's wall time; only spans inside its subtree
/// count).
inline Ledger close_ledger(const std::vector<std::vector<Span>>& per_rank,
                           const char* root_name) {
  Ledger led;
  const std::string root(root_name);
  for (const auto& spans : per_rank) {
    const std::vector<std::uint64_t> self = self_times(spans);
    std::vector<char> inside(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const bool is_root = root == s.name;
      inside[i] = is_root ||
                  (s.parent >= 0 && inside[static_cast<std::size_t>(s.parent)]);
      if (!inside[i]) continue;
      if (is_root) led.wall_ns += static_cast<double>(s.duration());
      led.self_ns[is_root ? "bench" : layer_of(s.name)] +=
          static_cast<double>(self[i]);
    }
  }
  return led;
}

}  // namespace perfbench
