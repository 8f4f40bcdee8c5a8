#include "hb/analyzer.hpp"

#include <algorithm>
#include <map>

namespace hlsmpc::hb {

const char* to_string(Eligibility e) {
  switch (e) {
    case Eligibility::eligible:
      return "eligible";
    case Eligibility::needs_synchronization:
      return "needs synchronization";
    case Eligibility::ineligible:
      return "ineligible";
  }
  return "?";
}

const VarReport& AnalysisResult::for_var(const std::string& name) const {
  for (const VarReport& r : vars) {
    if (r.var == name) return r;
  }
  throw hls::HlsError("AnalysisResult: variable '" + name +
                      "' not in the trace");
}

Analyzer::Analyzer(const Trace& trace) : trace_(&trace) { compute_clocks(); }

void Analyzer::compute_clocks() {
  const int n = trace_->ntasks();
  const auto& events = trace_->events();
  vc_.assign(events.size(), std::vector<std::uint32_t>(
                                static_cast<std::size_t>(n), 0));
  pos_.assign(events.size(), 0);

  // Round-robin replay: advance each task while its next event's
  // dependencies (matching send, or full barrier wave) are satisfied.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<std::uint32_t>> task_vc(
      static_cast<std::size_t>(n),
      std::vector<std::uint32_t>(static_cast<std::size_t>(n), 0));
  // Matched channels: (src,dst,tag) -> queue of send event ids already
  // processed; recv consumes in order.
  std::map<std::tuple<int, int, long>, std::vector<int>> sent;
  std::map<std::tuple<int, int, long>, std::size_t> consumed;

  auto join = [n](std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b) {
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      a[idx] = std::max(a[idx], b[idx]);
    }
  };

  bool progress = true;
  std::size_t done = 0;
  const std::size_t total = events.size();
  while (done < total) {
    if (!progress) {
      throw hls::HlsError(
          "Analyzer: trace cannot be replayed (unmatched recv or "
          "incomplete barrier wave)");
    }
    progress = false;

    // Barrier waves need all participants at the barrier simultaneously.
    // First try to complete a wave.
    bool all_at_barrier = n > 0;
    int wave = -1;
    for (int t = 0; t < n; ++t) {
      const auto& order = trace_->program_order(t);
      const std::size_t c = cursor[static_cast<std::size_t>(t)];
      if (c >= order.size() ||
          events[static_cast<std::size_t>(order[c])].kind !=
              EventKind::barrier) {
        all_at_barrier = false;
        break;
      }
      const int w = events[static_cast<std::size_t>(order[c])].barrier_id;
      if (wave == -1) wave = w;
      if (w != wave) all_at_barrier = false;
    }
    if (all_at_barrier) {
      // Join all clocks, stamp every barrier event with the join.
      std::vector<std::uint32_t> merged(static_cast<std::size_t>(n), 0);
      for (int t = 0; t < n; ++t) {
        auto& tv = task_vc[static_cast<std::size_t>(t)];
        tv[static_cast<std::size_t>(t)] += 1;
        join(merged, tv);
      }
      for (int t = 0; t < n; ++t) {
        const auto& order = trace_->program_order(t);
        const int id = order[cursor[static_cast<std::size_t>(t)]];
        vc_[static_cast<std::size_t>(id)] = merged;
        pos_[static_cast<std::size_t>(id)] =
            merged[static_cast<std::size_t>(t)];
        task_vc[static_cast<std::size_t>(t)] = merged;
        ++cursor[static_cast<std::size_t>(t)];
        ++done;
      }
      progress = true;
    }

    // Then advance non-barrier events.
    for (int t = 0; t < n; ++t) {
      const auto& order = trace_->program_order(t);
      while (cursor[static_cast<std::size_t>(t)] < order.size()) {
        const int id = order[cursor[static_cast<std::size_t>(t)]];
        const Event& e = events[static_cast<std::size_t>(id)];
        if (e.kind == EventKind::barrier) break;  // handled above
        auto& tv = task_vc[static_cast<std::size_t>(t)];
        if (e.kind == EventKind::recv) {
          const auto key = std::make_tuple(e.peer, t, e.tag);
          auto& queue = sent[key];
          auto& used = consumed[key];
          if (used >= queue.size()) break;  // matching send not yet replayed
          const int send_id = queue[used++];
          tv[static_cast<std::size_t>(t)] += 1;
          join(tv, vc_[static_cast<std::size_t>(send_id)]);
        } else {
          tv[static_cast<std::size_t>(t)] += 1;
          if (e.kind == EventKind::send) {
            sent[std::make_tuple(t, e.peer, e.tag)].push_back(id);
          }
        }
        vc_[static_cast<std::size_t>(id)] = tv;
        pos_[static_cast<std::size_t>(id)] = tv[static_cast<std::size_t>(t)];
        ++cursor[static_cast<std::size_t>(t)];
        ++done;
        progress = true;
      }
    }
  }
}

bool Analyzer::happens_before(int a, int b) const {
  if (a == b) return false;
  const Event& ea = trace_->events()[static_cast<std::size_t>(a)];
  // a < b iff b's clock has seen a's position in a's task component —
  // strictly: vc(b)[task(a)] >= pos(a) and not the symmetric case.
  const auto& vb = vc_[static_cast<std::size_t>(b)];
  if (vb[static_cast<std::size_t>(ea.task)] < pos_[static_cast<std::size_t>(a)]) {
    return false;
  }
  // Distinguish equality (same event) handled above; barrier events of one
  // wave share clocks — treat them as unordered among themselves.
  const auto& va = vc_[static_cast<std::size_t>(a)];
  if (va == vb) return false;
  return true;
}

AnalysisResult Analyzer::analyze() const {
  AnalysisResult result;
  const auto& events = trace_->events();
  for (const std::string& var : trace_->variables()) {
    VarReport report;
    report.var = var;
    std::vector<int> writes;
    std::vector<int> reads;
    for (const Event& e : events) {
      if (e.var != var) continue;
      if (e.kind == EventKind::write) writes.push_back(e.id);
      if (e.kind == EventKind::read) reads.push_back(e.id);
    }
    bool all_coherent = true;
    bool cond3_ok = true;
    for (int r : reads) {
      const long rv = events[static_cast<std::size_t>(r)].value;
      bool coherent = true;
      bool some_candidate_matches = false;
      bool any_candidate = false;
      for (int w : writes) {
        const long wv = events[static_cast<std::size_t>(w)].value;
        if (parallel(w, r)) {
          any_candidate = true;
          if (wv == rv) some_candidate_matches = true;
          if (wv != rv) coherent = false;  // condition (1)
        } else if (happens_before(w, r)) {
          // Condition (2): only *last* writes before r matter.
          bool intervening = false;
          for (int w2 : writes) {
            if (w2 != w && happens_before(w, w2) && happens_before(w2, r)) {
              intervening = true;
              break;
            }
          }
          if (!intervening) {
            any_candidate = true;
            if (wv == rv) some_candidate_matches = true;
            if (wv != rv) coherent = false;
          }
        }
      }
      if (!coherent) {
        all_coherent = false;
        report.incoherent_reads.push_back(r);
        // Condition (3): some considered write must produce the value.
        if (!any_candidate || !some_candidate_matches) cond3_ok = false;
      }
    }
    if (all_coherent) {
      report.eligibility = Eligibility::eligible;
    } else if (cond3_ok) {
      report.eligibility = Eligibility::needs_synchronization;
    } else {
      report.eligibility = Eligibility::ineligible;
    }
    result.vars.push_back(std::move(report));
  }
  return result;
}

}  // namespace hlsmpc::hb
