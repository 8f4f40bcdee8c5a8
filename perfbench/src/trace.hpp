// In-memory span recorder of the traced run. Each rank appends to its own
// vector (no sharing, no locks); spans are written out once, after the
// ranks joined, as Chrome trace_event JSON that Perfetto loads.
//
// The recorder is attached only in the traced run. Untraced runs pass a
// null Tracer*, and every SpanGuard then reduces to one pointer test.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spans of one rank, nested by call order.
class Tracer {
 public:
  int begin(const char* name, int step) { return begin_at(name, step, now_ns()); }
  /// Open a span whose start was read earlier (its name depended on the
  /// call it times, as for `single`).
  int begin_at(const char* name, int step, std::uint64_t start) {
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, start, 0, open_, step});
    open_ = idx;
    return idx;
  }
  void end(int idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end = now_ns();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span; a no-op when `t` is null.
class SpanGuard {
 public:
  SpanGuard(Tracer* t, const char* name, int step)
      : t_(t), idx_(t != nullptr ? t->begin(name, step) : -1) {}
  ~SpanGuard() {
    if (t_ != nullptr) t_->end(idx_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* t_;
  int idx_;
};

/// Write `per_rank` spans as Chrome trace_event JSON ("X" complete events,
/// one thread row per rank, times in µs relative to the earliest span).
/// Only spans of the first 20 steps (and spans outside any step) are
/// written, which keeps the file small enough to load. `metadata` is a
/// JSON object text embedded verbatim. Returns false when the file cannot
/// be written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<std::vector<Span>>& per_rank,
                               const std::string& metadata) {
  constexpr int kMaxStep = 20;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& spans : per_rank) {
    for (const Span& s : spans) t0 = std::min(t0, s.start);
  }
  std::fprintf(f, "{\"metadata\":%s,\"traceEvents\":[", metadata.c_str());
  bool first = true;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const Span& s : per_rank[r]) {
      if (s.step >= kMaxStep) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                   "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"step\":%d}}",
                   first ? "" : ",\n", s.name, layer_of(s.name).c_str(), r,
                   static_cast<double>(s.start - t0) / 1e3,
                   static_cast<double>(s.duration()) / 1e3, s.step);
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
