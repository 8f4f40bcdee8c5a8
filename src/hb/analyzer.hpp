// Happens-before analysis and HLS eligibility (paper §III).
//
// Vector clocks are propagated through program order, matched send/recv
// pairs (k-th send from t to u with tag g matches the k-th such recv) and
// barrier waves. A read r of variable v returning value val is *coherent*
// iff
//   (1) every write w to v with w || r has value(w) == val, and
//   (2) every last-write-before w (w < r with no other write to v between)
//       has value(w) == val.
// A variable is HLS-eligible without synchronization iff all its reads
// are coherent (§III.B). If not, condition (3) — some candidate write has
// the right value — decides whether added synchronization (e.g. the
// single directive) can make it eligible (§III.C).
#pragma once

#include "hb/trace.hpp"

namespace hlsmpc::hb {

enum class Eligibility {
  eligible,            ///< shareable as-is (all reads coherent)
  needs_synchronization,  ///< shareable if singles are added (cond. 3 holds)
  ineligible,          ///< some read can never be made coherent
};

const char* to_string(Eligibility e);

struct VarReport {
  std::string var;
  Eligibility eligibility = Eligibility::eligible;
  std::vector<int> incoherent_reads;  // event ids
};

struct AnalysisResult {
  std::vector<VarReport> vars;
  const VarReport& for_var(const std::string& name) const;
};

class Analyzer {
 public:
  explicit Analyzer(const Trace& trace);

  /// Strict happens-before between two event ids.
  bool happens_before(int a, int b) const;
  bool parallel(int a, int b) const {
    return a != b && !happens_before(a, b) && !happens_before(b, a);
  }

  AnalysisResult analyze() const;

 private:
  void compute_clocks();

  const Trace* trace_;
  std::vector<std::vector<std::uint32_t>> vc_;  // per event id
  std::vector<std::uint32_t> pos_;              // program-order index
};

}  // namespace hlsmpc::hb
