// Deterministic fault injection for the runtime's resource-failure paths.
//
// Real failures (mmap returning ENOMEM, fork hitting EAGAIN, a rank dying
// mid-barrier) are impossible to provoke reliably from a test, so every
// such path stays untested until production finds it. The FaultInjector
// makes them deterministically reachable: the runtime's cold paths carry
// *named injection sites* — `fault::should_fail("shm:mmap")` — that are
// inert until a test installs an injector and arms a site.
//
// Arming modes (all deterministic):
//  - site-count: fire on the nth hit of a site (optionally only when the
//    site's integer operand — e.g. the forking rank — matches);
//  - seeded: every site hit rolls a seeded PRNG against a probability;
//    with a fixed seed and a deterministic execution order (the
//    check::DeterministicExecutor provides one) the firing pattern is a
//    pure function of the seed;
//  - schedule-based: fire only once the global sync-point clock has
//    passed N. The clock is ticked by check::DeterministicExecutor at
//    every instrumented sync edge, so a fault can be placed "after the
//    k-th scheduling decision" of an explored schedule.
//
// Sites in the runtime (site string, index operand):
//   shm:anon_mmap        -    AnonymousSegment mmap
//   shm:shm_open         -    NamedSegment shm_open
//   shm:ftruncate        -    NamedSegment ftruncate
//   shm:mmap             -    NamedSegment mmap
//   shm:map_address      -    NamedSegment mapped at the wrong address
//   arena:allocate       -    Arena::allocate forced exhaustion
//   storage:first_touch  -    StorageManager first-touch allocation (OOM)
//   process:fork         rank ProcessNode fork of that rank
//   process:child_exit   rank child crashes (SIGKILL) right after fork
//   process:barrier_locked rank child crashes while HOLDING the robust
//                             sync mutex (exercises EOWNERDEAD recovery)
//   shm:flap             ep   transiently failing intra-node endpoint;
//                             the transport retries with backoff
//   fabric:flap          ep   transiently failing fabric endpoint (link
//                             flap); retried like shm:flap
//   ckpt:write           -    torn checkpoint write: the version file is
//                             published with a truncated payload and no
//                             CRC trailer (restore must fall back)
//   ckpt:dirsync         -    fsync of the checkpoint directory fails
//                             (EIO) after the publishing rename or the
//                             prune unlinks
//   cluster:respawn      node replacement-node launch failure in
//                             SimCluster::respawn
//   shm:file_open        -    MappedSegment open of the backing file
//                             (EMFILE)
//   shm:file_truncate    -    MappedSegment ftruncate to region size
//                             (ENOSPC)
//   shm:file_mmap        -    MappedSegment mmap (ENOMEM)
//   shm:msync            -    MappedSegment sync write-back fails (the
//                             page cache surfaces it as corruption)
//   tier:uffd            -    PageCache's kernel write tracking is
//                             refused: registering a region with the
//                             userfaultfd, or one PAGEMAP_SCAN call of a
//                             drain, fails; the region hashes every
//                             page at every pass from then on
//
// Injection checks cost one relaxed atomic load when no injector is
// installed, and sit on cold paths only (never on warm get_addr or the
// flat-barrier arrival word).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>

namespace hlsmpc::fault {

class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Seeded mode: every should_fail() rolls the PRNG; fires with
  /// `probability`. Deterministic given a deterministic hit order.
  void seed(std::uint64_t seed, double probability);

  /// Fire on the `nth` (1-based) hit of `site`, for `times` consecutive
  /// hits. `index >= 0` restricts matching to hits whose index operand
  /// equals it (hits with other indices don't advance the countdown).
  void arm(const std::string& site, std::uint64_t nth = 1, int index = -1,
           int times = 1);
  /// Fire on every hit of `site` (matching `index` when >= 0).
  void arm_always(const std::string& site, int index = -1);
  /// Like arm(), but the site stays dormant until the global sync-point
  /// clock (ticked by check::DeterministicExecutor) reaches `sync_point`.
  void arm_at_sync_point(const std::string& site, std::uint64_t sync_point,
                         int index = -1);
  void disarm(const std::string& site);

  /// Called by injection sites. Counts the hit; true = fail now.
  bool should_fail(const char* site, int index);

  std::uint64_t hits(const std::string& site) const;
  std::uint64_t fired(const std::string& site) const;

  /// Sync-point clock (see arm_at_sync_point).
  void tick_sync_point() { sync_clock_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t sync_points() const {
    return sync_clock_.load(std::memory_order_relaxed);
  }

  // -- process-global installation (what the sites consult) --
  static FaultInjector* global() {
    return global_.load(std::memory_order_acquire);
  }
  static void install(FaultInjector* inj) {
    global_.store(inj, std::memory_order_release);
  }

 private:
  struct Arming {
    std::uint64_t remaining_skips = 0;  ///< matching hits before firing
    int remaining_fires = 1;            ///< -1 = fire forever
    int index = -1;                     ///< -1 = any index operand
    std::uint64_t after_sync_point = 0;
    bool armed = false;
  };
  struct SiteState {
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
    Arming arming;
  };

  mutable std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
  bool seeded_ = false;
  double probability_ = 0.0;
  std::mt19937_64 rng_;
  std::atomic<std::uint64_t> sync_clock_{0};

  static std::atomic<FaultInjector*> global_;
};

/// RAII installation: sites consult `inj` for the scope's lifetime.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector& inj) {
    FaultInjector::install(&inj);
  }
  ~ScopedFaultInjection() { FaultInjector::install(nullptr); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

/// The check an injection site compiles to: one relaxed load when no
/// injector is installed.
inline bool should_fail(const char* site, int index = -1) {
  FaultInjector* inj = FaultInjector::global();
  return inj != nullptr && inj->should_fail(site, index);
}

/// Tick the global injector's sync-point clock (no-op when none is
/// installed). Called by check::DeterministicExecutor at every sync edge.
inline void tick_sync_point() {
  if (FaultInjector* inj = FaultInjector::global()) inj->tick_sync_point();
}

}  // namespace hlsmpc::fault
