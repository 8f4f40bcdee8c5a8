// Transient-failure retry policy: bounded exponential backoff with jitter.
//
// Transports distinguish two failure bands (fault/error.hpp):
//
//   transient — EINTR, EAGAIN, a partial write, an injected link flap
//     that heals. Worth retrying: the op is re-issued after a bounded
//     backoff, and only the *attempt budget* running out reclassifies the
//     failure as persistent.
//   persistent — the budget is exhausted (or the peer is positively known
//     dead). Surfaces as TransportError(transport_exhausted) or
//     NodeDeadError; cluster supervision escalates it to node poison.
//
// Backoff is exponential with a multiplicative cap and deterministic
// xorshift jitter (seeded per backoff object), so two ranks retrying the
// same flapping link do not stampede in lockstep. Cooperative contexts
// (fibers under the deterministic executor) never sleep — they yield,
// which keeps every retry interleaving explorable and replayable; the
// backoff arithmetic still runs so the attempt accounting is identical
// across executor back ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "fault/error.hpp"
#include "ult/task_context.hpp"

namespace hlsmpc::mpi {

struct RetryPolicy {
  /// Total tries for one operation, including the first. Exhaustion
  /// reclassifies the failure as persistent.
  int max_attempts = 8;
  /// Backoff before retry k (1-based) is base * 2^(k-1), capped, +/- up
  /// to 25% jitter.
  std::chrono::microseconds backoff_base{50};
  std::chrono::microseconds backoff_cap{2000};
};

/// Jitter seed for one retry burst: splitmix64 over (rank, endpoint,
/// epoch). Seeding every RetryBackoff with the same constant put all
/// ranks retrying a shared flapping link through the *identical* jitter
/// sequence — synchronized stampedes, which is exactly what jitter
/// exists to break. Mixing the caller's identity decorrelates peers,
/// the endpoint decorrelates one rank's concurrent ops, and the epoch
/// (a per-transport burst counter) decorrelates successive bursts of
/// the same pair. Still fully deterministic — the same triple replays
/// the same sequence, so explorer runs stay reproducible.
inline std::uint64_t jitter_seed(int rank, int endpoint,
                                 std::uint64_t epoch) {
  std::uint64_t z =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32) ^
      static_cast<std::uint32_t>(endpoint);
  z += 0x9e3779b97f4a7c15ull * (epoch + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

/// Per-operation backoff state. Cheap to construct (two words); make one
/// per op, call wait() before each retry.
class RetryBackoff {
 public:
  explicit RetryBackoff(const RetryPolicy& policy,
                        std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull)
      : policy_(&policy),
        // xorshift state must be nonzero.
        rng_(jitter_seed | 1u) {}

  /// The delay wait() would sleep before retry `attempt` (1-based),
  /// advancing the jitter state. Exposed so tests can compare two peers'
  /// backoff sequences without actually sleeping.
  std::chrono::microseconds next_delay(int attempt) {
    auto d = policy_->backoff_base;
    for (int i = 1; i < attempt && d < policy_->backoff_cap; ++i) d *= 2;
    if (d > policy_->backoff_cap) d = policy_->backoff_cap;
    // +/- 25% deterministic jitter (xorshift64*).
    rng_ ^= rng_ >> 12;
    rng_ ^= rng_ << 25;
    rng_ ^= rng_ >> 27;
    const std::uint64_t r = rng_ * 0x2545f4914f6cdd1dull;
    const auto quarter = d / 4;
    const auto jitter = quarter.count() > 0
                            ? std::chrono::microseconds(
                                  static_cast<std::int64_t>(
                                      r % static_cast<std::uint64_t>(
                                              2 * quarter.count() + 1)) -
                                  quarter.count())
                            : std::chrono::microseconds(0);
    return d + jitter;
  }

  /// Back off before retry `attempt` (1-based). Preemptive contexts
  /// sleep; cooperative ones yield so the deterministic executor keeps
  /// full control of the interleaving.
  void wait(ult::TaskContext& ctx, int attempt) {
    if (ctx.cooperative()) {
      ctx.yield();
      return;
    }
    std::this_thread::sleep_for(next_delay(attempt));
  }

 private:
  const RetryPolicy* policy_;
  std::uint64_t rng_;
};

}  // namespace hlsmpc::mpi
