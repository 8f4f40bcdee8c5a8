// Transport conformance suite.
//
// Every Transport implementation must honor the same contract
// (transport.hpp): non-overtaking delivery per (source, tag, context)
// channel, zero-byte messages, self-sends, wildcard receives, probe
// visibility, truncation errors on both match paths, and clean
// exhaustion (TransportError{transport_exhausted}, nothing enqueued).
// The suite runs parameterized over the intra-node shared-memory
// transport and the simulated inter-node fabric so a future transport
// (e.g. the socket one) plugs into the same checklist.
//
// Also here: the spin-then-park request wait (await_request) raced
// against its completers, and the HLSMPC_COLL_* environment overrides of
// CollConfig (coll_config_from_env) with their range clamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "memtrack/memtrack.hpp"
#include "mpi/runtime.hpp"
#include "mpi/shm_transport.hpp"
#include "mpi/sim_fabric.hpp"
#include "obs/recorder.hpp"

namespace fault = hlsmpc::fault;
namespace mpi = hlsmpc::mpi;
namespace obs = hlsmpc::obs;
namespace ult = hlsmpc::ult;

namespace {

/// Minimal preemptive context for driving a transport without an
/// executor: the conformance cases below are single-threaded (sends on
/// both transports complete eagerly for small payloads; rendezvous
/// completes at match time), so a plain yield suffices.
class TestCtx final : public hlsmpc::ult::TaskContext {
 public:
  explicit TestCtx(int id) { set_task_id(id); }
  void yield() override { std::this_thread::yield(); }
  bool cooperative() const override { return false; }
};

/// By-value convenience over transport_wait for freshly returned requests.
void wait(hlsmpc::ult::TaskContext& ctx, mpi::Request req,
          mpi::Status* st = nullptr) {
  mpi::transport_wait(ctx, req, st);
}

struct Harness {
  virtual ~Harness() = default;
  virtual mpi::Transport& t() = 0;
};

struct ShmHarness : Harness {
  ShmHarness(int n, mpi::TransportLimits limits)
      : bufs(mpi::BufferConfig{}, n, n, tracker), tr(n, bufs, limits) {}
  hlsmpc::memtrack::Tracker tracker;
  mpi::BufferManager bufs;
  mpi::ShmTransport tr;
  mpi::Transport& t() override { return tr; }
};

struct FabricHarness : Harness {
  FabricHarness(int n, mpi::TransportLimits limits) : tr(make(n, limits)) {}
  static mpi::SimFabricTransport::Options make(int n,
                                               mpi::TransportLimits limits) {
    mpi::SimFabricTransport::Options o;
    o.nranks = n;
    o.ranks_per_node = 2;
    o.limits = limits;
    return o;
  }
  mpi::SimFabricTransport tr;
  mpi::Transport& t() override { return tr; }
};

enum class Kind { shm, fabric };

std::unique_ptr<Harness> make_harness(Kind k, int n,
                                      mpi::TransportLimits limits = {}) {
  if (k == Kind::shm) return std::make_unique<ShmHarness>(n, limits);
  return std::make_unique<FabricHarness>(n, limits);
}

class TransportConformance : public testing::TestWithParam<Kind> {
 protected:
  static constexpr int kCtx = 0;
  std::unique_ptr<Harness> h_ = make_harness(GetParam(), 4);
  mpi::Transport& t_ = h_->t();
  TestCtx c0_{0}, c1_{1}, c2_{2};
};

std::string kind_name(const testing::TestParamInfo<Kind>& info) {
  return info.param == Kind::shm ? "shm" : "fabric";
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         testing::Values(Kind::shm, Kind::fabric),
                         kind_name);

TEST_P(TransportConformance, NamesAndEndpoints) {
  EXPECT_EQ(t_.nendpoints(), 4);
  EXPECT_STREQ(t_.name(), GetParam() == Kind::shm ? "shm" : "sim_fabric");
}

TEST_P(TransportConformance, DeliversPayloadAndStatus) {
  const int v = 42;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 7, kCtx);
  int got = 0;
  mpi::Request r = t_.irecv(c1_, 1, &got, sizeof(got), 0, 7, kCtx);
  mpi::Status st;
  mpi::transport_wait(c1_, r, &st);
  mpi::transport_wait(c0_, s);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 7);
  EXPECT_EQ(st.bytes, sizeof(int));
}

TEST_P(TransportConformance, ZeroByteMessage) {
  mpi::Request s = t_.isend(c0_, 0, 1, 1, nullptr, 0, 3, kCtx);
  mpi::Request r = t_.irecv(c1_, 1, nullptr, 0, 0, 3, kCtx);
  mpi::Status st;
  mpi::transport_wait(c1_, r, &st);
  mpi::transport_wait(c0_, s);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.source, 0);
}

TEST_P(TransportConformance, SelfSend) {
  const double v = 2.5;
  mpi::Request s = t_.isend(c0_, 0, 0, 0, &v, sizeof(v), 1, kCtx);
  double got = 0;
  mpi::Request r = t_.irecv(c0_, 0, &got, sizeof(got), 0, 1, kCtx);
  mpi::transport_wait(c0_, r);
  mpi::transport_wait(c0_, s);
  EXPECT_EQ(got, 2.5);
}

TEST_P(TransportConformance, NonOvertakingSameChannel) {
  // Four sends on one (source, tag, context) channel must be received in
  // send order, whether matched from the unexpected queue...
  for (int i = 0; i < 4; ++i) {
    mpi::Request s = t_.isend(c0_, 0, 1, 1, &i, sizeof(i), 9, kCtx);
    mpi::transport_wait(c0_, s);
  }
  for (int i = 0; i < 4; ++i) {
    int got = -1;
    mpi::Request r = t_.irecv(c1_, 1, &got, sizeof(got), 0, 9, kCtx);
    mpi::transport_wait(c1_, r);
    EXPECT_EQ(got, i);
  }
}

TEST_P(TransportConformance, WildcardSourceAndTag) {
  const int a = 10, b = 20;
  mpi::Request s1 = t_.isend(c0_, 0, 1, 1, &a, sizeof(a), 4, kCtx);
  mpi::Request s2 = t_.isend(c2_, 2, 1, 1, &b, sizeof(b), 8, kCtx);
  mpi::transport_wait(c0_, s1);
  mpi::transport_wait(c2_, s2);
  int got = 0;
  mpi::Status st;
  mpi::Request r1 =
      t_.irecv(c1_, 1, &got, sizeof(got), mpi::kAnySource, 8, kCtx);
  mpi::transport_wait(c1_, r1, &st);
  EXPECT_EQ(got, 20);
  EXPECT_EQ(st.source, 2);
  mpi::Request r2 =
      t_.irecv(c1_, 1, &got, sizeof(got), 0, mpi::kAnyTag, kCtx);
  mpi::transport_wait(c1_, r2, &st);
  EXPECT_EQ(got, 10);
  EXPECT_EQ(st.tag, 4);
}

TEST_P(TransportConformance, ContextsDoNotCrossMatch) {
  const int a = 1, b = 2;
  mpi::Request s1 = t_.isend(c0_, 0, 1, 1, &a, sizeof(a), 5, /*context=*/0);
  mpi::Request s2 = t_.isend(c0_, 0, 1, 1, &b, sizeof(b), 5, /*context=*/1);
  mpi::transport_wait(c0_, s1);
  mpi::transport_wait(c0_, s2);
  int got = 0;
  mpi::Request r =
      t_.irecv(c1_, 1, &got, sizeof(got), 0, 5, /*context=*/1);
  mpi::transport_wait(c1_, r);
  EXPECT_EQ(got, 2);  // the context-1 message, not the earlier context-0 one
}

TEST_P(TransportConformance, ProbeSeesPendingMessage) {
  mpi::Status st;
  EXPECT_FALSE(t_.iprobe(1, mpi::kAnySource, mpi::kAnyTag, kCtx, &st));
  const int v = 5;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 6, kCtx);
  mpi::transport_wait(c0_, s);
  ASSERT_TRUE(t_.iprobe(1, mpi::kAnySource, mpi::kAnyTag, kCtx, &st));
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 6);
  EXPECT_EQ(st.bytes, sizeof(int));
  // Probing must not consume: the receive still matches.
  int got = 0;
  mpi::Request r = t_.irecv(c1_, 1, &got, sizeof(got), 0, 6, kCtx);
  mpi::transport_wait(c1_, r);
  EXPECT_EQ(got, 5);
}

TEST_P(TransportConformance, TruncationOnUnexpectedMatchFailsRecv) {
  const std::int64_t v = 1;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx);
  mpi::transport_wait(c0_, s);
  std::int32_t small = 0;
  mpi::Request r = t_.irecv(c1_, 1, &small, sizeof(small), 0, 2, kCtx);
  EXPECT_THROW(mpi::transport_wait(c1_, r), mpi::MpiError);
}

TEST_P(TransportConformance, TruncationOnPostedMatchFailsBothSides) {
  std::int32_t small = 0;
  mpi::Request r = t_.irecv(c1_, 1, &small, sizeof(small), 0, 2, kCtx);
  const std::int64_t v = 1;
  mpi::Request s = t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx);
  EXPECT_THROW(mpi::transport_wait(c1_, r), mpi::MpiError);
  EXPECT_THROW(mpi::transport_wait(c0_, s), mpi::MpiError);
}

TEST_P(TransportConformance, BadEndpointIsAnError) {
  const int v = 0;
  EXPECT_THROW(t_.isend(c0_, 0, 99, 99, &v, sizeof(v), 0, kCtx),
               mpi::MpiError);
  int got = 0;
  EXPECT_THROW(t_.irecv(c0_, 99, &got, sizeof(got), 0, 0, kCtx),
               mpi::MpiError);
}

TEST_P(TransportConformance, ExhaustionByMessageCountIsCleanAndRecoverable) {
  mpi::TransportLimits lim;
  lim.max_unexpected_msgs = 2;
  auto h = make_harness(GetParam(), 2, lim);
  mpi::Transport& t = h->t();
  const int v = 1;
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  try {
    t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx);
    FAIL() << "third unmatched send must exhaust the queue";
  } catch (const mpi::TransportError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::transport_exhausted);
    EXPECT_TRUE(hlsmpc::recoverable(e.code()));
  }
  // Clean degradation: nothing was enqueued, draining one message frees a
  // slot and the transport works again.
  int got = 0;
  TestCtx c1{1};
  wait(c1, t.irecv(c1, 1, &got, sizeof(got), 0, 0, kCtx));
  EXPECT_EQ(got, 1);
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
}

TEST_P(TransportConformance, ExhaustionByByteBudget) {
  mpi::TransportLimits lim;
  lim.max_unexpected_bytes = 12;
  auto h = make_harness(GetParam(), 2, lim);
  mpi::Transport& t = h->t();
  const std::int64_t v = 7;
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  try {
    t.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx);
    FAIL() << "byte budget must refuse the second 8-byte send";
  } catch (const mpi::TransportError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::transport_exhausted);
  }
  // A posted receive bypasses the unexpected queue entirely.
  std::int64_t got = 0;
  TestCtx c1{1};
  mpi::Request r = t.irecv(c1, 1, &got, sizeof(got), 0, 1, kCtx);
  wait(c0_, t.isend(c0_, 0, 1, 1, &v, sizeof(v), 1, kCtx));
  mpi::transport_wait(c1, r);
  EXPECT_EQ(got, 7);
}

TEST_P(TransportConformance, StatsCountTraffic) {
  const auto before = t_.stats().messages.load();
  const int v = 3;
  wait(c0_, t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 0, kCtx));
  int got = 0;
  wait(c1_, t_.irecv(c1_, 1, &got, sizeof(got), 0, 0, kCtx));
  EXPECT_EQ(t_.stats().messages.load(), before + 1);
  EXPECT_GE(t_.stats().bytes.load(), sizeof(int));
}

// ---- large payloads: rendezvous (shm) vs always-copy (fabric) ----

TEST_P(TransportConformance, LargePayloadRoundTrip) {
  const std::size_t n = 64 * 1024;  // past the 8 KB eager threshold
  std::vector<std::uint8_t> in(n), out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  mpi::Request r = t_.irecv(c1_, 1, out.data(), n, 0, 11, kCtx);
  mpi::Request s = t_.isend(c0_, 0, 1, 1, in.data(), n, 11, kCtx);
  mpi::transport_wait(c0_, s);
  mpi::transport_wait(c1_, r);
  EXPECT_EQ(in, out);
}

// ---- transient-failure retry (the "shm:flap" / "fabric:flap" sites) ----

namespace {

const char* flap_site(Kind k) {
  return k == Kind::shm ? "shm:flap" : "fabric:flap";
}

}  // namespace

TEST_P(TransportConformance, TransientFlapIsRetriedThenSucceeds) {
  // Endpoint 1 fails transiently three times; the transport must absorb
  // the flaps with backed-off retries and then deliver normally — the
  // caller never sees an error.
  fault::FaultInjector inj;
  inj.arm(flap_site(GetParam()), /*nth=*/1, /*index=*/1, /*times=*/3);
  fault::ScopedFaultInjection scoped(inj);
  const int v = 7;
  wait(c0_, t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx));
  int got = 0;
  wait(c1_, t_.irecv(c1_, 1, &got, sizeof(got), 0, 2, kCtx));
  EXPECT_EQ(got, 7);
  EXPECT_EQ(inj.fired(flap_site(GetParam())), 3u);
  EXPECT_EQ(t_.stats().link_flaps.load(), 3u);
  EXPECT_EQ(t_.stats().retries.load(), 3u);
}

TEST_P(TransportConformance, PersistentFlapExhaustsBudgetWithoutPoison) {
  // A link that never comes back must surface as transport_exhausted once
  // the bounded retry budget runs out — a TRANSIENT-class failure, not a
  // NodeDeadError: reclassifying a flap as a death is cluster
  // supervision's call, never the transport's.
  fault::FaultInjector inj;
  inj.arm_always(flap_site(GetParam()), /*index=*/1);
  fault::ScopedFaultInjection scoped(inj);
  const int v = 1;
  try {
    t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx);
    FAIL() << "send through a permanently flapping link must throw";
  } catch (const mpi::NodeDeadError&) {
    FAIL() << "retry exhaustion must not be classified as a node death";
  } catch (const mpi::TransportError& e) {
    EXPECT_EQ(e.code(), hlsmpc::ErrorCode::transport_exhausted);
    EXPECT_TRUE(hlsmpc::recoverable(e.code()));
  }
  EXPECT_GE(t_.stats().retries.load(), 1u);
  if (GetParam() == Kind::fabric) {
    auto& fab = dynamic_cast<mpi::SimFabricTransport&>(t_);
    EXPECT_EQ(fab.first_dead_node(), -1);
  }
  // The flap only wedged this one operation: once the link heals, the
  // same channel delivers.
  inj.disarm(flap_site(GetParam()));
  wait(c0_, t_.isend(c0_, 0, 1, 1, &v, sizeof(v), 2, kCtx));
  int got = 0;
  wait(c1_, t_.irecv(c1_, 1, &got, sizeof(got), 0, 2, kCtx));
  EXPECT_EQ(got, 1);
}

// ---- CollConfig environment overrides (coll_config_from_env) ----

namespace {

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) { unset(); }
  ~EnvGuard() { unset(); }
  void set(const char* v) { setenv(name_, v, /*overwrite=*/1); }
  void unset() { unsetenv(name_); }
  const char* name_;
};

}  // namespace

TEST(CollConfigEnv, UnsetLeavesBaseUntouched) {
  mpi::CollConfig base;
  base.small_threshold = 777;
  const mpi::CollConfig got = mpi::coll_config_from_env(base);
  EXPECT_EQ(got.small_threshold, 777u);
  EXPECT_EQ(got.enable_shm, base.enable_shm);
  EXPECT_EQ(got.pipeline_threshold, base.pipeline_threshold);
  EXPECT_EQ(got.fragment_bytes, base.fragment_bytes);
}

TEST(CollConfigEnv, OverridesApply) {
  EnvGuard shm("HLSMPC_COLL_SHM"), small("HLSMPC_COLL_SMALL_THRESHOLD"),
      pipe("HLSMPC_COLL_PIPELINE_THRESHOLD"),
      frag("HLSMPC_COLL_FRAGMENT_BYTES"), yield("HLSMPC_COLL_PIPELINE_YIELD");
  shm.set("0");
  small.set("512");
  pipe.set("65536");
  frag.set("8192");
  yield.set("0");
  const mpi::CollConfig got = mpi::coll_config_from_env({});
  EXPECT_FALSE(got.enable_shm);
  EXPECT_EQ(got.small_threshold, 512u);
  EXPECT_EQ(got.pipeline_threshold, 65536u);
  EXPECT_EQ(got.fragment_bytes, 8192u);
  EXPECT_FALSE(got.pipeline_yield);
}

TEST(CollConfigEnv, ValuesAreRangeClamped) {
  EnvGuard small("HLSMPC_COLL_SMALL_THRESHOLD"),
      pipe("HLSMPC_COLL_PIPELINE_THRESHOLD"),
      frag("HLSMPC_COLL_FRAGMENT_BYTES");
  small.set("999999999");  // clamped to 1 MiB
  pipe.set("4");           // clamped up to small_threshold
  frag.set("7");           // clamped to 1 KiB
  mpi::CollConfig got = mpi::coll_config_from_env({});
  EXPECT_EQ(got.small_threshold, std::size_t{1024 * 1024});
  EXPECT_EQ(got.pipeline_threshold, got.small_threshold);
  EXPECT_EQ(got.fragment_bytes, 1024u);
  frag.set("999999999");  // clamped to 16 MiB
  got = mpi::coll_config_from_env({});
  EXPECT_EQ(got.fragment_bytes, std::size_t{16 * 1024 * 1024});
}

TEST(CollConfigEnv, PipelineThresholdZeroMeansNever) {
  EnvGuard pipe("HLSMPC_COLL_PIPELINE_THRESHOLD");
  pipe.set("0");
  const mpi::CollConfig got = mpi::coll_config_from_env({});
  EXPECT_EQ(got.pipeline_threshold, SIZE_MAX);
}

TEST(CollConfigEnv, GarbageIsIgnored) {
  EnvGuard small("HLSMPC_COLL_SMALL_THRESHOLD"), shm("HLSMPC_COLL_SHM"),
      frag("HLSMPC_COLL_FRAGMENT_BYTES");
  small.set("not-a-number");
  shm.set("banana");
  mpi::CollConfig base;
  base.small_threshold = 321;
  const mpi::CollConfig got = mpi::coll_config_from_env(base);
  EXPECT_EQ(got.small_threshold, 321u);
  EXPECT_EQ(got.enable_shm, base.enable_shm);
  // A sign or an out-of-range number is garbage too, not 2^64-1 clamped
  // to the top of the range.
  for (const char* bad : {"-1", "99999999999999999999999"}) {
    small.set(bad);
    frag.set(bad);
    const mpi::CollConfig dflt =
        mpi::coll_config_from_env(mpi::CollConfig{});
    EXPECT_EQ(dflt.small_threshold, mpi::CollConfig{}.small_threshold) << bad;
    EXPECT_EQ(dflt.fragment_bytes, mpi::CollConfig{}.fragment_bytes) << bad;
  }
}

// ---- retry backoff jitter seeding --------------------------------------
//
// The bug being pinned: every RetryBackoff used to be seeded with one
// compile-time constant, so all ranks riding out the same flapping link
// drew the IDENTICAL jitter sequence and retried in lockstep — the
// stampede jitter exists to break. Transports now seed from
// (rank, endpoint, burst epoch).

namespace {

std::vector<long> delay_sequence(const mpi::RetryPolicy& pol,
                                 std::uint64_t seed) {
  mpi::RetryBackoff b(pol, seed);
  std::vector<long> v;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    v.push_back(static_cast<long>(b.next_delay(attempt).count()));
  }
  return v;
}

}  // namespace

TEST(RetryBackoff, JitterSeedDecorrelatesPeersDeterministically) {
  const mpi::RetryPolicy pol;
  // Two ranks retrying against the same endpoint in the same burst must
  // take different jitter — no lockstep stampede.
  EXPECT_NE(delay_sequence(pol, mpi::jitter_seed(0, 3, 0)),
            delay_sequence(pol, mpi::jitter_seed(1, 3, 0)));
  // One rank's successive bursts at one endpoint decorrelate too (the
  // per-transport epoch counter), as do its concurrent ops on distinct
  // endpoints.
  EXPECT_NE(delay_sequence(pol, mpi::jitter_seed(0, 3, 0)),
            delay_sequence(pol, mpi::jitter_seed(0, 3, 1)));
  EXPECT_NE(delay_sequence(pol, mpi::jitter_seed(0, 3, 0)),
            delay_sequence(pol, mpi::jitter_seed(0, 4, 0)));
  // Fully deterministic: the same (rank, endpoint, epoch) triple replays
  // the identical sequence, so explorer repros stay exact.
  EXPECT_EQ(delay_sequence(pol, mpi::jitter_seed(2, 7, 5)),
            delay_sequence(pol, mpi::jitter_seed(2, 7, 5)));
  // Jitter stays within the +/- 25% envelope around base..cap.
  for (long d : delay_sequence(pol, mpi::jitter_seed(1, 1, 1))) {
    EXPECT_GE(d, pol.backoff_base.count() * 3 / 4);
    EXPECT_LE(d, pol.backoff_cap.count() * 5 / 4);
  }
}

// ---- request waits: spin, then park -------------------------------------
//
// await_request (transport.hpp) polls RequestState::done for a bounded
// spin, then parks on the request's condvar. Completions race that
// transition here; a lost wakeup would hang the suite (ctest timeout).

namespace {

using Clock = std::chrono::steady_clock;

/// Burn `us` microseconds on this thread: a completer that lands early in
/// the waiter's spin, near its end, or after it parked.
void busy_us(double us) {
  const auto end = Clock::now() + std::chrono::duration<double, std::micro>(us);
  while (Clock::now() < end) ult::cpu_relax();
}

/// Spin completions are possible in this process right now (the test's
/// own threads hold no census entry).
bool can_spin() { return !ult::ThreadCensus::oversubscribed(); }

}  // namespace

TEST(RequestWait, CompletionsRacingSpinToParkNeverHang) {
  constexpr int kRequests = 100000;
  obs::Recorder rec({.ntasks = 1, .num_scopes = 0, .ring_capacity = 0});
  std::vector<std::shared_ptr<mpi::RequestState>> reqs(kRequests);
  for (auto& r : reqs) r = std::make_shared<mpi::RequestState>();
  // The waiter publishes how many waits it has entered; the completer
  // completes request i a drawn delay after wait i began: most inside
  // the 50 us spin, a quarter straddling its end, the rest after the
  // waiter parked.
  std::atomic<int> entered{0};
  std::thread completer([&] {
    std::mt19937 rng(14);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (int i = 0; i < kRequests; ++i) {
      while (entered.load(std::memory_order_acquire) <= i) ult::cpu_relax();
      switch (i % 8) {
        case 5:
        case 6:
          busy_us(40.0 + 20.0 * u(rng));
          break;
        case 7:
          busy_us(60.0 + 40.0 * u(rng));
          break;
        default:
          busy_us(2.0 * u(rng));
      }
      reqs[static_cast<std::size_t>(i)]->complete(mpi::Status{0, i, 0});
    }
  });
  TestCtx ctx(0);
  int wrong = 0;
  for (int i = 0; i < kRequests; ++i) {
    mpi::Request r(reqs[static_cast<std::size_t>(i)]);
    entered.store(i + 1, std::memory_order_release);
    mpi::Status st;
    mpi::transport_wait(ctx, r, &st, &rec);
    wrong += st.tag != i || r.valid();
  }
  completer.join();
  EXPECT_EQ(wrong, 0);
  const std::uint64_t spins =
      rec.counter(0, obs::Counter::wait_spin_completions);
  const std::uint64_t parks = rec.counter(0, obs::Counter::wait_parks);
  EXPECT_LE(spins + parks, static_cast<std::uint64_t>(kRequests));
  // Completions 100 us after the wait began always find it parked.
  EXPECT_GE(parks, static_cast<std::uint64_t>(kRequests / 16));
  if (can_spin()) {
    EXPECT_GT(spins, 0u);
  } else {
    EXPECT_EQ(spins, 0u);
  }
}

TEST(RequestWait, DeadNodeErrorDuringSpinNamesTheNode) {
  obs::Recorder rec({.ntasks = 1, .num_scopes = 0, .ring_capacity = 0});
  TestCtx ctx(0);
  // Retried until one error lands inside the spin (a descheduled
  // completer can miss it); every attempt must name node 3.
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto st = std::make_shared<mpi::RequestState>();
    mpi::Request r(st);
    std::atomic<bool> waiting{false};
    std::thread killer([&] {
      while (!waiting.load(std::memory_order_acquire)) ult::cpu_relax();
      busy_us(2.0);
      st->complete_error("fabric recv: node 3 unreachable", 3);
    });
    waiting.store(true, std::memory_order_release);
    try {
      mpi::transport_wait(ctx, r, nullptr, &rec);
      ADD_FAILURE() << "a dead-node completion must throw";
    } catch (const mpi::NodeDeadError& e) {
      EXPECT_EQ(e.node(), 3);
      EXPECT_NE(std::string(e.what()).find("node 3"), std::string::npos);
    }
    killer.join();
    if (rec.counter(0, obs::Counter::wait_spin_completions) > 0) break;
  }
  if (can_spin()) {
    EXPECT_GT(rec.counter(0, obs::Counter::wait_spin_completions), 0u);
  }
}

TEST(RequestWait, WaitForTimesOutAroundTheSpinBound) {
  TestCtx ctx(0);
  auto st = std::make_shared<mpi::RequestState>();
  mpi::Request r(st);
  // 0 ms expires before the 50 us spin would end, 2 ms after it: both
  // return false and leave the request pending.
  for (const auto timeout :
       {std::chrono::milliseconds(0), std::chrono::milliseconds(2)}) {
    const auto t0 = Clock::now();
    EXPECT_FALSE(mpi::transport_wait_for(ctx, r, timeout));
    EXPECT_GE(Clock::now() - t0, timeout);
    EXPECT_TRUE(r.valid());
  }
  // A 10 us deadline cuts the spin short: the fastest of several waits
  // returns well before the spin bound.
  auto fastest = Clock::duration::max();
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    EXPECT_FALSE(
        mpi::await_request(ctx, *st, t0 + std::chrono::microseconds(10)));
    const auto took = Clock::now() - t0;
    EXPECT_GE(took, std::chrono::microseconds(10));
    fastest = std::min(fastest, took);
  }
  EXPECT_LT(fastest, std::chrono::microseconds(50));
  // The still-pending request completes normally afterwards.
  std::thread completer([&] {
    busy_us(100.0);
    st->complete(mpi::Status{1, 5, 0});
  });
  mpi::Status out;
  EXPECT_TRUE(
      mpi::transport_wait_for(ctx, r, std::chrono::seconds(30), &out));
  completer.join();
  EXPECT_EQ(out.tag, 5);
  EXPECT_FALSE(r.valid());
}
