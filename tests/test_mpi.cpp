#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <type_traits>
#include <vector>

#include "mpi/runtime.hpp"
#include "topo/topology.hpp"

namespace mpi = hlsmpc::mpi;
namespace topo = hlsmpc::topo;
using hlsmpc::ult::TaskContext;

namespace {

mpi::Options opts(int nranks, mpi::ExecutorKind exec) {
  mpi::Options o;
  o.nranks = nranks;
  o.executor = exec;
  return o;
}

struct Param {
  int nranks;
  mpi::ExecutorKind exec;
};

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return std::to_string(info.param.nranks) + "ranks_" +
         (info.param.exec == mpi::ExecutorKind::thread ? "thread" : "fiber");
}

class MpiParam : public testing::TestWithParam<Param> {
 protected:
  topo::Machine machine_ = topo::Machine::nehalem_ex(2);
  mpi::Runtime rt_{machine_, opts(GetParam().nranks, GetParam().exec)};
};

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpiParam,
    testing::Values(Param{1, mpi::ExecutorKind::thread},
                    Param{2, mpi::ExecutorKind::thread},
                    Param{5, mpi::ExecutorKind::thread},
                    Param{8, mpi::ExecutorKind::thread},
                    Param{2, mpi::ExecutorKind::fiber},
                    Param{7, mpi::ExecutorKind::fiber},
                    Param{16, mpi::ExecutorKind::fiber}),
    param_name);

TEST_P(MpiParam, RankAndSize) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  std::atomic<int> seen{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    if (world.size() != n) ++bad;
    const int r = world.rank(ctx);
    if (r < 0 || r >= n) ++bad;
    seen.fetch_add(1 << world.rank(ctx) % 30, std::memory_order_relaxed);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, RingSendRecv) {
  const int n = GetParam().nranks;
  if (n < 2) GTEST_SKIP();
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const int next = (me + 1) % n;
    const int prev = (me - 1 + n) % n;
    // Odd/even ordering to avoid relying on buffering.
    int got = -1;
    if (me % 2 == 0) {
      world.send_value(ctx, me, next, 7);
      got = world.recv_value<int>(ctx, prev, 7);
    } else {
      got = world.recv_value<int>(ctx, prev, 7);
      world.send_value(ctx, me, next, 7);
    }
    if (got != prev) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, Barrier) {
  const int n = GetParam().nranks;
  std::atomic<int> phase_counter{0};
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    for (int phase = 0; phase < 4; ++phase) {
      phase_counter.fetch_add(1);
      world.barrier(ctx);
      // After the barrier, every rank must have contributed to this phase.
      if (phase_counter.load() < (phase + 1) * n) ++bad;
      world.barrier(ctx);
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, BcastFromEveryRoot) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    for (int root = 0; root < n; ++root) {
      std::vector<double> data(64, me == root ? root * 1.5 : -1.0);
      world.bcast(ctx, std::span<double>(data), root);
      for (double v : data) {
        if (v != root * 1.5) ++bad;
      }
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, ReduceAndAllreduce) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const long expected_sum = static_cast<long>(n) * (n - 1) / 2;
    // reduce to each root
    for (int root = 0; root < n; ++root) {
      std::vector<long> in = {static_cast<long>(me), static_cast<long>(2 * me)};
      std::vector<long> out(2, -1);
      world.reduce(ctx, std::span<const long>(in), std::span<long>(out),
                   mpi::Op::sum, root);
      if (me == root) {
        if (out[0] != expected_sum || out[1] != 2 * expected_sum) ++bad;
      }
    }
    const int mx = world.allreduce_value(ctx, me * me, mpi::Op::max);
    if (mx != (n - 1) * (n - 1)) ++bad;
    const int mn = world.allreduce_value(ctx, me + 10, mpi::Op::min);
    if (mn != 10) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, GatherScatterAllgather) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    // gather
    const int root = n - 1;
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    world.gather(ctx, &me, sizeof(int), all.data(), root);
    if (me == root) {
      for (int r = 0; r < n; ++r) {
        if (all[static_cast<std::size_t>(r)] != r) ++bad;
      }
    }
    // scatter back doubled values
    if (me == root) {
      for (int r = 0; r < n; ++r) all[static_cast<std::size_t>(r)] = 2 * r;
    }
    int mine = -1;
    world.scatter(ctx, all.data(), sizeof(int), &mine, root);
    if (mine != 2 * me) ++bad;
    // allgather
    std::vector<int> everyone(static_cast<std::size_t>(n), -1);
    const int token = me + 100;
    world.allgather(ctx, &token, sizeof(int), everyone.data());
    for (int r = 0; r < n; ++r) {
      if (everyone[static_cast<std::size_t>(r)] != r + 100) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, Alltoall) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    std::vector<int> out(static_cast<std::size_t>(n));
    std::vector<int> in(static_cast<std::size_t>(n), -1);
    for (int r = 0; r < n; ++r) {
      out[static_cast<std::size_t>(r)] = me * 1000 + r;  // block for rank r
    }
    world.alltoall(ctx, out.data(), sizeof(int), in.data());
    for (int r = 0; r < n; ++r) {
      if (in[static_cast<std::size_t>(r)] != r * 1000 + me) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, Scan) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const long prefix = world.scan_value(ctx, static_cast<long>(me + 1),
                                         mpi::Op::sum);
    const long expected = static_cast<long>(me + 1) * (me + 2) / 2;
    if (prefix != expected) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
  (void)n;
}

TEST_P(MpiParam, SplitEvenOdd) {
  const int n = GetParam().nranks;
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    mpi::Comm& half = world.split(ctx, me % 2, me);
    const int expected_size = n / 2 + ((me % 2 == 0) ? n % 2 : 0);
    if (half.size() != expected_size) ++bad;
    if (half.rank(ctx) != me / 2) ++bad;
    // The sub-communicator must be fully functional.
    const int sum = half.allreduce_value(ctx, 1, mpi::Op::sum);
    if (sum != expected_size) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST_P(MpiParam, DupIsIndependent) {
  std::atomic<int> bad{0};
  rt_.run([&](mpi::Comm& world, TaskContext& ctx) {
    mpi::Comm& copy = world.dup(ctx);
    if (copy.size() != world.size()) ++bad;
    if (copy.rank(ctx) != world.rank(ctx)) ++bad;
    if (&copy == &world) ++bad;
    copy.barrier(ctx);
  });
  EXPECT_EQ(bad.load(), 0);
}

// ---- non-parameterized behaviour tests ----

namespace {
topo::Machine mach2() { return topo::Machine::nehalem_ex(1); }
}  // namespace

TEST(Mpi, AnySourceAnyTag) {
  mpi::Runtime rt(mach2(), opts(4, mpi::ExecutorKind::thread));
  std::atomic<int> sum{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      for (int i = 0; i < 3; ++i) {
        mpi::Status st;
        const int v =
            world.recv_value<int>(ctx, mpi::kAnySource, mpi::kAnyTag, &st);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        sum += v;
      }
    } else {
      world.send_value(ctx, me * 10 + me, 0, me);
    }
  });
  EXPECT_EQ(sum.load(), 11 + 22 + 33);
}

TEST(Mpi, MessageOrderingIsFifoPerPair) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    constexpr int kN = 100;
    if (me == 0) {
      for (int i = 0; i < kN; ++i) world.send_value(ctx, i, 1, 5);
    } else {
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(world.recv_value<int>(ctx, 0, 5), i);
      }
    }
  });
}

TEST(Mpi, TagSelectivityAcrossInterleavedStreams) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      world.send_value(ctx, 111, 1, /*tag=*/1);
      world.send_value(ctx, 222, 1, /*tag=*/2);
      world.send_value(ctx, 112, 1, /*tag=*/1);
    } else {
      // Drain tag 2 first even though it arrived second.
      EXPECT_EQ(world.recv_value<int>(ctx, 0, 2), 222);
      EXPECT_EQ(world.recv_value<int>(ctx, 0, 1), 111);
      EXPECT_EQ(world.recv_value<int>(ctx, 0, 1), 112);
    }
  });
}

TEST(Mpi, RendezvousLargeMessage) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  const std::size_t big = rt.buffers().eager_threshold() * 4 + 13;
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      std::vector<std::uint8_t> data(big);
      for (std::size_t i = 0; i < big; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 7);
      }
      // Send before the receive is posted (the barrier orders them): a
      // receive posted first would take the direct-copy path instead.
      mpi::Request s = world.isend(ctx, data.data(), big, 1, 0);
      world.barrier(ctx);
      world.wait(ctx, s);
    } else {
      std::vector<std::uint8_t> data(big, 0);
      mpi::Status st;
      world.barrier(ctx);
      world.recv(ctx, data.data(), big, 0, 0, &st);
      EXPECT_EQ(st.bytes, big);
      for (std::size_t i = 0; i < big; i += 997) {
        ASSERT_EQ(data[i], static_cast<std::uint8_t>(i * 7));
      }
    }
  });
  EXPECT_GE(rt.stats().rendezvous_sends.load(), 1u);
}

TEST(Mpi, IsendIrecvWaitAndTest) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      int payload = 99;
      mpi::Request s = world.isend(ctx, &payload, sizeof(int), 1, 3);
      world.wait(ctx, s);
    } else {
      int out = 0;
      mpi::Request r = world.irecv(ctx, &out, sizeof(int), 0, 3);
      while (!world.test(r)) ctx.yield();
      EXPECT_EQ(out, 99);
    }
  });
}

TEST(Mpi, ProbeReportsSizeWithoutConsuming) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      std::vector<int> v = {1, 2, 3, 4};
      world.send(ctx, v.data(), v.size() * sizeof(int), 1, 9);
    } else {
      mpi::Status st;
      world.probe(ctx, 0, 9, &st);
      EXPECT_EQ(st.bytes, 4 * sizeof(int));
      EXPECT_EQ(st.source, 0);
      std::vector<int> v(st.bytes / sizeof(int));
      world.recv(ctx, v.data(), st.bytes, 0, 9);
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(Mpi, TruncationRaisesOnReceiver) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  std::atomic<bool> threw{false};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      std::vector<int> v(8, 1);
      try {
        world.send(ctx, v.data(), v.size() * sizeof(int), 1, 0);
      } catch (const mpi::MpiError&) {
        // Sender may or may not observe the failure depending on protocol.
      }
    } else {
      int small = 0;
      try {
        world.recv(ctx, &small, sizeof(int), 0, 0);
      } catch (const mpi::MpiError&) {
        threw = true;
      }
    }
  });
  EXPECT_TRUE(threw.load());
}

TEST(Mpi, SendrecvExchangesWithoutDeadlock) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const int other = 1 - me;
    // Both sides exchange simultaneously with large (rendezvous) payloads.
    std::vector<double> out(4096, me + 0.5);
    std::vector<double> in(4096, -1);
    world.sendrecv(ctx, out.data(), out.size() * sizeof(double), other, 0,
                   in.data(), in.size() * sizeof(double), other, 0);
    EXPECT_EQ(in[0], other + 0.5);
    EXPECT_EQ(in[4095], other + 0.5);
  });
}

TEST(Mpi, SameAddressCopyIsElided) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  static std::vector<int> shared_image(50000, 0);  // stands in for HLS image
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 1) {
      // Sender's region is the same memory the receiver will target.
      for (int i = 25000; i < 50000; ++i) shared_image[static_cast<std::size_t>(i)] = i;
      world.send(ctx, shared_image.data() + 25000, 25000 * sizeof(int), 0, 0);
    } else {
      world.recv(ctx, shared_image.data() + 25000, 25000 * sizeof(int), 1, 0);
      EXPECT_EQ(shared_image[30000], 30000);
    }
  });
  EXPECT_EQ(rt.stats().copies_elided.load(), 1u);
}

TEST(Mpi, BufferPolicyPooledVsPerPair) {
  using hlsmpc::memtrack::Category;
  // MPC-like pooled policy: small reservation independent of job size.
  mpi::Options pooled = opts(8, mpi::ExecutorKind::thread);
  pooled.buffers.kind = mpi::BufferPolicyKind::pooled;
  pooled.total_ranks = 736;
  hlsmpc::memtrack::Tracker t1;
  {
    mpi::Runtime rt(mach2(), pooled, &t1);
    const std::size_t pooled_bytes = t1.current(Category::runtime_buffers);
    EXPECT_EQ(pooled_bytes,
              pooled.buffers.eager_buffer_bytes *
                  static_cast<std::size_t>(pooled.buffers.pool_initial));
  }

  // Open-MPI-like per-pair policy: reservation grows with total job size.
  mpi::Options aggressive = opts(8, mpi::ExecutorKind::thread);
  aggressive.buffers.kind = mpi::BufferPolicyKind::per_pair;
  aggressive.total_ranks = 736;
  hlsmpc::memtrack::Tracker t2;
  {
    mpi::Runtime rt(mach2(), aggressive, &t2);
    const std::size_t per_pair_bytes = t2.current(Category::runtime_buffers);
    EXPECT_EQ(per_pair_bytes,
              aggressive.buffers.per_pair_bytes * 8u * 735u +
                  aggressive.buffers.eager_buffer_bytes *
                      static_cast<std::size_t>(aggressive.buffers.pool_initial));
    EXPECT_GT(per_pair_bytes, t1.peak_total());
  }
  // Both release everything at teardown.
  EXPECT_EQ(t1.current_total(), 0u);
  EXPECT_EQ(t2.current_total(), 0u);
}

TEST(Mpi, PoolGrowsUnderUnexpectedTraffic) {
  mpi::Options o = opts(2, mpi::ExecutorKind::thread);
  o.buffers.pool_initial = 1;
  mpi::Runtime rt(mach2(), o);
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      for (int i = 0; i < 32; ++i) world.send_value(ctx, i, 1, 0);
      world.barrier(ctx);
    } else {
      world.barrier(ctx);  // force all 32 to be buffered as unexpected
      for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(world.recv_value<int>(ctx, 0, 0), i);
      }
    }
  });
  EXPECT_GE(rt.buffers().bytes_reserved(),
            32u * o.buffers.eager_buffer_bytes);
  EXPECT_EQ(rt.buffers().leased(), 0);
}

TEST(Mpi, ErrorsOnBadArguments) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  std::atomic<int> caught{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    if (world.rank(ctx) != 0) return;
    int v = 0;
    try {
      world.send_value(ctx, v, 5, 0);  // no rank 5
    } catch (const mpi::MpiError&) {
      ++caught;
    }
    try {
      world.send_value(ctx, v, 1, -3);  // negative tag
    } catch (const mpi::MpiError&) {
      ++caught;
    }
    try {
      mpi::Request bad;
      world.wait(ctx, bad);
    } catch (const mpi::MpiError&) {
      ++caught;
    }
  });
  EXPECT_EQ(caught.load(), 3);
}

TEST(Mpi, RuntimeValidatesOptions) {
  mpi::Options o;
  o.nranks = 8;
  o.total_ranks = 4;  // smaller than local
  EXPECT_THROW(mpi::Runtime(mach2(), o), mpi::MpiError);
}

TEST(Mpi, WaitallCompletesMixedRequests) {
  mpi::Runtime rt(mach2(), opts(3, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      std::vector<int> in(2, -1);
      std::vector<mpi::Request> reqs;
      reqs.push_back(world.irecv(ctx, &in[0], sizeof(int), 1, 0));
      reqs.push_back(world.irecv(ctx, &in[1], sizeof(int), 2, 0));
      reqs.push_back(mpi::Request{});  // inactive entries are skipped
      world.waitall(ctx, reqs);
      EXPECT_EQ(in[0], 10);
      EXPECT_EQ(in[1], 20);
    } else {
      world.send_value(ctx, me * 10, 0, 0);
    }
  });
}

TEST(Mpi, WaitanyReturnsACompletedIndex) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    if (me == 0) {
      int a = -1, b = -1;
      std::vector<mpi::Request> reqs;
      reqs.push_back(world.irecv(ctx, &a, sizeof(int), 1, 7));
      reqs.push_back(world.irecv(ctx, &b, sizeof(int), 1, 8));
      world.barrier(ctx);  // tag 8 sent before, tag 7 only after the ack
      mpi::Status st;
      const int idx = world.waitany(ctx, reqs, &st);
      EXPECT_EQ(idx, 1);
      EXPECT_EQ(b, 99);
      EXPECT_EQ(st.tag, 8);
      EXPECT_FALSE(reqs[1].valid());
      world.send_value(ctx, 0, 1, 9);  // ack: now release the other send
      world.wait(ctx, reqs[0]);
      EXPECT_EQ(a, 1);
    } else {
      world.send_value(ctx, 99, 0, 8);
      world.barrier(ctx);
      (void)world.recv_value<int>(ctx, 0, 9);
      world.send_value(ctx, 1, 0, 7);
    }
  });
}

TEST(Mpi, WaitanyAllInvalidThrows) {
  mpi::Runtime rt(mach2(), opts(1, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    std::vector<mpi::Request> reqs(3);
    EXPECT_THROW(world.waitany(ctx, reqs), mpi::MpiError);
  });
}

TEST(Mpi, SelfSendRecvWorks) {
  mpi::Runtime rt(mach2(), opts(2, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    // Self messaging through the deadlock-free nonblocking shape.
    int out = 100 + me, in = -1;
    mpi::Request r = world.irecv(ctx, &in, sizeof(int), me, 1);
    mpi::Request s = world.isend(ctx, &out, sizeof(int), me, 1);
    world.wait(ctx, s);
    world.wait(ctx, r);
    EXPECT_EQ(in, 100 + me);
  });
}

TEST(Mpi, ZeroByteCollectives) {
  mpi::Runtime rt(mach2(), opts(4, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    world.bcast(ctx, nullptr, 0, 0);
    world.gather(ctx, nullptr, 0, nullptr, 0);
    world.allgather(ctx, nullptr, 0, nullptr);
    world.alltoall(ctx, nullptr, 0, nullptr);
    world.barrier(ctx);
  });
}

TEST(Mpi, GathervVariableSizes) {
  mpi::Runtime rt(mach2(), opts(4, mpi::ExecutorKind::thread));
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const int n = world.size();
    // Rank r contributes r+1 ints.
    std::vector<std::size_t> counts, displs;
    std::size_t off = 0;
    for (int r = 0; r < n; ++r) {
      counts.push_back(static_cast<std::size_t>(r + 1) * sizeof(int));
      displs.push_back(off);
      off += counts.back();
    }
    std::vector<int> mine(static_cast<std::size_t>(me + 1), me);
    std::vector<int> all(off / sizeof(int), -1);
    world.gatherv(ctx, mine.data(), mine.size() * sizeof(int), all.data(),
                  counts, displs, 2);
    if (me == 2) {
      std::size_t idx = 0;
      for (int r = 0; r < n; ++r) {
        for (int k = 0; k <= r; ++k) {
          EXPECT_EQ(all[idx++], r);
        }
      }
    }
  });
}

TEST(Mpi, ExscanMatchesPrefixSums) {
  mpi::Runtime rt(mach2(), opts(5, mpi::ExecutorKind::thread));
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const long ex = world.exscan_value(ctx, static_cast<long>(me + 1),
                                       mpi::Op::sum, -1L);
    if (me == 0) {
      if (ex != -1) ++bad;  // rank 0's buffer untouched (identity passed)
    } else {
      if (ex != static_cast<long>(me) * (me + 1) / 2) ++bad;
    }
    // Cross-check: inclusive == exclusive + own.
    const long inc = world.scan_value(ctx, static_cast<long>(me + 1),
                                      mpi::Op::sum);
    if (me > 0 && inc != ex + me + 1) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Mpi, ReduceScatterBlock) {
  mpi::Runtime rt(mach2(), opts(4, mpi::ExecutorKind::thread));
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const int n = world.size();
    // Rank r contributes vector v[j] = r + j over n*2 elements.
    std::vector<long> in(static_cast<std::size_t>(n) * 2);
    for (std::size_t j = 0; j < in.size(); ++j) {
      in[j] = me + static_cast<long>(j);
    }
    std::vector<long> out(2, -1);
    world.reduce_scatter_block(ctx, in.data(), out.data(), 2, sizeof(long),
                               mpi::make_reduce_fn<long>(mpi::Op::sum));
    // Sum over ranks of (r + j) = n*j + n(n-1)/2, my blocks are
    // j = 2*me, 2*me+1.
    for (int k = 0; k < 2; ++k) {
      const long j = 2 * me + k;
      if (out[static_cast<std::size_t>(k)] != 4 * j + 6) ++bad;
    }
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Mpi, AllreduceInPlaceAliasing) {
  mpi::Runtime rt(mach2(), opts(4, mpi::ExecutorKind::thread));
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    std::vector<long> buf = {static_cast<long>(me), 10 + me};
    // sendbuf == recvbuf, the MPI_IN_PLACE pattern.
    world.allreduce(ctx, buf.data(), buf.data(), 2, sizeof(long),
                    mpi::make_reduce_fn<long>(mpi::Op::sum));
    if (buf[0] != 6 || buf[1] != 46) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Mpi, AllreduceCustomOperator) {
  mpi::Runtime rt(mach2(), opts(4, mpi::ExecutorKind::thread));
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    struct MaxLoc {
      double value;
      int rank;
    };
    const MaxLoc mine{me == 2 ? 100.0 : static_cast<double>(me), me};
    MaxLoc out{};
    std::span<const MaxLoc> in(&mine, 1);
    world.allreduce_custom(ctx, in, std::span<MaxLoc>(&out, 1),
                           [](MaxLoc& a, const MaxLoc& b) {
                             if (b.value > a.value) a = b;
                           });
    if (out.rank != 2 || out.value != 100.0) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

namespace {

// Operand values for the fold conformance sweep. Signed integers stay in
// a range where one sum or product cannot overflow; floats include the
// signed zeros, infinities and a NaN, where min/max/land/lor are touchiest.
template <typename T>
std::vector<T> fold_operands(std::size_t count, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<T> v(count);
  for (T& x : v) {
    const std::uint64_t r = gen();
    if constexpr (std::is_floating_point_v<T>) {
      constexpr T kSpecial[] = {T{0},
                                -T{0},
                                T{1},
                                std::numeric_limits<T>::infinity(),
                                -std::numeric_limits<T>::infinity(),
                                std::numeric_limits<T>::quiet_NaN()};
      x = (r % 4 == 0) ? kSpecial[(r >> 8) % std::size(kSpecial)]
                       : static_cast<T>(static_cast<std::int64_t>(r >> 40) -
                                        (std::int64_t{1} << 23)) /
                             T{64};
    } else if constexpr (std::is_signed_v<T>) {
      x = static_cast<T>(static_cast<std::int64_t>(r % 60001) - 30000);
      if (r % 7 == 0) x = 0;
    } else {
      x = static_cast<T>(r % 3 == 0 ? 0 : r);
    }
  }
  return v;
}

// make_reduce_fn<T>(op) against a per-element apply_op reference: the
// same bytes, or an MpiError on exactly the same calls.
template <typename T>
int fold_mismatches(mpi::Op op, std::size_t count, std::uint64_t seed) {
  const std::vector<T> in = fold_operands<T>(count, seed);
  std::vector<T> want = fold_operands<T>(count, seed + 1);
  std::vector<T> got = want;
  bool want_threw = false;
  bool got_threw = false;
  try {
    for (std::size_t i = 0; i < count; ++i) mpi::apply_op(op, want[i], in[i]);
  } catch (const mpi::MpiError&) {
    want_threw = true;
  }
  try {
    mpi::make_reduce_fn<T>(op)(got.data(), in.data(), count);
  } catch (const mpi::MpiError&) {
    got_threw = true;
  }
  if (want_threw != got_threw) return 1;
  if (want_threw || count == 0) return 0;
  return std::memcmp(want.data(), got.data(), count * sizeof(T)) == 0 ? 0 : 1;
}

template <typename T>
int fold_sweep() {
  int bad = 0;
  for (const mpi::Op op :
       {mpi::Op::sum, mpi::Op::prod, mpi::Op::min, mpi::Op::max,
        mpi::Op::land, mpi::Op::lor, mpi::Op::band, mpi::Op::bor}) {
    const auto seed = static_cast<std::uint64_t>(op) * 1000;
    for (std::size_t count = 0; count <= 67; ++count) {
      bad += fold_mismatches<T>(op, count, seed + count);
    }
    bad += fold_mismatches<T>(op, (std::size_t{1} << 20) / sizeof(T), seed);
  }
  return bad;
}

}  // namespace

TEST(Mpi, ReduceFnMatchesApplyOpBitForBit) {
  EXPECT_EQ(fold_sweep<std::int32_t>(), 0);
  EXPECT_EQ(fold_sweep<std::uint64_t>(), 0);
  EXPECT_EQ(fold_sweep<float>(), 0);
  EXPECT_EQ(fold_sweep<double>(), 0);
}

TEST(Mpi, ReduceFnBitwiseOnFloatingThrowsLikeApplyOp) {
  // Construction never throws; a call throws iff it folds an element.
  for (const mpi::Op op : {mpi::Op::band, mpi::Op::bor}) {
    const mpi::ReduceFn fn = mpi::make_reduce_fn<double>(op);
    double a = 1.0;
    const double b = 2.0;
    EXPECT_NO_THROW(fn(&a, &b, 0));
    EXPECT_THROW(fn(&a, &b, 1), mpi::MpiError);
    EXPECT_THROW(mpi::apply_op(op, a, b), mpi::MpiError);
  }
}

TEST(Mpi, SplitOfSplitWorks) {
  mpi::Runtime rt(mach2(), opts(8, mpi::ExecutorKind::thread));
  std::atomic<int> bad{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    mpi::Comm& half = world.split(ctx, me / 4, me);  // two groups of 4
    mpi::Comm& quarter = half.split(ctx, half.rank(ctx) / 2, me);
    if (quarter.size() != 2) ++bad;
    const int sum = quarter.allreduce_value(ctx, me, mpi::Op::sum);
    // Partners are consecutive world ranks {0,1},{2,3},...
    if (sum != (me / 2) * 4 + 1) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(Mpi, StressManyMessagesFiberBackend) {
  mpi::Options o = opts(6, mpi::ExecutorKind::fiber);
  o.fiber_workers = 2;
  mpi::Runtime rt(mach2(), o);
  std::atomic<long> total{0};
  rt.run([&](mpi::Comm& world, TaskContext& ctx) {
    const int me = world.rank(ctx);
    const int n = world.size();
    long local = 0;
    for (int round = 0; round < 20; ++round) {
      const int dst = (me + round + 1) % n;
      const int src = ((me - round - 1) % n + n) % n;
      int got = -1;
      world.sendrecv(ctx, &me, sizeof(int), dst, round, &got, sizeof(int),
                     src, round);
      local += got;
    }
    total += local;
  });
  // Every rank id was received exactly 20 times.
  EXPECT_EQ(total.load(), 20 * (0 + 1 + 2 + 3 + 4 + 5));
}
