// The benchmark's measurement math on synthetic inputs.
#include <gtest/gtest.h>

#include <numeric>

#include "ledger.hpp"

using perfbench::Span;

TEST(Percentile, NearestRankOnOneToHundred) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_EQ(perfbench::percentile(v, 50), 50.0);
  EXPECT_EQ(perfbench::percentile(v, 90), 90.0);
  EXPECT_EQ(perfbench::percentile(v, 100), 100.0);
  EXPECT_EQ(perfbench::percentile({7.0}, 90), 7.0);
  EXPECT_THROW(perfbench::percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  // p90 of 100 samples leaves exactly 10 above it; of 99, only 9.
  EXPECT_EQ(perfbench::samples_beyond(100, 90), 10u);
  EXPECT_TRUE(perfbench::percentile_supported(100, 90));
  EXPECT_FALSE(perfbench::percentile_supported(99, 90));
  EXPECT_TRUE(perfbench::percentile_supported(20, 50));
  EXPECT_FALSE(perfbench::percentile_supported(0, 50));
  // The samples counted beyond really are above the reported value.
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  const double p90 = perfbench::percentile(v, 90);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p90; }), 10);
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,100) > a [10,40) > b [15,25); root > c [50,90)
  const std::vector<Span> spans = {
      {"bench.phase", 0, 100, -1, -1},
      {"hls.single.exec", 10, 40, 0, 0},
      {"compute.table", 15, 25, 1, 0},
      {"mpi.barrier", 50, 90, 0, 0},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT_EQ(self[0], 100u - 30u - 40u);
  EXPECT_EQ(self[1], 30u - 10u);
  EXPECT_EQ(self[2], 10u);
  EXPECT_EQ(self[3], 40u);
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::uint64_t{0}), 100u);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans = {
      {"bench.step", 0, 10, -1, 0},
      {"mpi.allreduce", 5, 20, 0, 0},
  };
  const auto self = perfbench::self_times(spans);
  EXPECT_EQ(self[0], 5u);
  EXPECT_EQ(self[1], 15u);
}

TEST(ReleaseLatency, ExitMinusLastArrival) {
  // Rank 2 arrives last at 40; exits at 42..45 give 2..5, and the early
  // arrivals' waiting (imbalance) does not count.
  const auto rel = perfbench::release_latency_ns({10, 20, 40, 30}, {42, 43, 44, 45});
  ASSERT_EQ(rel.size(), 4u);
  EXPECT_EQ(rel[0], 2.0);
  EXPECT_EQ(rel[1], 3.0);
  EXPECT_EQ(rel[2], 4.0);
  EXPECT_EQ(rel[3], 5.0);
  EXPECT_THROW(perfbench::release_latency_ns({1, 2}, {3}), std::invalid_argument);
}

TEST(Ledger, ClosesOnSyntheticTrace) {
  // Two ranks, 100 ns phases. Rank 0: compute 30, mpi 50 (with a 10 ns
  // hls child), 20 ns glue. Rank 1: compute 60, hls 30, 10 ns glue. A
  // span before the phase is outside the ledger.
  const std::vector<std::vector<Span>> ranks = {
      {
          {"hls.get_addr.cold", 0, 5, -1, -1},
          {"bench.phase", 10, 110, -1, -1},
          {"bench.step", 10, 110, 1, 0},
          {"compute.sweep", 10, 40, 2, 0},
          {"mpi.barrier", 40, 90, 2, 0},
          {"hls.inner", 50, 60, 4, 0},
      },
      {
          {"bench.phase", 10, 110, -1, -1},
          {"compute.sweep", 10, 70, 0, 0},
          {"hls.barrier", 70, 100, 0, 0},
      },
  };
  perfbench::Ledger led = perfbench::close_ledger(ranks, "bench.phase");
  EXPECT_EQ(led.wall_ns, 200.0);
  EXPECT_EQ(led.layer("compute"), 90.0);
  EXPECT_EQ(led.layer("mpi"), 40.0);
  EXPECT_EQ(led.layer("hls"), 40.0);
  EXPECT_EQ(led.layer("bench"), 30.0);
  EXPECT_EQ(led.accounted_ns(), 170.0);
  EXPECT_DOUBLE_EQ(led.gap_pct(), 15.0);
  // Moving batch-timed time between layers keeps the gap.
  led.reattribute("compute", "hls", 20.0);
  EXPECT_EQ(led.layer("compute"), 70.0);
  EXPECT_EQ(led.layer("hls"), 60.0);
  EXPECT_DOUBLE_EQ(led.gap_pct(), 15.0);
  // Never more than the source layer holds.
  led.reattribute("compute", "hls", 1000.0);
  EXPECT_EQ(led.layer("compute"), 0.0);
  EXPECT_DOUBLE_EQ(led.gap_pct(), 15.0);
}
