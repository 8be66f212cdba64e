#include <gtest/gtest.h>

#include "stats/cdf.h"
#include "stats/convergence.h"
#include "stats/fairness.h"
#include "stats/flow_log.h"
#include "stats/overhead.h"
#include "stats/summary.h"
#include "stats/timeseries.h"
#include "stats/utility_fn.h"

namespace libra {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.range(), 7.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Percentile, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, Validation) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Jain, PerfectFairness) {
  EXPECT_DOUBLE_EQ(jain_index({10, 10, 10}), 1.0);
}

TEST(Jain, TotalUnfairness) {
  // One flow hogging: index -> 1/n.
  EXPECT_NEAR(jain_index({100, 0, 0, 0}), 0.25, 1e-9);
}

TEST(Jain, IntermediateValue) {
  EXPECT_NEAR(jain_index({30, 10}), 0.8, 1e-9);
}

TEST(Jain, Validation) {
  EXPECT_THROW(jain_index({}), std::invalid_argument);
  EXPECT_THROW(jain_index({-1.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(Cdf, FractionBelowAndQuantile) {
  Cdf c;
  for (double v : {1.0, 2.0, 3.0, 4.0}) c.add(v);
  EXPECT_DOUBLE_EQ(c.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(4.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 4.0);
}

TEST(Cdf, Validation) {
  Cdf c;
  EXPECT_THROW(c.fraction_below(1.0), std::logic_error);
  c.add(1.0);
  EXPECT_THROW(c.quantile(1.5), std::invalid_argument);
}

TEST(TimeSeries, SumAndMeanInWindow) {
  TimeSeries ts;
  ts.add(msec(10), 100);
  ts.add(msec(20), 200);
  ts.add(msec(30), 300);
  EXPECT_DOUBLE_EQ(ts.sum_in(msec(10), msec(30)), 300);
  EXPECT_DOUBLE_EQ(ts.mean_in(msec(10), msec(31)), 200);
  EXPECT_DOUBLE_EQ(ts.mean_in(sec(1), sec(2)), 0);
}

TEST(TimeSeries, RateBins) {
  TimeSeries ts;
  // 1250 bytes at t=50ms -> bin 0 carries 10 kbit over 100ms = 100 kbps.
  ts.add(msec(50), 1250);
  auto bins = ts.to_rate_bins(msec(100), msec(300));
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_NEAR(bins[0], 100e3, 1.0);
  EXPECT_DOUBLE_EQ(bins[1], 0.0);
}

TEST(TimeSeries, RateBinsIgnoreOutOfHorizon) {
  TimeSeries ts;
  ts.add(sec(10), 1500);
  auto bins = ts.to_rate_bins(msec(100), sec(1));
  for (double b : bins) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(FlowLog, RejectsTimeGoingBackwardsAndBadPacketSize) {
  FlowLog fl(1500);
  fl.add_ack(msec(10), msec(1));
  fl.add_ack(msec(10), msec(2));  // equal times are fine
  EXPECT_THROW(fl.add_ack(msec(9), msec(1)), std::logic_error);
  fl.add_loss(msec(3));
  EXPECT_THROW(fl.add_loss(msec(2)), std::logic_error);
  EXPECT_EQ(fl.acks().size(), 2u);
  EXPECT_THROW(FlowLog(0), std::invalid_argument);
}

TEST(FlowLog, RttBeyondItsFieldThrows) {
  // An RTT is stored as unsigned 32-bit microseconds (about 71.6 min); a
  // clamp would change the mean RTT, so a value that does not fit throws.
  FlowLog fl(1500);
  const SimDuration max_rtt = 0xFFFFFFFF;
  fl.add_ack(msec(10), max_rtt);
  EXPECT_THROW(fl.add_ack(msec(11), max_rtt + 1), std::out_of_range);
  EXPECT_THROW(fl.add_ack(msec(11), -1), std::out_of_range);
  EXPECT_EQ(fl.acks().size(), 1u);
  EXPECT_DOUBLE_EQ(fl.mean_rtt_ms_in(0, sec(1)), to_msec(max_rtt));
}

TEST(Convergence, DetectsStableSignal) {
  // 2s of ramp then stable at 100 for the rest; bin = 500ms, hold = 5s.
  std::vector<double> bins;
  for (int i = 0; i < 4; ++i) bins.push_back(10.0 + i * 20);
  for (int i = 0; i < 16; ++i) bins.push_back(100.0);
  auto res = analyze_convergence(bins, msec(500));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.convergence_time, sec(2));
  EXPECT_NEAR(res.mean_after, 100.0, 1e-9);
  EXPECT_NEAR(res.stddev_after, 0.0, 1e-9);
}

TEST(Convergence, RejectsOscillation) {
  std::vector<double> bins;
  for (int i = 0; i < 20; ++i) bins.push_back(i % 2 ? 150.0 : 50.0);
  auto res = analyze_convergence(bins, msec(500));
  EXPECT_FALSE(res.converged);
}

TEST(Convergence, ToleratesBandedNoise) {
  std::vector<double> bins;
  for (int i = 0; i < 20; ++i) bins.push_back(i % 2 ? 110.0 : 95.0);  // within 25%
  auto res = analyze_convergence(bins, msec(500));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.convergence_time, 0);
}

TEST(Convergence, EmptyInput) {
  EXPECT_FALSE(analyze_convergence({}, msec(500)).converged);
}

TEST(OverheadMeter, AccumulatesScopes) {
  OverheadMeter m;
  {
    OverheadMeter::Scope s(m);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += i;
  }
  EXPECT_GT(m.busy_nanoseconds(), 0);
  EXPECT_EQ(m.invocations(), 1);
  EXPECT_GT(m.cpu_per_sim_second(sec(1)), 0.0);
  m.reset();
  EXPECT_EQ(m.busy_nanoseconds(), 0);
}

TEST(UtilityFn, RewardsThroughput) {
  UtilityParams p;
  EXPECT_GT(utility(p, 20, 0, 0), utility(p, 10, 0, 0));
}

TEST(UtilityFn, PenalizesRttGradient) {
  UtilityParams p;
  EXPECT_LT(utility(p, 10, 0.1, 0), utility(p, 10, 0.0, 0));
  // Negative gradient (draining queue) is not rewarded, per the max(0, .).
  EXPECT_DOUBLE_EQ(utility(p, 10, -0.5, 0), utility(p, 10, 0.0, 0));
}

TEST(UtilityFn, PenalizesLoss) {
  UtilityParams p;
  EXPECT_LT(utility(p, 10, 0, 0.05), utility(p, 10, 0, 0.0));
}

TEST(UtilityFn, DefaultsMatchPaper) {
  UtilityParams p;
  EXPECT_DOUBLE_EQ(p.t, 0.9);
  EXPECT_DOUBLE_EQ(p.alpha, 1.0);
  EXPECT_DOUBLE_EQ(p.beta, 900.0);
  EXPECT_DOUBLE_EQ(p.gamma, 11.35);
}

TEST(UtilityFn, PreferencePresets) {
  EXPECT_DOUBLE_EQ(throughput_oriented(1).alpha, 2.0);
  EXPECT_DOUBLE_EQ(throughput_oriented(2).alpha, 3.0);
  EXPECT_DOUBLE_EQ(latency_oriented(1).beta, 1800.0);
  EXPECT_DOUBLE_EQ(latency_oriented(2).beta, 2700.0);
}

TEST(UtilityFn, Validation) {
  UtilityParams p;
  p.t = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = UtilityParams{};
  p.beta = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(utility({}, -1, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace libra
