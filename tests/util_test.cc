#include <gtest/gtest.h>

#include "util/ewma.h"
#include "util/fifo_ring.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/types.h"
#include "util/windowed_filter.h"

namespace libra {
namespace {

TEST(Types, UnitConversions) {
  EXPECT_EQ(msec(5), 5000);
  EXPECT_EQ(sec(2), 2'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_msec(msec(7)), 7.0);
  EXPECT_DOUBLE_EQ(mbps(10), 10e6);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(48)), 48.0);
}

TEST(Types, TransmissionTime) {
  // 1500 bytes at 12 Mbps = 1 ms.
  EXPECT_EQ(transmission_time(1500, mbps(12)), msec(1));
  EXPECT_EQ(transmission_time(1500, 0), kSimTimeMax);
}

TEST(Types, BytesIn) {
  EXPECT_DOUBLE_EQ(bytes_in(sec(1), mbps(8)), 1e6);
  EXPECT_DOUBLE_EQ(bytes_in(msec(100), mbps(8)), 1e5);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.update(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, ConvergesTowardConstant) {
  Ewma e(0.25);
  e.update(0.0);
  for (int i = 0; i < 100; ++i) e.update(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-6);
}

TEST(Ewma, GainControlsSpeed) {
  Ewma fast(0.5), slow(0.05);
  fast.update(0);
  slow.update(0);
  fast.update(100);
  slow.update(100);
  EXPECT_GT(fast.value(), slow.value());
}

TEST(Ewma, ValueOrFallback) {
  Ewma e;
  EXPECT_DOUBLE_EQ(e.value_or(7.0), 7.0);
  e.update(3.0);
  EXPECT_DOUBLE_EQ(e.value_or(7.0), 3.0);
}

TEST(RingBuffer, PushAndIndexOldestFirst) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.at(0), 1);
  EXPECT_EQ(rb.at(1), 2);
  EXPECT_EQ(rb.back(), 2);
}

TEST(RingBuffer, OverwritesOldest) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.at(0), 3);
  EXPECT_EQ(rb.at(1), 4);
  EXPECT_EQ(rb.at(2), 5);
}

TEST(RingBuffer, ThrowsOnBadAccess) {
  RingBuffer<int> rb(2);
  EXPECT_THROW(rb.at(0), std::out_of_range);
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform() != b.uniform()) any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(7);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  // The fork must not replay the parent's stream.
  Rng fresh(5);
  EXPECT_NE(child.uniform(), fresh.uniform());
}

TEST(WindowedFilter, MaxTracksBest) {
  WindowedMax<double> f(100);
  f.update(5.0, 0);
  f.update(3.0, 10);
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
  f.update(9.0, 20);
  EXPECT_DOUBLE_EQ(f.best(), 9.0);
}

TEST(WindowedFilter, MaxExpiresOldBest) {
  WindowedMax<double> f(100);
  f.update(9.0, 0);
  f.update(5.0, 50);
  f.update(4.0, 80);
  // Window has passed since the 9.0 sample: it must fall out.
  f.update(3.0, 150);
  EXPECT_LT(f.best(), 9.0);
}

TEST(WindowedFilter, MinTracksBest) {
  WindowedMin<SimDuration> f(sec(10));
  f.update(msec(50), 0);
  f.update(msec(80), msec(1));
  EXPECT_EQ(f.best(), msec(50));
  f.update(msec(30), msec(2));
  EXPECT_EQ(f.best(), msec(30));
}

TEST(WindowedFilter, InvalidUntilFirstSample) {
  WindowedMax<double> f(10);
  EXPECT_FALSE(f.valid());
  f.update(1.0, 0);
  EXPECT_TRUE(f.valid());
}

TEST(FifoRing, FifoOrderAcrossGrowth) {
  FifoRing<int> q(2);
  for (int i = 0; i < 100; ++i) {
    q.push_back(i);
    EXPECT_EQ(q.back(), i);
  }
  EXPECT_EQ(q.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoRing, InterleavedPushPopWrapsAround) {
  FifoRing<int> q(4);
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    q.push_back(next_in++);
    q.push_back(next_in++);
    EXPECT_EQ(q.front(), next_out);
    q.pop_front();
    ++next_out;
  }
  EXPECT_EQ(q.size(), 50u);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

}  // namespace
}  // namespace libra
