// Property-based tests of the invariants the paper proves or relies on:
// Appendix A's game-theoretic properties of the utility function, the
// simulator's conservation laws, determinism, the event queue's ordering
// contract, and the action-map algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "classic/cubic.h"
#include "classic/newreno.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "stats/fairness.h"
#include "stats/utility_fn.h"
#include "util/rng.h"

namespace libra {
namespace {

// ---------------------------------------------------------------------------
// Appendix A: with 0 < t < 1 and positive coefficients, each sender's utility
// is strictly concave in its own rate. Check the discrete second difference
// over random parameter draws and rates.
class UtilityConcavity : public ::testing::TestWithParam<int> {};

TEST_P(UtilityConcavity, SecondDifferenceNegative) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  UtilityParams p;
  p.t = rng.uniform(0.5, 0.99);
  p.alpha = rng.uniform(0.5, 3.0);
  p.beta = rng.uniform(100, 2000);
  p.gamma = rng.uniform(1, 30);
  double grad = rng.uniform(0.0, 0.2);
  double loss = rng.uniform(0.0, 0.2);
  double h = 0.5;
  for (double x = 1.0; x < 100.0; x *= 2.0) {
    double second = utility(p, x + h, grad, loss) - 2 * utility(p, x, grad, loss) +
                    utility(p, x - h, grad, loss);
    EXPECT_LT(second, 0.0) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDraws, UtilityConcavity, ::testing::Range(0, 20));

// Appendix A droptail model: L = 1 - C/S and dRTT/dt = (S-C)/C when S >= C.
// Theorem 4.1: at the symmetric point with S = C, no sender can increase its
// utility by unilateral deviation.
class NashEquilibrium : public ::testing::TestWithParam<int> {};

double droptail_utility(const UtilityParams& p, double xi, double x_others,
                        double capacity) {
  double total = xi + x_others;
  double loss = total >= capacity ? 1.0 - capacity / total : 0.0;
  double grad = total >= capacity ? (total - capacity) / capacity : 0.0;
  return utility(p, xi, grad, loss);
}

TEST_P(NashEquilibrium, UnilateralDeviationNeverWins) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  UtilityParams p;  // paper defaults
  int n = static_cast<int>(rng.uniform_int(2, 8));
  double capacity = rng.uniform(10.0, 100.0);  // Mbps
  double fair = capacity / n;
  double others = fair * (n - 1);

  double u_fair = droptail_utility(p, fair, others, capacity);
  for (double factor : {0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0}) {
    double u_dev = droptail_utility(p, fair * factor, others, capacity);
    EXPECT_LE(u_dev, u_fair + 1e-9)
        << "n=" << n << " C=" << capacity << " factor=" << factor;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGames, NashEquilibrium, ::testing::Range(0, 20));

// Lemma A.1: there is no equilibrium with S < C — any sender can raise its
// utility by sending faster while the link is under-utilized.
TEST(NashEquilibrium, NoEquilibriumBelowCapacity) {
  UtilityParams p;
  double capacity = 48.0;
  for (double xi : {1.0, 5.0, 10.0}) {
    double others = 20.0;  // total stays below capacity after the increase
    double u = droptail_utility(p, xi, others, capacity);
    double u_up = droptail_utility(p, xi + 1.0, others, capacity);
    EXPECT_GT(u_up, u) << "xi=" << xi;
  }
}

// ---------------------------------------------------------------------------
// Simulator conservation: packets sent == acked + lost + in flight, for any
// CCA, loss rate, and buffer size.
struct ConservationCase {
  double loss;
  std::int64_t buffer;
  double rate_mbps;
};

class Conservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(Conservation, SentEqualsAckedPlusLostPlusInflight) {
  auto param = GetParam();
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(param.rate_mbps));
  cfg.buffer_bytes = param.buffer;
  cfg.propagation_delay = msec(10);
  cfg.stochastic_loss = param.loss;
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<NewReno>());
  net.add_flow(std::make_unique<Cubic>(), msec(500));
  net.run_until(sec(6));
  for (int i = 0; i < net.flow_count(); ++i) {
    const Sender& s = net.flow(i).sender();
    std::int64_t inflight = s.bytes_in_flight() / kDefaultPacketBytes;
    EXPECT_EQ(s.packets_sent(), s.packets_acked() + s.packets_lost() + inflight)
        << "flow " << i;
    EXPECT_GE(s.bytes_in_flight(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Conservation,
    ::testing::Values(ConservationCase{0.0, 150000, 24},
                      ConservationCase{0.02, 150000, 24},
                      ConservationCase{0.10, 30000, 12},
                      ConservationCase{0.0, 8000, 6},
                      ConservationCase{0.05, 1000000, 96}));

// ---------------------------------------------------------------------------
// Determinism: identical seeds => identical runs, across loss rates.
class Determinism : public ::testing::TestWithParam<double> {};

TEST_P(Determinism, IdenticalSeedsIdenticalRuns) {
  auto run = [&] {
    LinkConfig cfg;
    cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
    cfg.buffer_bytes = 100000;
    cfg.propagation_delay = msec(10);
    cfg.stochastic_loss = GetParam();
    cfg.seed = 77;
    Network net(std::move(cfg));
    net.add_flow(std::make_unique<Cubic>());
    net.run_until(sec(5));
    const auto& m = net.flow(0).metrics();
    return std::make_tuple(m.packets_sent, m.packets_acked, m.packets_lost,
                           m.rtt_ms.mean());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(LossGrid, Determinism,
                         ::testing::Values(0.0, 0.01, 0.05, 0.10));

// ---------------------------------------------------------------------------
// Action-map algebra (Sec. 4.2): MIMD maps must be positive, monotone in the
// action, and symmetric (a and -a cancel).
class ActionMap : public ::testing::TestWithParam<double> {};

double mimd_orca(double rate, double a) { return rate * std::exp2(a); }
double mimd_aurora(double rate, double a, double delta = 0.025) {
  return a >= 0 ? rate * (1 + delta * a) : rate / (1 - delta * a);
}

TEST_P(ActionMap, OrcaMapSymmetricAndMonotone) {
  double a = GetParam();
  double rate = mbps(10);
  EXPECT_GT(mimd_orca(rate, a), 0);
  EXPECT_NEAR(mimd_orca(mimd_orca(rate, a), -a), rate, 1e-6);
  if (a > 0) EXPECT_GT(mimd_orca(rate, a), rate);
  if (a < 0) EXPECT_LT(mimd_orca(rate, a), rate);
}

TEST_P(ActionMap, AuroraMapSymmetricAndMonotone) {
  double a = GetParam();
  double rate = mbps(10);
  EXPECT_GT(mimd_aurora(rate, a), 0);
  EXPECT_NEAR(mimd_aurora(mimd_aurora(rate, a), -a), rate, 1.0);
  if (a > 0) EXPECT_GT(mimd_aurora(rate, a), rate);
  if (a < 0) EXPECT_LT(mimd_aurora(rate, a), rate);
}

INSTANTIATE_TEST_SUITE_P(Actions, ActionMap,
                         ::testing::Values(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0));

TEST(ActionMap, OrcaBandMatchesPaper) {
  // a in [-2, 2] -> multiplier in [1/4, 4] (the paper's footnote 1).
  EXPECT_DOUBLE_EQ(mimd_orca(1.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(mimd_orca(1.0, -2.0), 0.25);
}

// ---------------------------------------------------------------------------
// Jain's index bounds: 1/n <= J <= 1 for any non-degenerate allocation.
class JainBounds : public ::testing::TestWithParam<int> {};

TEST_P(JainBounds, WithinTheoreticalRange) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  auto n = static_cast<std::size_t>(rng.uniform_int(2, 20));
  std::vector<double> rates(n);
  bool all_zero = true;
  for (double& r : rates) {
    r = rng.uniform(0.0, 100.0);
    all_zero &= r == 0.0;
  }
  if (all_zero) rates[0] = 1.0;
  double j = jain_index(rates);
  EXPECT_GE(j, 1.0 / static_cast<double>(n) - 1e-12);
  EXPECT_LE(j, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomAllocations, JainBounds, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Two identical loss-based flows sharing a droptail bottleneck approach a
// fair share (the classic-CCA property Libra inherits).
class ClassicFairness : public ::testing::TestWithParam<double> {};

TEST_P(ClassicFairness, TwoCubicFlowsShareFairly) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(GetParam()));
  cfg.buffer_bytes = 150000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Cubic>());
  net.add_flow(std::make_unique<Cubic>());
  net.run_until(sec(30));
  double a = net.flow(0).throughput_in(sec(10), sec(30));
  double b = net.flow(1).throughput_in(sec(10), sec(30));
  EXPECT_GT(jain_index({a, b}), 0.9) << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Capacities, ClassicFairness,
                         ::testing::Values(12.0, 24.0, 48.0));

// ---------------------------------------------------------------------------
// Packet lines: random interleavings of closures and line items across
// several lines (equal times, zero delays, random delays that append out of
// order, explicit keys that go backwards) pop in exactly the (time, key)
// order of a closure-only reference queue.
class LineOrdering : public ::testing::TestWithParam<int> {};

TEST_P(LineOrdering, MatchesClosureOnlyReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1);
  EventQueue lined, ref;
  std::vector<std::uint64_t> lined_log, ref_log;
  // Sequence keys start between the two explicit-key ranges, so explicit
  // keys sort both before and after them at equal times.
  std::uint64_t lined_seq = 1u << 20, ref_seq = 1u << 20;
  lined.set_seq_source(&lined_seq);
  ref.set_seq_source(&ref_seq);
  std::vector<std::uint64_t> explicit_keys;
  for (std::uint64_t k = 0; k < 1000; ++k)
    explicit_keys.push_back(k < 500 ? k : (1u << 21) + k);
  std::shuffle(explicit_keys.begin(), explicit_keys.end(), rng.engine());

  constexpr int kLines = 3;
  const SimDuration line_delay[kLines] = {0, msec(1), msec(3)};
  EventQueue::LineId lines[kLines];
  for (EventQueue::LineId& line : lines) {
    line = lined.add_line(
        [](void* log, const Packet& p) {
          static_cast<std::vector<std::uint64_t>*>(log)->push_back(p.seq);
        },
        &lined_log);
  }
  auto logger = [](std::vector<std::uint64_t>& log, std::uint64_t id) {
    return [&log, id] { log.push_back(id); };
  };

  Packet pkt;
  for (int step = 0; step < 2000; ++step) {
    const auto l = static_cast<std::size_t>(rng.uniform_int(0, kLines - 1));
    const EventQueue::LineId line = lines[l];
    const SimDuration jitter = msec(rng.uniform_int(0, 3));
    switch (rng.uniform_int(0, 5)) {
      case 0:  // plain closure
        lined.schedule_in(jitter, logger(lined_log, pkt.seq));
        ref.schedule_in(jitter, logger(ref_log, pkt.seq));
        break;
      case 1:
      case 2:  // the line's own delay: in order unless a case-3 item got ahead
        lined.schedule_line_in(line, line_delay[l], pkt);
        ref.schedule_in(line_delay[l], logger(ref_log, pkt.seq));
        break;
      case 3:  // random delay: often behind the line's tail (fallback)
        lined.schedule_line_in(line, jitter, pkt);
        ref.schedule_in(jitter, logger(ref_log, pkt.seq));
        break;
      case 4: {  // explicit key from a shuffled pool: goes backwards
        const std::uint64_t key = explicit_keys.back();
        explicit_keys.pop_back();
        const SimTime t = lined.now() + jitter;
        lined.schedule_line_keyed(line, t, key, pkt);
        ref.schedule_keyed(t, key, logger(ref_log, pkt.seq));
        break;
      }
      default:
        ASSERT_EQ(lined.run_next(), ref.run_next());
        break;
    }
    ++pkt.seq;
    ASSERT_EQ(lined.pending(), ref.pending());
    ASSERT_EQ(lined.now(), ref.now());
  }
  while (ref.run_next()) {
  }
  while (lined.run_next()) {
  }
  EXPECT_EQ(lined_log, ref_log);
  EXPECT_EQ(lined.processed(), ref.processed());
  EXPECT_EQ(lined.max_pending(), ref.max_pending());
  // Lined closures are all hot-pool sized; cold slots come only from line
  // items that took the fallback.
  EXPECT_GT(lined.cold_slot_count(), 0u) << "the fallback path never ran";
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, LineOrdering, ::testing::Range(0, 20));

TEST(PacketLine, SchedulingInThePastThrows) {
  EventQueue q;
  const EventQueue::LineId line = q.add_line([](void*, const Packet&) {}, nullptr);
  q.schedule_at(msec(5), [] {});
  q.run_until(msec(5));
  EXPECT_THROW(q.schedule_line_keyed(line, msec(4), 0, Packet{}), std::invalid_argument);
  EXPECT_THROW(q.schedule_line_in(line, -1, Packet{}), std::invalid_argument);
  EXPECT_THROW(q.schedule_at(msec(4), [] {}), std::invalid_argument);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace libra
