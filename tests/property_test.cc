// Property-based tests of the invariants the paper proves or relies on:
// Appendix A's game-theoretic properties of the utility function, the
// simulator's conservation laws, determinism, the event queue's ordering
// contract, and the action-map algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "classic/cubic.h"
#include "classic/newreno.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "stats/fairness.h"
#include "stats/flow_log.h"
#include "stats/timeseries.h"
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
    const Flow& f = net.flow(0);
    const FlowMetrics m = f.metrics();
    return std::make_tuple(m.packets_sent, m.packets_acked, m.packets_lost,
                           f.mean_rtt_in(0, kSimTimeMax));
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

// ---------------------------------------------------------------------------
// Event queue against an ordered (time, key) reference set. Random scripts
// mix hot and cold closures, explicit keys that go backwards and line items;
// each event's callback schedules 0, 1 or 2 follow-ups. Delays span the
// queue's far-tier window: same instant, sub-tick, exactly kFarWindow - 1,
// kFarWindow and kFarWindow + 1, and seconds ahead. Now and then the script
// drains the queue and leaves only far events, at T and around
// T + kFarWindow, so the refill boundary is hit exactly. run_until and
// run_before stop before, at and across those boundaries. Pop order, now(),
// empty(), pending(), max_pending() and processed() are checked at every
// step, and inside every callback.
class QueueModel : public ::testing::TestWithParam<int> {
 protected:
  using Entry = std::pair<SimTime, std::uint64_t>;

  void SetUp() override {
    rng_ = Rng(static_cast<std::uint64_t>(GetParam()) + 7);
    q_.set_seq_source(&seq_);
    for (std::uint64_t k = 0; k < 4000; ++k) explicit_keys_.push_back(k);
    std::shuffle(explicit_keys_.begin(), explicit_keys_.end(), rng_.engine());
    for (EventQueue::LineId& line : lines_) {
      line = q_.add_line(
          [](void* self, const Packet& p) {
            auto* m = static_cast<QueueModel*>(self);
            m->fire(m->line_items_[p.seq]);
          },
          this);
    }
  }

  SimDuration draw_delay() {
    constexpr SimDuration w = EventQueue::kFarWindow;
    switch (rng_.uniform_int(0, 9)) {
      case 0: return 0;
      case 1: return w - 1;
      case 2: return w;
      case 3: return w + 1;
      case 4: return sec(rng_.uniform_int(1, 3)) + rng_.uniform_int(0, 2);
      default: return usec(rng_.uniform_int(1, msec(12)));
    }
  }

  std::uint64_t explicit_key() {
    if (explicit_keys_.empty()) return seq_++;
    const std::uint64_t key = explicit_keys_.back();
    explicit_keys_.pop_back();
    return key;
  }

  void schedule(SimTime t) {
    const auto line = static_cast<std::size_t>(rng_.uniform_int(0, kLines - 1));
    Entry e{t, seq_};
    switch (rng_.uniform_int(0, 4)) {
      case 0:  // hot closure
        q_.schedule_at(t, [this, e] { fire(e); });
        break;
      case 1: {  // cold closure
        const std::array<std::uint64_t, 4> pad{};
        q_.schedule_at(t, [this, e, pad] { fire(e, pad[0]); });
        break;
      }
      case 2:  // explicit key
        e.second = explicit_key();
        q_.schedule_keyed(t, e.second, [this, e] { fire(e); });
        break;
      case 3:  // line item, sequence key
        q_.schedule_line_in(lines_[line], t - q_.now(), item(e));
        break;
      default:  // line item, explicit key (may fall back to a closure)
        e.second = explicit_key();
        q_.schedule_line_keyed(lines_[line], t, e.second, item(e));
        break;
    }
    ASSERT_TRUE(ref_.insert(e).second) << "duplicate (time, key)";
    ref_max_ = std::max(ref_max_, ref_.size());
  }

  Packet item(const Entry& e) {
    Packet p;
    p.seq = line_items_.size();
    line_items_.push_back(e);
    return p;
  }

  void fire(const Entry& e, std::uint64_t pad = 0) {
    ASSERT_EQ(pad, 0u);
    ASSERT_FALSE(ref_.empty()) << "queue ran an event the reference lacks";
    ASSERT_EQ(*ref_.begin(), e) << "out of order";
    ref_.erase(ref_.begin());
    ref_now_ = e.first;
    ++ref_processed_;
    ASSERT_EQ(q_.now(), e.first);
    ASSERT_EQ(q_.pending(), ref_.size());
    ASSERT_EQ(q_.empty(), ref_.empty());
    const std::int64_t r = rng_.uniform_int(0, 19);
    const int follow_ups = r < 8 ? 0 : r < 17 ? 1 : 2;
    for (int i = 0; i < follow_ups; ++i) schedule(q_.now() + draw_delay());
  }

  // Drains the queue, then leaves only far events: T, T + kFarWindow - 1,
  // T + kFarWindow (the first refill's boundary) and T + kFarWindow + 1.
  void far_only() {
    while (q_.run_next()) {
    }
    const SimTime t = q_.now() + sec(2);
    constexpr SimDuration w = EventQueue::kFarWindow;
    for (SimTime at : {t + w, t, t + w + 1, t + w - 1, t}) schedule(at);
  }

  void check() {
    ASSERT_EQ(q_.now(), ref_now_);
    ASSERT_EQ(q_.empty(), ref_.empty());
    ASSERT_EQ(q_.pending(), ref_.size());
    ASSERT_EQ(q_.max_pending(), ref_max_);
    ASSERT_EQ(q_.processed(), ref_processed_);
  }

  static constexpr int kLines = 3;
  EventQueue q_;
  Rng rng_{0};
  std::uint64_t seq_ = 1u << 20;  // above every explicit key
  std::vector<std::uint64_t> explicit_keys_;
  std::array<EventQueue::LineId, kLines> lines_{};
  std::vector<Entry> line_items_;  // indexed by Packet::seq
  std::set<Entry> ref_;
  SimTime ref_now_ = 0;
  std::size_t ref_max_ = 0;
  std::uint64_t ref_processed_ = 0;
};

TEST_P(QueueModel, MatchesOrderedReference) {
  for (int step = 0; step < 3000; ++step) {
    const std::int64_t op = rng_.uniform_int(0, 99);
    if (op < 45) {
      schedule(q_.now() + draw_delay());
    } else if (op < 75) {
      const bool pending = !ref_.empty();
      ASSERT_EQ(q_.run_next(), pending);
    } else if (op < 86) {
      const SimTime t = q_.now() + draw_delay();
      q_.run_until(t);
      ref_now_ = std::max(ref_now_, t);
      ASSERT_TRUE(ref_.empty() || ref_.begin()->first > t);
    } else if (op < 97) {
      const SimTime t = q_.now() + draw_delay();
      q_.run_before(t);
      ASSERT_TRUE(ref_.empty() || ref_.begin()->first >= t);
    } else {
      far_only();
    }
    if (HasFatalFailure()) return;
    check();
  }
  while (q_.run_next()) {
    if (HasFatalFailure()) return;
  }
  check();
  EXPECT_TRUE(q_.empty());
  EXPECT_FALSE(q_.run_next());
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, QueueModel, ::testing::Range(0, 20));

// The far tier's window saturates at the end of time: events at and just
// below kSimTimeMax, with explicit keys going backwards, still pop in
// (time, key) order.
TEST(EventQueueTiers, EndOfTime) {
  EventQueue q;
  std::vector<std::uint64_t> order;
  auto log = [&order](std::uint64_t id) { return [&order, id] { order.push_back(id); }; };
  q.schedule_keyed(kSimTimeMax, 9, log(4));
  q.schedule_keyed(kSimTimeMax - EventQueue::kFarWindow, 5, log(1));
  q.schedule_keyed(kSimTimeMax, 3, [&] {
    order.push_back(3);
    q.schedule_keyed(kSimTimeMax, 4, log(35));
  });
  q.schedule_keyed(kSimTimeMax - 1, 7, log(2));
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 35, 4}));
  EXPECT_EQ(q.now(), kSimTimeMax);
}

// ---------------------------------------------------------------------------
// Run logs: every windowed query and the rate bins of a FlowLog are bitwise
// equal to a per-packet (time, value) TimeSeries fed the same events — the
// storage it replaced. Several flows with different packet sizes share one
// clock (equal times included) and deliveries are also checked in aggregate,
// as the Network sums them. The event count crosses chunk boundaries.
class FlowLogQueries : public ::testing::TestWithParam<int> {};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The log's rate bins against the ACK series shifted to `origin`.
void expect_same_rate_bins(const FlowLog& log, const TimeSeries& acked, SimDuration bin,
                           SimDuration horizon, SimTime origin) {
  TimeSeries shifted;
  for (const TimeSeries::Point& p : acked.points()) shifted.add(p.time - origin, p.value);
  const std::vector<double> got = log.ack_rate_bins(bin, horizon, origin);
  const std::vector<double> want = shifted.to_rate_bins(bin, horizon);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_bits(got[i], want[i])) << "bin " << i;
}

TEST_P(FlowLogQueries, MatchTimeSeriesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  struct Ref {
    FlowLog log;
    TimeSeries acked, rtt_ms, lost;
  };
  const std::int64_t sizes[] = {kDefaultPacketBytes, 1200,
                                rng.uniform_int(40, 9000)};
  std::vector<Ref> flows;
  for (std::int64_t bytes : sizes) flows.push_back({FlowLog(bytes), {}, {}, {}});
  TimeSeries delivered;  // every flow's deliveries, in time order

  SimTime now = 0;
  std::vector<SimTime> times;
  for (int step = 0; step < 80000; ++step) {
    now += rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, 400);
    Ref& f = flows[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const auto bytes = static_cast<double>(f.log.packet_bytes());
    const std::int64_t kind = rng.uniform_int(0, 9);
    if (kind < 6) {
      const SimDuration rtt = rng.uniform_int(0, msec(400));
      f.log.add_ack(now, rtt);
      f.acked.add(now, bytes);
      f.rtt_ms.add(now, to_msec(rtt));
    } else if (kind < 9) {
      f.log.add_delivery(now);
      delivered.add(now, bytes);
    } else {
      f.log.add_loss(now);
      f.lost.add(now, bytes);
    }
    times.push_back(now);
  }
  ASSERT_GT(flows[0].log.acks().chunk_count(), 1u);

  auto at = [&](std::size_t i) { return times[i % times.size()]; };
  auto any_index = [&] { return static_cast<std::size_t>(rng.uniform_int(0, 1 << 30)); };
  std::vector<std::pair<SimTime, SimTime>> windows = {
      {0, 0},                          // empty
      {msec(50), msec(10)},            // inverted
      {at(777), at(777)},              // zero width on an event time
      {at(1000), at(30000)},           // both ends on event times
      {now, now + 1},                  // the last instant only
      {now + 1, now + sec(1)},         // past the end
      {-sec(1), 0},                    // before the start
      {0, kSimTimeMax},                // everything
  };
  for (int k = 0; k < 60; ++k) {
    const SimTime a = k % 2 ? at(any_index()) : rng.uniform_int(-1000, now + 1000);
    const SimTime b = k % 3 ? at(any_index()) : rng.uniform_int(-1000, now + 1000);
    windows.emplace_back(a, b);
  }
  for (auto [t0, t1] : windows) {
    SCOPED_TRACE(testing::Message() << "[" << t0 << ", " << t1 << ")");
    double delivered_sum = 0.0;
    for (const Ref& f : flows) {
      EXPECT_TRUE(same_bits(f.log.acked_bytes_in(t0, t1), f.acked.sum_in(t0, t1)));
      EXPECT_TRUE(same_bits(f.log.lost_bytes_in(t0, t1), f.lost.sum_in(t0, t1)));
      EXPECT_TRUE(same_bits(f.log.mean_rtt_ms_in(t0, t1), f.rtt_ms.mean_in(t0, t1)));
      delivered_sum += f.log.delivered_bytes_in(t0, t1);
    }
    EXPECT_TRUE(same_bits(delivered_sum, delivered.sum_in(t0, t1)));
  }

  for (int k = 0; k < 12; ++k) {
    // k == 0: 1 µs bins over a short horizon; otherwise at most ~6000 bins.
    const SimDuration bin = k == 0 ? 1 : rng.uniform_int(msec(1), msec(200));
    const SimDuration horizon = rng.uniform_int(1, k == 0 ? 5000 : now + msec(300));
    const SimTime origin = k < 2 ? 0 : k < 6 ? at(any_index()) : rng.uniform_int(-5000, now);
    SCOPED_TRACE(testing::Message() << "bin " << bin << " horizon " << horizon
                                    << " origin " << origin);
    for (const Ref& f : flows) expect_same_rate_bins(f.log, f.acked, bin, horizon, origin);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLogs, FlowLogQueries, ::testing::Range(0, 10));

// The chunk layout itself: gaps longer than a 32-bit µs offset close chunks
// early (some exactly at the largest offset that still fits, some one µs
// past it), runs of equal times straddle chunk boundaries, and windows and
// rate-bin origins sit on every chunk's base time. The test tracks where the
// documented format starts each chunk and checks the log agrees.
class FlowLogChunks : public ::testing::TestWithParam<int> {};

TEST_P(FlowLogChunks, GapsAndBoundariesMatchTimeSeriesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 201);
  constexpr SimDuration kMaxOffset = 0xFFFFFFFF;
  FlowLog log(rng.uniform_int(40, 9000));
  const auto bytes = static_cast<double>(log.packet_bytes());
  TimeSeries acked, rtt_ms, lost, delivered;

  // Expected chunk bases of one stream, and how many of its chunks closed
  // before they were full.
  struct Layout {
    std::size_t capacity;
    std::vector<SimTime> bases;
    std::size_t in_chunk = 0, early = 0;
    void add(SimTime t) {
      const bool full = in_chunk == capacity;
      if (bases.empty() || full || t - bases.back() > kMaxOffset) {
        if (!bases.empty() && !full) ++early;
        bases.push_back(t);
        in_chunk = 0;
      }
      ++in_chunk;
    }
  };
  Layout ack_layout{PackedLog<2>::kChunkRecords, {}};
  Layout delivery_layout{PackedLog<1>::kChunkRecords, {}};

  SimTime now = 0;
  auto ack = [&] {
    // RTTs span the whole field, its largest value included.
    const SimDuration rtt =
        rng.uniform_int(0, 20) == 0 ? kMaxOffset : rng.uniform_int(0, kMaxOffset);
    log.add_ack(now, rtt);
    acked.add(now, bytes);
    rtt_ms.add(now, to_msec(rtt));
    ack_layout.add(now);
  };
  auto deliver = [&] {
    log.add_delivery(now);
    delivered.add(now, bytes);
    delivery_layout.add(now);
  };
  // Six forced jumps, cycling through: to the last time the current ACK
  // chunk can hold, to one µs past it, and a gap of one to three offsets.
  constexpr int kSteps = 100000;
  std::vector<int> jumps;
  for (int i = 0; i < 6; ++i) jumps.push_back(static_cast<int>(rng.uniform_int(0, kSteps - 1)));
  std::sort(jumps.begin(), jumps.end());
  std::size_t next_jump = 0;
  for (int step = 0; step < kSteps; ++step) {
    const bool jump = next_jump < jumps.size() && jumps[next_jump] == step;
    if (jump) {
      if (next_jump % 3 == 2 || ack_layout.bases.empty())
        now += rng.uniform_int(kMaxOffset, 3 * kMaxOffset);
      else
        now = std::max(now, ack_layout.bases.back() + kMaxOffset + SimDuration(next_jump % 3));
      ++next_jump;
    } else if (rng.uniform_int(0, 3) != 0) {
      now += rng.uniform_int(1, 400);
    }
    const std::int64_t kind = jump ? 0 : rng.uniform_int(0, 9);  // an ACK lands on each jump
    if (kind < 6) {
      // A chunk about to fill gets a run of equal times across its end.
      const int n = ack_layout.in_chunk + 1 == ack_layout.capacity ? 3 : 1;
      for (int i = 0; i < n; ++i) ack();
    } else if (kind < 9) {
      const int n = delivery_layout.in_chunk + 1 == delivery_layout.capacity ? 3 : 1;
      for (int i = 0; i < n; ++i) deliver();
    } else {
      log.add_loss(now);
      lost.add(now, bytes);
    }
  }
  ASSERT_EQ(log.acks().chunk_count(), ack_layout.bases.size());
  ASSERT_EQ(log.deliveries().chunk_count(), delivery_layout.bases.size());
  ASSERT_GT(ack_layout.early, 0u);
  ASSERT_GT(ack_layout.bases.size(), ack_layout.early + 2);  // some full chunks too
  ASSERT_GT(delivery_layout.early, 0u);

  std::vector<SimTime> bases = ack_layout.bases;
  bases.insert(bases.end(), delivery_layout.bases.begin(), delivery_layout.bases.end());
  auto any_base = [&] {
    const auto last = static_cast<std::int64_t>(bases.size()) - 1;
    return bases[static_cast<std::size_t>(rng.uniform_int(0, last))];
  };
  std::vector<std::pair<SimTime, SimTime>> windows = {{0, kSimTimeMax}, {now, now + 1}};
  for (SimTime b : bases) {
    for (SimTime w : {b - 1, b, b + 1}) {
      windows.emplace_back(w, w + 1);
      windows.emplace_back(0, w);
      windows.emplace_back(w, kSimTimeMax);
    }
    windows.emplace_back(b, any_base());
    windows.emplace_back(rng.uniform_int(0, now), b);
  }
  for (auto [t0, t1] : windows) {
    SCOPED_TRACE(testing::Message() << "[" << t0 << ", " << t1 << ")");
    EXPECT_TRUE(same_bits(log.acked_bytes_in(t0, t1), acked.sum_in(t0, t1)));
    EXPECT_TRUE(same_bits(log.lost_bytes_in(t0, t1), lost.sum_in(t0, t1)));
    EXPECT_TRUE(same_bits(log.delivered_bytes_in(t0, t1), delivered.sum_in(t0, t1)));
    EXPECT_TRUE(same_bits(log.mean_rtt_ms_in(t0, t1), rtt_ms.mean_in(t0, t1)));
  }

  for (int k = 0; k < 24; ++k) {
    // Fine bins near an origin, or bins wide enough to span the long gaps;
    // at most 4000 bins either way.
    const SimDuration bin =
        k % 2 ? rng.uniform_int(1, msec(200)) : rng.uniform_int(sec(1), sec(3000));
    const SimDuration horizon = rng.uniform_int(1, 4000 * bin);
    const SimTime origin = k % 3 ? any_base() : any_base() + rng.uniform_int(-1, 1);
    SCOPED_TRACE(testing::Message() << "bin " << bin << " horizon " << horizon
                                    << " origin " << origin);
    expect_same_rate_bins(log, acked, bin, horizon, origin);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGappedLogs, FlowLogChunks, ::testing::Range(0, 4));

}  // namespace
}  // namespace libra
