// Thread pool unit tests and the parallel experiment engine's determinism
// guarantee: run_many() must be bitwise-identical to serial execution.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "classic/cubic.h"
#include "core/factory.h"
#include "harness/parallel.h"
#include "harness/scenario.h"
#include "harness/trainer.h"
#include "harness/zoo.h"
#include "learned/libra_rl.h"
#include "util/thread_pool.h"

namespace libra {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitForwardsArguments) {
  ThreadPool pool(2);
  auto fut = pool.submit([](int a, int b) { return a + b; }, 40, 2);
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(0, 16,
                                 [&](std::size_t i) {
                                   if (i == 7) throw std::logic_error("task 7");
                                   completed.fetch_add(1);
                                 }),
               std::logic_error);
  EXPECT_EQ(completed.load(), 15);  // the batch still drains
}

TEST(ThreadPool, ForkJoinCoversRangeExactlyOnceRepeatedly) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  auto bump = [](void* ctx, std::size_t i) {
    (*static_cast<std::vector<std::atomic<int>>*>(ctx))[i].fetch_add(1);
  };
  for (int round = 0; round < 200; ++round) pool.fork_join(kN, bump, &hits);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 200) << i;
  pool.fork_join(0, bump, &hits);  // empty range: no-op
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);  // task queue still works
}

TEST(ThreadPool, ForkJoinRethrowsAndDrains) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  auto work = [](void* ctx, std::size_t i) {
    if (i == 3) throw std::logic_error("index 3");
    static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
  };
  EXPECT_THROW(pool.fork_join(8, work, &completed), std::logic_error);
  EXPECT_EQ(completed.load(), 7);
  pool.fork_join(2, work, &completed);  // the pool stays usable
  EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPool, ManyTasksOnFewThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futs;
  for (long i = 1; i <= 200; ++i) {
    futs.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 200L * 201 / 2);
}

// --- parallel_for_chunked ---------------------------------------------------

TEST(ParallelForChunked, CoversRangeExactlyOnceWithUnevenChunks) {
  ThreadPool pool(4);
  constexpr std::size_t kBegin = 5, kEnd = 108;  // 103 indices, chunk 8
  std::vector<std::atomic<int>> hits(kEnd);
  parallel_for_chunked(pool, kBegin, kEnd, 8,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kBegin; ++i) EXPECT_EQ(hits[i].load(), 0) << i;
  for (std::size_t i = kBegin; i < kEnd; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForChunked, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  parallel_for_chunked(pool, 5, 5, 4,
                       [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelForChunked, RejectsZeroChunk) {
  ThreadPool pool(1);
  EXPECT_THROW(
      parallel_for_chunked(pool, 0, 4, 0, [](std::size_t) {}),
      std::invalid_argument);
}

TEST(ParallelForChunked, DrainsRangeAndRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    parallel_for_chunked(pool, 0, 32, 4, [&](std::size_t i) {
      if (i == 9) throw std::runtime_error("high");
      if (i == 3) throw std::logic_error("low");
      completed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "low");  // index 3 beats index 9
  }
  EXPECT_EQ(completed.load(), 30);  // every other index still ran
}

TEST(ParallelForChunked, NestedOnSamePoolDoesNotDeadlock) {
  // The caller drains chunks itself, so even a 1-thread pool whose only
  // worker is *inside* the outer loop makes progress on the inner one.
  ThreadPool pool(1);
  std::atomic<int> hits{0};
  parallel_for_chunked(pool, 0, 4, 1, [&](std::size_t) {
    parallel_for_chunked(pool, 0, 4, 1,
                         [&](std::size_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 16);
}

// --- run_many determinism ---------------------------------------------------

std::vector<RunRequest> classic_sweep() {
  Scenario s = wired_scenario(24);
  s.duration = sec(8);
  s.stochastic_loss = 0.02;  // exercises the per-run RNG path
  std::vector<RunRequest> reqs;
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    reqs.push_back(RunRequest::single(
        s, [] { return std::make_unique<Cubic>(); }, seed));
  }
  return reqs;
}

void expect_bitwise_equal(const RunSummary& a, const RunSummary& b) {
  // Exact comparison on purpose: the guarantee is bitwise determinism, not
  // approximate agreement.
  EXPECT_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.total_throughput_bps, b.total_throughput_bps);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].throughput_bps, b.flows[i].throughput_bps);
    EXPECT_EQ(a.flows[i].avg_rtt_ms, b.flows[i].avg_rtt_ms);
    EXPECT_EQ(a.flows[i].loss_rate, b.flows[i].loss_rate);
  }
}

TEST(RunMany, InspectHookSeesTheCompletedNetwork) {
  // The escape hatch for experiments that need more than a RunSummary (e.g.
  // fig15's convergence time series): inspect fires once per request, on the
  // finished Network, and what it reads matches the serial run exactly.
  std::vector<RunRequest> reqs = classic_sweep();
  std::vector<double> inspected(reqs.size(), -1);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    double* slot = &inspected[i];
    reqs[i].inspect = [slot](const Network& net) {
      *slot = net.flow(0).acked_bytes_series().sum_in(0, kSimTimeMax);
    };
  }

  ThreadPool pool(4);
  run_many(reqs, pool);

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(i);
    auto net = run_scenario(reqs[i].scenario, reqs[i].flows, reqs[i].seed);
    EXPECT_EQ(inspected[i],
              net->flow(0).acked_bytes_series().sum_in(0, kSimTimeMax));
  }
}

TEST(RunMany, BitwiseIdenticalToSerialForClassicCca) {
  std::vector<RunRequest> reqs = classic_sweep();

  std::vector<RunSummary> serial;
  for (const RunRequest& r : reqs) {
    auto net = run_scenario(r.scenario, r.flows, r.seed);
    serial.push_back(summarize(*net, r.warmup, r.scenario.duration));
  }

  ThreadPool pool(4);
  std::vector<RunSummary> parallel = run_many(reqs, pool);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bitwise_equal(parallel[i], serial[i]);
  }
}

TEST(RunMany, BitwiseIdenticalToSerialForLearnedCca) {
  // Frozen (inference-mode) C-Libra sharing one brain across all runs: the
  // brain is read-only during inference and policy sampling uses the
  // instance's private RNG, so concurrent runs must match serial ones.
  RlCcaConfig cfg = libra_rl_config();
  auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 3, {8, 8}),
                                         feature_frame_size(cfg.features));
  CcaFactory factory = [brain] { return make_c_libra(brain, /*training=*/false); };

  Scenario s = wired_scenario(24);
  s.duration = sec(8);
  std::vector<RunRequest> reqs;
  for (std::uint64_t seed = 7; seed < 12; ++seed) {
    reqs.push_back(RunRequest::single(s, factory, seed));
  }

  std::vector<RunSummary> serial;
  for (const RunRequest& r : reqs) {
    auto net = run_scenario(r.scenario, r.flows, r.seed);
    serial.push_back(summarize(*net, r.warmup, r.scenario.duration));
  }

  ThreadPool pool(4);
  std::vector<RunSummary> parallel = run_many(reqs, pool);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bitwise_equal(parallel[i], serial[i]);
  }
}

TEST(RunMany, ResultsComeBackInSubmissionOrder) {
  // Three distinguishable scenarios (different capacities) in one batch.
  std::vector<RunRequest> reqs;
  for (double rate : {6.0, 24.0, 96.0}) {
    Scenario s = wired_scenario(rate);
    s.duration = sec(6);
    reqs.push_back(RunRequest::single(
        s, [] { return std::make_unique<Cubic>(); }, 1));
  }
  ThreadPool pool(3);
  std::vector<RunSummary> out = run_many(reqs, pool);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_LT(out[0].total_throughput_bps, out[1].total_throughput_bps);
  EXPECT_LT(out[1].total_throughput_bps, out[2].total_throughput_bps);
}

TEST(RunMany, RejectsFlowlessRequest) {
  RunRequest empty;
  empty.scenario = wired_scenario(24);
  ThreadPool pool(1);
  EXPECT_THROW(run_many({empty}, pool), std::invalid_argument);
}

TEST(AverageRunsParallel, MatchesSerialAveraging) {
  Scenario s = wired_scenario(24);
  s.duration = sec(6);
  CcaFactory factory = [] { return std::make_unique<Cubic>(); };

  double util = 0, delay = 0;
  constexpr int kRuns = 4;
  for (int r = 0; r < kRuns; ++r) {
    RunSummary sum = run_single(s, factory, 1000 + static_cast<std::uint64_t>(r));
    util += sum.link_utilization;
    delay += sum.avg_delay_ms;
  }

  ThreadPool pool(4);
  AveragedSummary avg = average_runs_parallel(s, factory, kRuns, sec(2), pool);
  EXPECT_EQ(avg.link_utilization, util / kRuns);
  EXPECT_EQ(avg.avg_delay_ms, delay / kRuns);
}

// --- RunManyOptions: progress, cancellation, metrics ------------------------

std::vector<RunRequest> short_batch(std::size_t n) {
  Scenario s = wired_scenario(24);
  s.duration = sec(3);
  std::vector<RunRequest> reqs;
  for (std::uint64_t seed = 0; seed < n; ++seed) {
    reqs.push_back(RunRequest::single(
        s, [] { return std::make_unique<Cubic>(); }, 100 + seed));
  }
  return reqs;
}

TEST(RunMany, ProgressCallbackCountsEveryRunMonotonically) {
  std::vector<RunRequest> reqs = short_batch(6);
  std::vector<std::size_t> seen;  // guarded by the engine's progress mutex
  RunManyOptions opts;
  opts.on_progress = [&](const RunProgress& p) {
    EXPECT_EQ(p.total, reqs.size());
    seen.push_back(p.done);
  };
  ThreadPool pool(4);
  std::vector<RunSummary> out = run_many(reqs, pool, opts);
  EXPECT_EQ(out.size(), reqs.size());
  ASSERT_EQ(seen.size(), reqs.size());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(RunMany, ProgressReportsFlowSecondsClampedToScenarioDuration) {
  // Three requests with different simulated workloads: a plain 3 s single
  // flow (3 flow-s), a two-flow run where one flow stops early (3 + 1.5
  // flow-s), and a flow whose stop time exceeds the scenario (clamped to
  // 3 flow-s). The progress stream must account for every one exactly and
  // finish at the precomputed batch total.
  Scenario s = wired_scenario(24);
  s.duration = sec(3);
  auto cubic = [] { return std::make_unique<Cubic>(); };

  std::vector<RunRequest> reqs;
  reqs.push_back(RunRequest::single(s, cubic, 100));
  RunRequest two;
  two.scenario = s;
  two.seed = 101;
  two.flows.push_back(FlowSpec{cubic});
  two.flows.push_back(FlowSpec{cubic, sec(1), msec(2500)});
  reqs.push_back(two);
  RunRequest over;
  over.scenario = s;
  over.seed = 102;
  over.flows.push_back(FlowSpec{cubic, 0, sec(60)});  // clamped to duration
  reqs.push_back(over);

  EXPECT_DOUBLE_EQ(request_flow_seconds(reqs[0]), 3.0);
  EXPECT_DOUBLE_EQ(request_flow_seconds(reqs[1]), 4.5);
  EXPECT_DOUBLE_EQ(request_flow_seconds(reqs[2]), 3.0);

  double last_completed = 0;
  double reported_total = -1;
  std::size_t calls = 0;
  RunManyOptions opts;
  opts.on_progress = [&](const RunProgress& p) {
    ++calls;
    EXPECT_GT(p.completed_flow_seconds, last_completed);
    EXPECT_LE(p.completed_flow_seconds, p.total_flow_seconds + 1e-9);
    last_completed = p.completed_flow_seconds;
    reported_total = p.total_flow_seconds;
  };
  ThreadPool pool(2);
  run_many(reqs, pool, opts);
  EXPECT_EQ(calls, reqs.size());
  EXPECT_DOUBLE_EQ(reported_total, 10.5);
  EXPECT_DOUBLE_EQ(last_completed, 10.5);
}

TEST(RunMany, PreCancelledBatchSkipsEveryRun) {
  std::vector<RunRequest> reqs = short_batch(4);
  std::atomic<bool> cancel{true};
  std::size_t progress_calls = 0;
  RunManyOptions opts;
  opts.cancel = &cancel;
  opts.on_progress = [&](const RunProgress&) { ++progress_calls; };
  ThreadPool pool(2);
  std::vector<RunSummary> out = run_many(reqs, pool, opts);
  ASSERT_EQ(out.size(), reqs.size());
  for (const RunSummary& s : out) {
    EXPECT_TRUE(s.flows.empty());  // skipped slots keep the default summary
  }
  EXPECT_EQ(progress_calls, 0u);
}

TEST(RunMany, CancelMidBatchStopsLaunchingNewRuns) {
  std::vector<RunRequest> reqs = short_batch(8);
  std::atomic<bool> cancel{false};
  RunManyOptions opts;
  opts.cancel = &cancel;
  opts.on_progress = [&](const RunProgress& p) {
    if (p.done >= 2) cancel.store(true);
  };
  ThreadPool pool(1);  // serial drain => deterministic cut-off
  std::vector<RunSummary> out = run_many(reqs, pool, opts);
  std::size_t completed = 0;
  for (const RunSummary& s : out) completed += s.flows.empty() ? 0 : 1;
  EXPECT_GE(completed, 2u);
  EXPECT_LT(completed, reqs.size());
}

TEST(RunMany, MetricsAggregateAcrossWorkers) {
  std::vector<RunRequest> reqs = short_batch(5);
  // Identical seeds => identical per-run event counts, so the merged total
  // must be an exact multiple of the batch size.
  for (RunRequest& r : reqs) r.seed = 100;
  MetricsRegistry metrics;
  RunManyOptions opts;
  opts.metrics = &metrics;
  ThreadPool pool(4);
  std::vector<RunSummary> out = run_many(reqs, pool, opts);
  EXPECT_EQ(out.size(), reqs.size());

  // Every run contributes exactly once to the batch-level aggregates.
  EXPECT_EQ(metrics.counter("runs").value(),
            static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(metrics.histogram("run_wall_ms", Histogram::exponential(1.0, 2.0, 20))
                .count(),
            static_cast<std::int64_t>(reqs.size()));
  // Per-run simulator metrics merged in: 5 runs of the same scenario process
  // the same number of events each, so the sum is a positive multiple of 5.
  std::int64_t events = metrics.counter("sim.events_processed").value();
  EXPECT_GT(events, 0);
  EXPECT_EQ(events % static_cast<std::int64_t>(reqs.size()), 0);
}

// --- Trainer::train_parallel ------------------------------------------------

TEST(TrainParallel, WeightsBitwiseInvariantAcrossThreadCounts) {
  // Round-based collection promises thread-count invariance: every stochastic
  // draw happens serially on the main thread and the reduction is ordered, so
  // the trained brain must serialize identically at any pool width.
  TrainEnvRanges ranges;
  ranges.capacity_hi_mbps = 50;
  ranges.episode_length = sec(3);

  BrainBoundFactory factory = [](const std::shared_ptr<RlBrain>& b) {
    return make_libra_rl(b, /*training=*/true);
  };
  auto run = [&](std::size_t threads) {
    RlCcaConfig cfg = libra_rl_config();
    auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 5, {8, 8}),
                                           feature_frame_size(cfg.features));
    Trainer trainer(ranges, 77);
    ThreadPool pool(threads);
    auto curve =
        trainer.train_parallel(factory, brain, /*episodes=*/4, pool,
                               /*round_size=*/3);
    EXPECT_EQ(curve.size(), 4u);
    std::ostringstream out;
    brain->agent.save(out);
    brain->normalizer.save(out);
    return out.str();
  };

  const std::string one_thread = run(1);
  EXPECT_EQ(run(2), one_thread);
  EXPECT_EQ(run(4), one_thread);
}

// --- CcaZoo::train_all ------------------------------------------------------

TEST(CcaZoo, TrainAllProducesEveryBrainFamily) {
  ZooConfig cfg;
  cfg.brain_dir = "";  // no cache: force actual (tiny) training
  cfg.train_episodes = 1;
  cfg.hidden_width = 8;
  CcaZoo zoo(cfg);

  ThreadPool pool(4);
  zoo.train_all(pool);

  for (const std::string& family : CcaZoo::brain_families()) {
    auto brain = zoo.brain(family);  // cached now: must not retrain
    ASSERT_NE(brain, nullptr) << family;
    EXPECT_GT(brain->agent.config().state_dim, 0u) << family;
  }
}

TEST(CcaZoo, ParallelTrainingMatchesSerialTraining) {
  ZooConfig cfg;
  cfg.brain_dir = "";
  cfg.train_episodes = 1;
  cfg.hidden_width = 8;

  CcaZoo serial_zoo(cfg);
  for (const std::string& family : CcaZoo::brain_families()) {
    serial_zoo.brain(family);
  }

  CcaZoo parallel_zoo(cfg);
  ThreadPool pool(4);
  parallel_zoo.train_all(pool);

  // Same seeds, independent trainers => identical learned parameters.
  for (const std::string& family : CcaZoo::brain_families()) {
    std::ostringstream a, b;
    serial_zoo.brain(family)->agent.save(a);
    parallel_zoo.brain(family)->agent.save(b);
    EXPECT_EQ(a.str(), b.str()) << family;
  }
}

}  // namespace
}  // namespace libra
