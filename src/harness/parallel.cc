#include "harness/parallel.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace libra {

RunRequest RunRequest::single(Scenario scenario, CcaFactory factory,
                              std::uint64_t seed, SimDuration warmup) {
  RunRequest req;
  req.scenario = std::move(scenario);
  req.flows.push_back(FlowSpec{std::move(factory)});
  req.seed = seed;
  req.warmup = warmup;
  return req;
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

double request_flow_seconds(const RunRequest& request) {
  double total = 0;
  const SimTime duration = request.scenario.duration;
  for (const FlowSpec& flow : request.flows) {
    const SimTime start = std::clamp<SimTime>(flow.start, 0, duration);
    const SimTime stop = std::clamp<SimTime>(flow.stop, start, duration);
    total += to_seconds(stop - start);
  }
  return total;
}

namespace {

// Shared state of one chunked loop. Helpers hold it by shared_ptr: a helper
// task that only gets scheduled after the loop finished finds no work and
// exits without touching freed memory.
struct ChunkLoop {
  std::function<void(std::size_t)> fn;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;
  std::size_t error_index = static_cast<std::size_t>(-1);

  // Claim-and-run until the cursor passes the end. Exceptions are recorded
  // (lowest index wins) and the loop keeps going, matching parallel_for's
  // "drain everything, rethrow first" contract.
  void drain() {
    for (;;) {
      std::size_t i0 = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (i0 >= end) return;
      std::size_t i1 = std::min(i0 + chunk, end);
      for (std::size_t i = i0; i < i1; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
      std::size_t done =
          completed.fetch_add(i1 - i0, std::memory_order_acq_rel) + (i1 - i0);
      if (done >= end) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void parallel_for_chunked(ThreadPool& pool, std::size_t begin, std::size_t end,
                          std::size_t chunk,
                          const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (chunk == 0) throw std::invalid_argument("parallel_for_chunked: chunk must be > 0");

  auto loop = std::make_shared<ChunkLoop>();
  loop->fn = [&fn, begin](std::size_t i) { fn(begin + i); };
  loop->end = end - begin;  // work in [0, end-begin); offset restored in fn
  loop->chunk = chunk;

  // One helper per worker, capped by the chunk count (fewer chunks than
  // workers means the extras would find nothing to claim anyway). Futures are
  // deliberately dropped: if the pool is saturated — e.g. this call is nested
  // inside a pool task — the helpers may never run, and the caller's own
  // drain below still finishes the range.
  std::size_t chunks = (loop->end + chunk - 1) / chunk;
  std::size_t helpers = std::min(pool.thread_count(), chunks);
  for (std::size_t h = 1; h < helpers; ++h) pool.submit([loop] { loop->drain(); });

  loop->drain();

  // The cursor is exhausted, but helpers may still be mid-chunk; wait for
  // every index to complete before touching the error slot or returning
  // (fn may reference caller stack state). The error is moved out under the
  // lock: a helper may drop the last reference to `loop` at any moment, and
  // the exception must not be released with it while the caller handles it.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->done_cv.wait(lock, [&] {
      return loop->completed.load(std::memory_order_acquire) >= loop->end;
    });
    error = std::exchange(loop->error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests,
                                 ThreadPool& pool,
                                 const RunManyOptions& options) {
  for (const RunRequest& req : requests) {
    if (req.flows.empty()) throw std::invalid_argument("run_many: request with no flows");
  }
  std::vector<RunSummary> results(requests.size());
  std::mutex progress_mu;
  RunProgress progress;
  progress.total = requests.size();
  std::vector<double> flow_seconds;
  if (options.on_progress) {
    flow_seconds.reserve(requests.size());
    for (const RunRequest& req : requests) {
      flow_seconds.push_back(request_flow_seconds(req));
      progress.total_flow_seconds += flow_seconds.back();
    }
  }
  parallel_for_chunked(pool, 0, requests.size(), 1, [&](std::size_t i) {
    if (options.cancel && options.cancel->load(std::memory_order_relaxed)) return;
    const RunRequest& req = requests[i];
    auto t0 = std::chrono::steady_clock::now();
    auto net = run_scenario(req.scenario, req.flows, req.seed, req.obs);
    results[i] = summarize(*net, req.warmup, req.scenario.duration);
    if (req.inspect) req.inspect(*net);
    if (options.metrics) {
      // Stamp batch-level series into the (still single-threaded) per-run
      // registry, then fold everything into the aggregate in one locked merge.
      double wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      MetricsRegistry& local = net->metrics();
      local.counter("runs").inc();
      local
          .histogram("run_wall_ms",
                     Histogram::exponential(1.0, 2.0, 20))  // 1 ms .. ~8.7 min
          .add(wall_ms);
      options.metrics->merge(local);
    }
    if (options.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++progress.done;
      progress.completed_flow_seconds += flow_seconds[i];
      options.on_progress(progress);
    }
  });
  return results;
}

std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests,
                                 ThreadPool& pool) {
  return run_many(requests, pool, RunManyOptions{});
}

std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests) {
  return run_many(requests, default_pool(), RunManyOptions{});
}

AveragedSummary average_runs_parallel(const Scenario& scenario,
                                      const CcaFactory& factory, int runs,
                                      SimDuration warmup, ThreadPool& pool,
                                      std::uint64_t base_seed) {
  std::vector<RunRequest> batch;
  batch.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    batch.push_back(RunRequest::single(
        scenario, factory, base_seed + static_cast<std::uint64_t>(r), warmup));
  }
  std::vector<RunSummary> summaries = run_many(batch, pool);

  AveragedSummary avg;
  for (const RunSummary& s : summaries) {
    avg.link_utilization += s.link_utilization;
    avg.avg_delay_ms += s.avg_delay_ms;
    avg.throughput_bps += s.total_throughput_bps;
    avg.loss_rate += s.flows[0].loss_rate;
  }
  if (runs > 0) {
    avg.link_utilization /= runs;
    avg.avg_delay_ms /= runs;
    avg.throughput_bps /= runs;
    avg.loss_rate /= runs;
  }
  return avg;
}

}  // namespace libra
