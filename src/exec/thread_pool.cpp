#include "exec/thread_pool.hpp"

#include <cstdio>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp::exec {

namespace {

thread_local bool tl_in_region = false;

/// RAII marker so nested parallel calls from a chunk body run inline.
/// Saves and restores the previous value: a nested inline run() also
/// creates a mark, and its destruction must not clear the outer region's
/// flag (the outer chunk loop keeps running afterwards).
struct RegionMark {
  bool prev;
  RegionMark() : prev(tl_in_region) { tl_in_region = true; }
  ~RegionMark() { tl_in_region = prev; }
};

}  // namespace

bool ThreadPool::in_region() { return tl_in_region; }

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t spawn = threads > 1 ? threads - 1 : 0;
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::work_on(Region& region) {
  RegionMark mark;
  // One span per participant per region: in a Perfetto trace every worker
  // shows a "exec.work" block for the stretch it helped with; the metrics
  // side accumulates per-worker busy time (the thread-sharded counter means
  // per-thread utilisation survives in the shard totals). Every participant
  // opens it at the dispatcher's depth, so worker time never reads as a
  // top-level stage next to the span that dispatched the region.
  const obs::SpanDepthScope depth(region.span_depth);
  GP_SPAN("exec.work");
  const bool instrumented = obs::metrics_enabled();
  const std::uint64_t t0 = instrumented ? monotonic_ns() : 0;
  std::size_t chunks_run = 0;
  for (;;) {
    const std::size_t c = region.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= region.num_chunks) break;
    try {
      (*region.fn)(c);
    } catch (...) {
      region.errors[c] = std::current_exception();
    }
    ++chunks_run;
    region.done.fetch_add(1, std::memory_order_acq_rel);
  }
  if (instrumented) {
    GP_COUNTER_ADD("gp.exec.chunks", chunks_run);
    GP_COUNTER_ADD("gp.exec.worker_busy_us", (monotonic_ns() - t0) / 1000);
  }
}

void ThreadPool::worker_loop() {
  {
    // Label the worker's trace lane once; names are per-thread-lifetime.
    char name[32];
    std::snprintf(name, sizeof(name), "exec.worker-%d", thread_ordinal());
    obs::set_thread_name(name);
  }
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Region* region = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || (region_ != nullptr && epoch_ != seen_epoch); });
      if (stop_) return;
      region = region_;
      seen_epoch = epoch_;
      ++region->active_workers;
    }
    work_on(*region);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --region->active_workers;
    }
    finished_.notify_one();
  }
}

void ThreadPool::run(std::size_t num_chunks, const ChunkFn& fn) {
  if (num_chunks == 0) return;
  if (workers_.empty() || num_chunks == 1 || tl_in_region) {
    RegionMark mark;
    GP_COUNTER_ADD("gp.exec.regions_inline", 1);
    for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }

  const bool instrumented = obs::metrics_enabled();
  const std::uint64_t region_t0 = instrumented ? monotonic_ns() : 0;
  std::lock_guard<std::mutex> region_guard(run_mutex_);
  Region region;
  region.fn = &fn;
  region.num_chunks = num_chunks;
  region.errors.resize(num_chunks);
  region.span_depth = obs::span_depth();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    region_ = &region;
    ++epoch_;
  }
  wake_.notify_all();

  work_on(region);  // the caller participates

  {
    // Wait until every chunk ran AND every worker left the region, so the
    // stack-allocated Region cannot be touched after we return.
    std::unique_lock<std::mutex> lock(mutex_);
    finished_.wait(lock, [&] {
      return region.done.load(std::memory_order_acquire) == num_chunks &&
             region.active_workers == 0;
    });
    region_ = nullptr;
  }

  if (instrumented) {
    GP_COUNTER_ADD("gp.exec.regions", 1);
    static obs::Histogram& region_ms = obs::histogram("gp.exec.region_ms");
    region_ms.observe(static_cast<double>(monotonic_ns() - region_t0) * 1e-6);
  }

  for (auto& error : region.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace gp::exec
