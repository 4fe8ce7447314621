// gp::obs trace spans — RAII scoped timing that feeds (a) per-stage latency
// histograms in the metrics registry and (b) per-thread ring buffers of
// trace events exportable as Chrome trace-event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev).
//
//   void detect(...) {
//     GP_SPAN("radar.cfar");         // one span per call site
//     ...
//   }
//
// Behaviour matrix:
//   * GP_TRACE=off (default) + GP_METRICS=on : spans record duration into
//     the stage histogram only (one clock pair + sharded atomic adds).
//   * GP_TRACE=on : spans additionally append one event into the calling
//     thread's ring buffer (fixed capacity, oldest events overwritten).
//   * both off : the constructor is a single predicted branch, ~ns.
//
// Spans nest arbitrarily and are thread-aware: each thread tracks its own
// depth and owns its own buffer, so instrumenting code inside gp::exec
// parallel regions is safe and TSan-clean. Span names must be string
// literals (the buffers store the pointer, not a copy).
//
// Tracing never perturbs determinism: no RNG use, no FP-order changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace gp::obs {

/// Tracing switch: GP_TRACE=on|1 enables, anything else (or unset) is off.
/// Overridable at runtime (tests toggle it around deterministic sections).
bool trace_enabled();
void set_trace_enabled(bool enabled);

/// Per-call-site stage statistics: a duration histogram (milliseconds,
/// registered as "gp.stage.<name>") plus the minimum nesting depth this
/// stage was ever observed at (run reports treat min-depth-0 stages as the
/// top-level phases whose totals should sum to the wall clock).
class StageStats {
 public:
  StageStats(std::string name, Histogram& histogram)
      : name_(std::move(name)), histogram_(histogram) {}

  void record(double duration_ms, int depth) {
    histogram_.observe(duration_ms);
    int cur = min_depth_.load(std::memory_order_relaxed);
    while (depth < cur &&
           !min_depth_.compare_exchange_weak(cur, depth, std::memory_order_relaxed)) {
    }
  }

  const std::string& name() const { return name_; }
  const Histogram& histogram() const { return histogram_; }
  int min_depth() const { return min_depth_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  Histogram& histogram_;
  std::atomic<int> min_depth_{1 << 20};
};

/// Registers (or returns the existing) stage named `name`. Handles are
/// process-lifetime; call sites cache them via GP_SPAN.
StageStats& stage_stats(const char* name);

/// Snapshot of every registered stage, sorted by name.
struct StageSnapshot {
  std::string name;
  HistogramSnapshot histogram;  ///< durations in milliseconds
  int min_depth = 0;
};
std::vector<StageSnapshot> stage_snapshots();

// -------------------------------------------------------------------- Span

class Span {
 public:
  /// `name` must outlive the process (string literal). `stats` is optional;
  /// GP_SPAN wires the cached per-site StageStats.
  explicit Span(const char* name, StageStats* stats = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  StageStats* stats_ = nullptr;
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
  bool active_ = false;
};

/// Depth the calling thread's next span opens at (its open-span count).
int span_depth();

/// Sets the calling thread's span depth for a scope and restores it on exit.
/// gp::exec opens one around each parallel-region participant, so spans a
/// worker records nest under the depth of the thread that dispatched the
/// region instead of reading as top-level stages.
class SpanDepthScope {
 public:
  explicit SpanDepthScope(int depth);
  ~SpanDepthScope();
  SpanDepthScope(const SpanDepthScope&) = delete;
  SpanDepthScope& operator=(const SpanDepthScope&) = delete;

 private:
  int saved_;
};

#define GP_OBS_CONCAT2(a, b) a##b
#define GP_OBS_CONCAT(a, b) GP_OBS_CONCAT2(a, b)

/// Scoped span for the rest of the enclosing block. Name must be a literal.
#define GP_SPAN(name_literal)                                                \
  static ::gp::obs::StageStats& GP_OBS_CONCAT(gp_obs_stats_, __LINE__) =     \
      ::gp::obs::stage_stats(name_literal);                                  \
  const ::gp::obs::Span GP_OBS_CONCAT(gp_obs_span_, __LINE__)(               \
      name_literal, &GP_OBS_CONCAT(gp_obs_stats_, __LINE__))

// ------------------------------------------------------------ trace export

/// Names the calling thread for trace exports: write_chrome_trace emits a
/// "thread_name" metadata event per named thread so serve shards/pump group
/// legibly in Perfetto instead of bare tids. Idempotent and cheap when the
/// thread already carries `name` (safe on hot paths); last write wins.
void set_thread_name(const char* name);

/// (tid, name) for every thread that called set_thread_name.
std::vector<std::pair<int, std::string>> thread_names();
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  int tid = 0;
  int depth = 0;
};

/// All buffered events from every thread (including exited threads),
/// ordered by (tid, start time). Ring buffers keep the newest
/// `trace_buffer_capacity()` events per thread.
std::vector<TraceEvent> collect_trace_events();

/// Number of currently buffered events across all threads.
std::size_t trace_event_count();

/// Drops all buffered events (tests / before a fresh measured region).
void clear_trace();

/// Events each thread's ring buffer retains (compile-time constant).
std::size_t trace_buffer_capacity();

/// Writes Chrome trace-event JSON ({"traceEvents": [...]}, "X" complete
/// events, microsecond timestamps) for everything buffered so far.
void write_chrome_trace(std::ostream& out);

/// write_chrome_trace to `path`; creates parent directories, logs the
/// destination, and returns the path.
std::string write_trace_file(const std::string& path);

}  // namespace gp::obs
