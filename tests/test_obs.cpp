// gp::obs tests: metric exactness under thread contention, span nesting,
// trace export well-formedness (the emitted JSON is parsed back with the
// in-tree parser), disabled-mode overhead sanity, and the determinism
// contract (instrumentation must never perturb model numerics).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "exec/exec.hpp"
#include "gesidnet/batch.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"
#include "nn/tensor.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace gp {
namespace {

/// Restores the global metrics/trace switches on scope exit so tests can
/// toggle them freely without leaking state into other tests.
struct ObsSwitchGuard {
  bool metrics = obs::metrics_enabled();
  bool trace = obs::trace_enabled();
  ~ObsSwitchGuard() {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
  }
};

// ----------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterExactUnderContention) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::Counter& counter = obs::counter("gp.test.contended_counter");
  counter.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsMetrics, HistogramExactMomentsUnderContention) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::Histogram& hist = obs::histogram("gp.test.contended_histogram");
  hist.reset();

  // Every thread observes the same integer-valued sequence: count, sum, min
  // and max all have exact expected values regardless of interleaving
  // (integer-valued doubles sum exactly at these magnitudes).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.observe(static_cast<double>(1 + i % 100));
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  // Per thread: 200 full cycles of 1..100 -> 200 * 5050.
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads) * 200.0 * 5050.0);

  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsMetrics, QuantileWithinBucketResolution) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::Histogram& hist = obs::histogram("gp.test.quantile_histogram");
  hist.reset();

  for (int i = 1; i <= 1000; ++i) hist.observe(static_cast<double>(i));
  const obs::HistogramSnapshot snap = hist.snapshot();

  // Geometric buckets with growth 1.2 bound the relative error by ~20%.
  EXPECT_NEAR(snap.quantile(0.5), 500.0, 0.2 * 500.0);
  EXPECT_NEAR(snap.quantile(0.95), 950.0, 0.2 * 950.0);
  EXPECT_NEAR(snap.quantile(0.99), 990.0, 0.2 * 990.0);
  // Estimates are clamped to the observed range.
  EXPECT_GE(snap.quantile(0.0), snap.min);
  EXPECT_LE(snap.quantile(1.0), snap.max);
}

TEST(ObsMetrics, DisabledRecordingIsDropped) {
  ObsSwitchGuard guard;
  obs::Counter& counter = obs::counter("gp.test.disabled_counter");
  counter.reset();
  obs::set_metrics_enabled(false);
  counter.add(42);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsMetrics, RegistryJsonParsesBack) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::counter("gp.test.json_counter").add(3);
  obs::gauge("gp.test.json_gauge").set(2.5);
  obs::histogram("gp.test.json_histogram").observe(1.25);

  std::ostringstream out;
  obs::Registry::global().to_json(out, 2);
  const obs::json::Value doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value& counters = doc.at("counters");
  ASSERT_TRUE(counters.is_object());
  ASSERT_NE(counters.find("gp.test.json_counter"), nullptr);
  EXPECT_GE(counters.at("gp.test.json_counter").num, 3.0);
  const obs::json::Value& hist = doc.at("histograms").at("gp.test.json_histogram");
  EXPECT_GE(hist.at("count").num, 1.0);
  EXPECT_GT(hist.at("p50").num, 0.0);
}

// ------------------------------------------------------------------- spans

TEST(ObsTrace, SpanNestingDepthsAndContainment) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();

  {
    GP_SPAN("test.outer");
    {
      GP_SPAN("test.middle");
      {
        GP_SPAN("test.inner");
      }
    }
  }

  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* middle = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.middle") middle = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(middle->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(outer->tid, middle->tid);
  EXPECT_EQ(middle->tid, inner->tid);

  // Children are contained within their parents.
  EXPECT_GE(middle->start_ns, outer->start_ns);
  EXPECT_LE(middle->start_ns + middle->duration_ns, outer->start_ns + outer->duration_ns);
  EXPECT_GE(inner->start_ns, middle->start_ns);
  EXPECT_LE(inner->start_ns + inner->duration_ns, middle->start_ns + middle->duration_ns);
}

TEST(ObsTrace, SpansFromWorkerThreadsKeepTheirOwnBuffers) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();

  constexpr int kThreads = 8;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        GP_SPAN("test.worker_span");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Events survive thread exit; all of them are collectable afterwards.
  std::size_t worker_events = 0;
  for (const auto& e : obs::collect_trace_events()) {
    if (std::string(e.name) == "test.worker_span") ++worker_events;
  }
  EXPECT_EQ(worker_events, static_cast<std::size_t>(kThreads) * kSpansEach);
}

TEST(ObsTrace, StageStatsRecordMinDepthAndDurations) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  {
    GP_SPAN("test.stage_depth_outer");
    GP_SPAN("test.stage_depth_inner");
  }
  bool outer_seen = false;
  bool inner_seen = false;
  for (const auto& s : obs::stage_snapshots()) {
    if (s.name == "test.stage_depth_outer") {
      outer_seen = true;
      EXPECT_EQ(s.min_depth, 0);
      EXPECT_GE(s.histogram.count, 1u);
    }
    if (s.name == "test.stage_depth_inner") {
      inner_seen = true;
      EXPECT_EQ(s.min_depth, 1);
    }
  }
  EXPECT_TRUE(outer_seen);
  EXPECT_TRUE(inner_seen);
}

TEST(ObsTrace, WorkerSpansNestUnderTheDispatchingSpan) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();

  exec::ExecContext ctx(4);
  const int caller_tid = thread_ordinal();
  {
    GP_SPAN("test.dispatch_outer");
    // Slow chunks, so the workers pick some of them up.
    ctx.parallel_for_chunks(0, 32, 1, [](std::size_t, std::size_t) {
      GP_SPAN("test.dispatch_inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
  }

  // outer (0) -> exec.work (1) -> inner (2), on the caller and the workers.
  std::size_t inner_events = 0;
  std::size_t worker_events = 0;
  for (const auto& e : obs::collect_trace_events()) {
    if (std::string(e.name) != "test.dispatch_inner") continue;
    ++inner_events;
    if (e.tid != caller_tid) ++worker_events;
    EXPECT_EQ(e.depth, 2) << "tid " << e.tid;
  }
  EXPECT_EQ(inner_events, 32u);
  EXPECT_GT(worker_events, 0u) << "no chunk ran on a worker thread";
  for (const auto& s : obs::stage_snapshots()) {
    if (s.name == "test.dispatch_inner") {
      EXPECT_EQ(s.min_depth, 2);
    }
  }
  EXPECT_EQ(obs::span_depth(), 0);
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    GP_SPAN("test.export_outer");
    GP_SPAN("test.export_inner");
  }

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const obs::json::Value doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.arr.size(), 2u);
  std::size_t span_events = 0;
  std::size_t metadata_events = 0;
  for (const auto& e : events.arr) {
    ASSERT_TRUE(e.is_object());
    EXPECT_TRUE(e.at("name").is_string());
    if (e.at("ph").str == "M") {
      // Process/thread-name metadata: args carries the label, no timestamps.
      EXPECT_TRUE(e.at("args").is_object());
      ++metadata_events;
      continue;
    }
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").num, 0.0);
    EXPECT_TRUE(e.at("tid").is_number());
    ++span_events;
  }
  EXPECT_GE(span_events, 2u);
  EXPECT_GE(metadata_events, 1u);  // at least the process_name event
}

TEST(ObsTrace, ThreadNameMetadataAppearsInExport) {
  ObsSwitchGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  obs::set_thread_name("test.main");
  {
    GP_SPAN("test.named_thread");
  }

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const obs::json::Value doc = obs::json::parse(out.str());
  const obs::json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_name = false;
  for (const auto& e : events.arr) {
    if (e.at("ph").str != "M" || e.at("name").str != "thread_name") continue;
    if (e.at("args").at("name").str == "test.main") saw_name = true;
  }
  EXPECT_TRUE(saw_name);

  const auto names = obs::thread_names();
  bool listed = false;
  for (const auto& [tid, name] : names) {
    if (name == "test.main") listed = true;
  }
  EXPECT_TRUE(listed);
}

TEST(ObsTrace, RingBufferBoundsMemory) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  const std::size_t cap = obs::trace_buffer_capacity();
  for (std::size_t i = 0; i < cap + 1000; ++i) {
    GP_SPAN("test.ring_overflow");
  }
  std::size_t count = 0;
  for (const auto& e : obs::collect_trace_events()) {
    if (std::string(e.name) == "test.ring_overflow") ++count;
  }
  EXPECT_EQ(count, cap);  // oldest events were overwritten, newest kept
}

// ---------------------------------------------------------------- overhead

TEST(ObsOverhead, DisabledSpanIsCheap) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);

  constexpr int kIters = 1000000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    GP_SPAN("test.disabled_span");
  }
  const double ns_per_span =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()) /
      kIters;
  // Real cost is a few ns (one predicted branch); the bound is generous to
  // stay robust under sanitizers and loaded CI machines.
  EXPECT_LT(ns_per_span, 500.0);

  // Nothing was recorded while disabled.
  for (const auto& s : obs::stage_snapshots()) {
    if (s.name == "test.disabled_span") {
      EXPECT_EQ(s.histogram.count, 0u);
    }
  }
}

// ------------------------------------------------------------- determinism

FeaturizedSample synthetic_sample(Rng& rng, std::size_t num_points) {
  FeaturizedSample s;
  s.num_points = num_points;
  s.dims = 7;
  s.positions.reserve(num_points * 3);
  s.features.reserve(num_points * s.dims);
  for (std::size_t p = 0; p < num_points; ++p) {
    for (int d = 0; d < 3; ++d) {
      s.positions.push_back(static_cast<float>(rng.gaussian(0.0, 0.2)));
    }
    for (std::size_t d = 0; d < s.dims; ++d) {
      s.features.push_back(static_cast<float>(rng.gaussian(0.0, 1.0)));
    }
  }
  return s;
}

nn::Tensor train_and_predict_tiny() {
  Rng data_rng(99, 7);
  LabeledSamples data;
  for (int i = 0; i < 12; ++i) {
    data.samples.push_back(synthetic_sample(data_rng, 24));
    data.labels.push_back(i % 2);
  }

  GesIDNetConfig config;
  config.num_classes = 2;
  config.sa1_centroids = 8;
  config.sa2_centroids = 4;
  Rng init_rng(123, 5);
  GesIDNet model(config, init_rng);

  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 4;
  tc.seed = 11;
  train_classifier(model, data, tc);
  return predict_logits(model, data.samples, 6);
}

TEST(ObsDeterminism, TracingDoesNotPerturbLogits) {
  ObsSwitchGuard guard;

  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const nn::Tensor plain = train_and_predict_tiny();

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const nn::Tensor traced = train_and_predict_tiny();

  ASSERT_EQ(plain.rows(), traced.rows());
  ASSERT_EQ(plain.cols(), traced.cols());
  for (std::size_t i = 0; i < plain.rows(); ++i) {
    for (std::size_t j = 0; j < plain.cols(); ++j) {
      EXPECT_EQ(plain.at(i, j), traced.at(i, j)) << "logit (" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------- bench records

TEST(ObsBenchRecords, WriteRoundTripsTheJsonlText) {
  const std::vector<obs::BenchRecord> records{{"kernel=matmul m=1", "opt", "ms", 0.25},
                                              {"kernel=matmul m=1", "speedup", "x", 2.0}};
  const std::string path = testing::TempDir() + "gp_bench_records/BENCH_roundtrip.jsonl";
  obs::write_bench_records(path, "roundtrip", records);
  std::ifstream in(path);
  const std::string written((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(written, obs::bench_records_jsonl("roundtrip", records));
}

TEST(ObsBenchRecords, UnwritablePathThrows) {
  // A directory that cannot exist: its parent is a regular file.
  const std::string file = testing::TempDir() + "gp_bench_records_not_a_dir";
  std::ofstream(file) << "x";
  EXPECT_THROW(obs::write_bench_records(file + "/sub/BENCH_x.jsonl", "x",
                                        {{"case=a", "m", "count", 1.0}}),
               Error);
}

}  // namespace
}  // namespace gp
