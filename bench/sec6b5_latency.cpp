// §VI-B5 reproduction: time consumption per gesture sample, split into
// preprocessing and classification inference, measured with
// google-benchmark (the paper averages 500 runs).
//
// Paper reference points (laptop CPU): preprocessing 405.93 ms, inference
// (recognition + identification) 677.14 ms, total 936.92 ms — well under
// the 2.43 s average gesture duration. Absolute numbers here differ (their
// pipeline runs Python/PyTorch; ours is native C++, typically much faster);
// the reproduced *shape* is the budget argument: total processing time per
// sample must sit comfortably below the gesture duration.
//
// The binary also runs a parallel-scaling sweep over GP thread counts
// {1, 2, 4, hardware} for three representative stages (matmul kernel, one
// training epoch, dataset synthesis) and writes the measured speedups to
// <output_dir>/BENCH_parallel.jsonl.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/math_utils.hpp"
#include "common/mem.hpp"
#include "datasets/cache.hpp"
#include "datasets/prep.hpp"
#include "exec/exec.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"
#include "nn/tensor.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/server.hpp"

namespace {

using namespace gp;

struct LatencyFixture {
  Dataset dataset;
  std::unique_ptr<GesturePrintSystem> system;
  FrameSequence raw_recording;

  static LatencyFixture& instance() {
    static LatencyFixture fixture = [] {
      LatencyFixture f;
      DatasetScale scale;
      scale.max_users = 4;
      scale.reps = 6;
      DatasetSpec spec = gestureprint_spec(1, scale);
      spec.gestures.resize(5);
      f.dataset = generate_dataset_cached(spec);

      GesturePrintConfig config = bench::default_system_config();
      config.training.epochs = 4;  // latency is inference-time only
      f.system = std::make_unique<GesturePrintSystem>(config);
      const Split split = bench::split_dataset(f.dataset);
      f.system->fit(f.dataset, split.train);

      f.raw_recording = generate_recording(spec, 0, {0, 1, 2}, 31).frames;
      return f;
    }();
    return fixture;
  }
};

void BM_Preprocessing(benchmark::State& state) {
  LatencyFixture& f = LatencyFixture::instance();
  const Preprocessor preprocessor;
  for (auto _ : state) {
    const auto clouds = preprocessor.process(f.raw_recording);
    benchmark::DoNotOptimize(clouds);
  }
}
BENCHMARK(BM_Preprocessing)->Unit(benchmark::kMillisecond);

void BM_ClassificationInference(benchmark::State& state) {
  LatencyFixture& f = LatencyFixture::instance();
  const GestureCloud& cloud = f.dataset.samples.front().cloud;
  for (auto _ : state) {
    const InferenceResult result = f.system->classify(cloud);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ClassificationInference)->Unit(benchmark::kMillisecond);

void BM_EndToEndSingleGesture(benchmark::State& state) {
  LatencyFixture& f = LatencyFixture::instance();
  const Preprocessor preprocessor;
  for (auto _ : state) {
    const auto clouds = preprocessor.process(f.raw_recording);
    for (const auto& cloud : clouds) {
      const InferenceResult result = f.system->classify(cloud);
      benchmark::DoNotOptimize(result);
    }
  }
}
BENCHMARK(BM_EndToEndSingleGesture)->Unit(benchmark::kMillisecond);

// --------------------------------------------------- per-stage latency profile

/// Re-measures the three latency paths outside google-benchmark, feeding
/// every iteration into obs histograms so the report carries p50/p95/p99
/// (google-benchmark's default counters only expose the mean). The GP_SPAN
/// instrumentation inside the stack fills in the per-stage breakdown
/// (pipeline.segment, gesidnet.predict, ...) over the same iterations,
/// which lands in BENCH_latency_stages.jsonl next to the top-level numbers
/// and the serve-tick records.
void run_latency_quantiles(const std::vector<obs::BenchRecord>& serve_tick) {
  using clock = std::chrono::steady_clock;
  LatencyFixture& f = LatencyFixture::instance();
  const Preprocessor preprocessor;
  const GestureCloud& sample_cloud = f.dataset.samples.front().cloud;

  obs::set_metrics_enabled(true);
  obs::Registry::global().reset_all();  // profile only the measured region

  obs::Histogram& pre_ms = obs::histogram("gp.bench.preprocess_ms");
  obs::Histogram& infer_ms = obs::histogram("gp.bench.classify_ms");
  obs::Histogram& total_ms = obs::histogram("gp.bench.end_to_end_ms");

  constexpr int kIters = 30;
  for (int i = 0; i < kIters; ++i) {
    const auto t0 = clock::now();
    const auto clouds = preprocessor.process(f.raw_recording);
    const auto t1 = clock::now();
    const InferenceResult result = f.system->classify(sample_cloud);
    const auto t2 = clock::now();
    benchmark::DoNotOptimize(clouds);
    benchmark::DoNotOptimize(result);
    pre_ms.observe(std::chrono::duration<double, std::milli>(t1 - t0).count());
    infer_ms.observe(std::chrono::duration<double, std::milli>(t2 - t1).count());
    total_ms.observe(std::chrono::duration<double, std::milli>(t2 - t0).count());
  }

  const auto row = [](const char* name, const obs::HistogramSnapshot& h) {
    std::cout << "  " << name << ": p50 " << bench::cell(h.quantile(0.5)) << "ms  p95 "
              << bench::cell(h.quantile(0.95)) << "ms  p99 " << bench::cell(h.quantile(0.99))
              << "ms  mean " << bench::cell(h.mean()) << "ms\n";
  };
  std::cout << "\nlatency quantiles over " << kIters << " runs (obs histograms)\n";
  row("preprocessing ", pre_ms.snapshot());
  row("classification", infer_ms.snapshot());
  row("end-to-end    ", total_ms.snapshot());

  // Top-level quantiles, then the GP_SPAN breakdown of every stage that
  // fired, then the serve-tick profile.
  std::vector<obs::BenchRecord> records;
  const std::string iterations = " iterations=" + std::to_string(kIters);
  const auto add_hist = [&](const std::string& case_name, const obs::HistogramSnapshot& h) {
    records.push_back({case_name, "count", "count", static_cast<double>(h.count)});
    records.push_back({case_name, "mean", "ms", h.mean()});
    records.push_back({case_name, "p50", "ms", h.quantile(0.5)});
    records.push_back({case_name, "p95", "ms", h.quantile(0.95)});
    records.push_back({case_name, "p99", "ms", h.quantile(0.99)});
  };
  add_hist("series=preprocessing" + iterations, pre_ms.snapshot());
  add_hist("series=classification_inference" + iterations, infer_ms.snapshot());
  add_hist("series=end_to_end" + iterations, total_ms.snapshot());
  for (const obs::StageSnapshot& stage : obs::stage_snapshots()) {
    if (stage.histogram.count == 0) continue;
    const std::string case_name =
        "stage=" + stage.name + " min_depth=" + std::to_string(stage.min_depth) + iterations;
    add_hist(case_name, stage.histogram);
    records.push_back({case_name, "total", "ms", stage.histogram.sum});
  }
  records.insert(records.end(), serve_tick.begin(), serve_tick.end());

  const std::string path = output_dir() + "/BENCH_latency_stages.jsonl";
  obs::write_bench_records(path, "latency_stages", records);
  std::cout << "wrote " << path << "\n";
}

// ------------------------------------------------------ serve tick profile

/// Streams the fixture recording into a serve::Server from kSessions
/// concurrent sessions, timing each engine tick (one frame per session +
/// one pump) and counting heap allocations per tick via mem::AllocCounter.
/// Two passes over the same server: "cold" (pools and arenas still
/// growing) and "steady" (everything warm — this is the gp::mem
/// before/after evidence for DESIGN.md §9). The zero-alloc *assertion*
/// lives in tests/test_mem.cpp; here we record the measured rates.
std::vector<obs::BenchRecord> run_serve_tick_profile() {
  LatencyFixture& f = LatencyFixture::instance();

  GesturePrintConfig config = bench::default_system_config();
  config.training.epochs = 4;  // must match the fixture's published model

  const std::string model_path = output_dir() + "/latency_serve_model.gpsy";
  f.system->save(model_path);
  serve::ModelRegistry registry(config);
  if (!registry.publish_file(model_path)) {
    std::cout << "serve tick profile skipped: could not publish " << model_path << "\n";
    return {};
  }

  serve::ServeConfig serve_config;
  serve_config.system = config;
  serve_config.batch_wait_us = 0;  // flush on every pump: latency-greedy
  serve::Server server(serve_config, registry);

  constexpr std::uint64_t kSessions = 4;
  std::cout << "\nserve tick profile (" << kSessions << " sessions, "
            << f.raw_recording.size() << " ticks/pass)\n";
  std::vector<obs::BenchRecord> records;
  const auto pass = [&](const std::string& phase) {
    std::vector<double> tick_ms;
    tick_ms.reserve(f.raw_recording.size());
    mem::AllocCounter allocs;
    for (const FrameCloud& frame : f.raw_recording) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::uint64_t s = 1; s <= kSessions; ++s) (void)server.push_frame(s, frame);
      const auto results = server.pump();
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(results);
      tick_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const double ticks = static_cast<double>(tick_ms.size());
    const double allocs_per_tick =
        ticks > 0 ? static_cast<double>(allocs.allocations()) / ticks : 0.0;
    const double p50 = gp::quantile(tick_ms, 0.5);
    const double p95 = gp::quantile(tick_ms, 0.95);
    const double p99 = gp::quantile(tick_ms, 0.99);
    std::cout << "  " << phase << ": p50 " << bench::cell(p50) << "ms  p95 "
              << bench::cell(p95) << "ms  p99 " << bench::cell(p99) << "ms  "
              << bench::cell(allocs_per_tick) << " allocs/tick\n";
    const std::string case_name =
        "phase=" + phase + " sessions=" + std::to_string(kSessions);
    records.push_back({case_name, "ticks", "count", ticks});
    records.push_back({case_name, "p50", "ms", p50});
    records.push_back({case_name, "p95", "ms", p95});
    records.push_back({case_name, "p99", "ms", p99});
    records.push_back({case_name, "allocs_per_tick", "count", allocs_per_tick});
  };

  // The second pass keeps the same server: sessions, pools, and shard
  // arenas enter it warm, so the delta isolates the allocator tax.
  pass("cold");
  pass("steady");
  return records;
}

// ------------------------------------------------------ parallel scaling sweep

/// Best-of-`reps` wall time of `stage(ctx)` in milliseconds.
template <typename Fn>
double time_stage_ms(gp::exec::ExecContext& ctx, const Fn& stage, int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    stage(ctx);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// One stage's best-of wall times, aligned with the swept thread counts.
struct SweepStage {
  std::string name;
  std::vector<double> ms;
};

/// Sweeps GP thread counts over three representative stages and writes
/// BENCH_parallel.jsonl. Every stage produces bitwise-identical results at
/// each thread count (the gp::exec contract), so only time varies.
void run_parallel_sweep() {
  using namespace gp;
  std::vector<std::size_t> threads{1, 2, 4};
  const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  threads.push_back(hw);
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());

  // Stage inputs, prepared once outside the timed region.
  Rng mat_rng(2024);
  nn::Tensor ma(384, 256);
  ma.randn(mat_rng, 1.0);
  nn::Tensor mb(256, 320);
  mb.randn(mat_rng, 1.0);

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 4;
  DatasetSpec spec = gestureprint_spec(0, scale);
  spec.gestures.resize(4);

  exec::ExecContext prep_ctx(1);
  const Dataset train_data = generate_dataset(spec, prep_ctx);
  const std::vector<std::size_t> idx = all_indices(train_data);
  Rng prep_rng(7);
  const LabeledSamples labeled =
      prepare_subset(train_data, idx, LabelKind::kGesture, PrepConfig{}, prep_rng);
  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.batch_size = 16;

  std::vector<SweepStage> stages{{"gemm_kernel", {}}, {"train_epoch", {}}, {"dataset_synthesis", {}}};
  for (const std::size_t t : threads) {
    exec::ExecContext ctx(t);
    stages[0].ms.push_back(time_stage_ms(ctx, [&](exec::ExecContext& c) {
      nn::Tensor out;
      for (int i = 0; i < 16; ++i) {
        nn::matmul(ma, mb, out, c);
        benchmark::DoNotOptimize(out);
      }
    }));
    stages[1].ms.push_back(time_stage_ms(
        ctx,
        [&](exec::ExecContext& c) {
          Rng rng(51);
          GesIDNetConfig net_config;
          net_config.num_classes = train_data.num_gestures();
          GesIDNet model(net_config, rng);
          const TrainStats stats = train_classifier(model, labeled, train_config, c);
          benchmark::DoNotOptimize(stats);
        },
        /*reps=*/2));
    stages[2].ms.push_back(time_stage_ms(
        ctx,
        [&](exec::ExecContext& c) {
          const Dataset d = generate_dataset(spec, c);
          benchmark::DoNotOptimize(d);
        },
        /*reps=*/2));
  }

  std::cout << "\nparallel scaling (best-of wall time, ms; speedup vs 1 thread)\n";
  std::vector<obs::BenchRecord> records;
  for (const SweepStage& stage : stages) {
    std::cout << "  " << stage.name << ":";
    for (std::size_t i = 0; i < threads.size(); ++i) {
      const double speedup = stage.ms[0] / stage.ms[i];
      std::cout << "  " << threads[i] << "t " << bench::cell(stage.ms[i]) << "ms (x"
                << bench::cell(speedup) << ")";
      const std::string case_name =
          "stage=" + stage.name + " threads=" + std::to_string(threads[i]);
      records.push_back({case_name, "wall", "ms", stage.ms[i]});
      records.push_back({case_name, "speedup", "x", speedup});
    }
    std::cout << "\n";
  }

  const std::string path = output_dir() + "/BENCH_parallel.jsonl";
  obs::write_bench_records(path, "parallel", records);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gp;
  bench::banner("time consumption per gesture sample", "Sec. VI-B5");
  std::cout << "paper (laptop CPU): preprocessing 405.93 ms, inference 677.14 ms,\n"
               "total 936.92 ms vs 2.43 s mean gesture duration. Shape to verify:\n"
               "total per-sample processing well below the gesture duration.\n\n";
  LatencyFixture::instance();  // train outside the measured region
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  const std::vector<obs::BenchRecord> serve_tick = run_serve_tick_profile();
  run_latency_quantiles(serve_tick);
  run_parallel_sweep();
  obs::write_run_report("sec6b5_latency");
  return 0;
}
