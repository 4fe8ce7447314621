// gp::serve throughput sweep (DESIGN.md §8): N concurrent client sessions
// stream continuous multi-gesture recordings into the serving layer, which
// runs segmentation/featurization in the parallel shard drain and answers
// completed segments through fused, cross-session micro-batched GesIDNet
// forwards. The sequential baseline classifies the *same* segments one at a
// time through the offline GesturePrintSystem::classify() path (unfused,
// per-segment forward) — exactly what a caller without gp::serve would run.
//
// The sweep runs every (sessions, batch_max) cell twice — once with the f32
// fused snapshot (GP_QUANT off) and once with the int8 snapshot (DESIGN.md
// §11) — and adds a forward-isolated f32-vs-int8 head-to-head (the part of
// the serve tick quantization can actually touch; end-to-end serve time is
// diluted by segmentation/featurization, which the `quant` summary records
// honestly).
//
// Emits <output_dir>/BENCH_serve.jsonl and self-checks the headline
// acceptance invariants on the exit code: at >= 8 concurrent sessions the
// best f32 serve cell must be >= 2x the sequential baseline, and the best
// int8 cell >= 3x (the ROADMAP-item-1 single-core throughput target).
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "gesidnet/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace {

using namespace gp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Sequential per-segment baseline at one concurrency level.
struct BaselineRow {
  std::uint64_t segments = 0;
  double ms = 0.0;
};

/// One (sessions, batch_max, quant mode) cell of the serving sweep.
struct ServeCell {
  std::size_t sessions = 0;
  std::size_t batch_max = 0;
  std::string quant = "off";   ///< quant_mode_name() of the published model
  std::uint64_t segments = 0;  ///< completed segments entering the batcher
  std::uint64_t results = 0;   ///< ServeResults emitted
  std::uint64_t batches = 0;   ///< micro-batches flushed
  std::uint64_t abstained = 0;
  double ms = 0.0;             ///< serve wall time (stream in → drained)
  double speedup = 0.0;        ///< baseline(sessions).ms / ms
};

/// Sequential per-segment baseline: segment + preprocess each recording
/// (same pipeline work serve does), then classify() every segment one at a
/// time on the unfused system. Returns (segments, ms).
BaselineRow run_baseline(const std::vector<ContinuousRecording>& recordings,
                         const GesturePrintConfig& config, const std::string& model_path) {
  BaselineRow row;
  GesturePrintSystem system(config);
  system.load(model_path);  // unfused: the offline classify() path

  const Clock::time_point start = Clock::now();
  const Preprocessor preprocessor;
  for (const ContinuousRecording& recording : recordings) {
    GestureSegmenter segmenter;
    auto consume = [&](const GestureSegment& segment) {
      const GestureCloud cloud = preprocessor.process_segment(segment.frames);
      ++row.segments;
      (void)system.classify(cloud);
    };
    for (const FrameCloud& frame : recording.frames) {
      segmenter.push(frame);
      for (const GestureSegment& s : segmenter.take_segments()) consume(s);
    }
    segmenter.finish();
    for (const GestureSegment& s : segmenter.take_segments()) consume(s);
  }
  row.ms = ms_since(start);
  return row;
}

/// One serve cell: round-robin interleaved streaming of every session's
/// frames with a pump per frame round, then a final drain. The per-cell
/// MetricsDelta baseline isolates this cell's gp.serve.* counter movement
/// from every previous cell's, so the cross-check against MicroBatcher
/// stats stays exact across the whole sweep.
ServeCell run_serve_cell(const std::vector<ContinuousRecording>& recordings,
                         const serve::ServeConfig& serve_config, serve::ModelRegistry& registry,
                         bool& counters_ok) {
  ServeCell cell;
  cell.sessions = recordings.size();
  cell.batch_max = serve_config.batch_max;
  cell.quant = nn::quant_mode_name(serve_config.quant);

  const obs::MetricsDelta delta;
  const Clock::time_point start = Clock::now();
  serve::Server server(serve_config, registry);
  std::size_t max_frames = 0;
  for (const ContinuousRecording& r : recordings) {
    max_frames = std::max(max_frames, r.frames.size());
  }
  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t s = 0; s < recordings.size(); ++s) {
      if (f >= recordings[s].frames.size()) continue;
      (void)server.push_frame(static_cast<std::uint64_t>(s + 1), recordings[s].frames[f]);
    }
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
  cell.ms = ms_since(start);

  const serve::MicroBatcher::Stats stats = server.batch_stats();
  cell.segments = stats.segments;
  cell.results = results.size();
  cell.batches = stats.batches;
  cell.abstained = stats.abstained;

  // Cross-check: this cell's counter deltas must agree with the batcher's
  // own tallies (catches double counting and cross-cell accumulation).
  if (obs::metrics_enabled()) {
    const std::uint64_t d_batches = delta.counter_delta("gp.serve.batches");
    const std::uint64_t d_segments = delta.counter_delta("gp.serve.segments");
    if (d_batches != stats.batches || d_segments != stats.segments) {
      std::cout << "FAIL: sessions=" << cell.sessions << " batch_max=" << cell.batch_max
                << " counter deltas (batches " << d_batches << ", segments " << d_segments
                << ") disagree with batcher stats (" << stats.batches << ", "
                << stats.segments << ")\n";
      counters_ok = false;
    }
    // Every batch answered by an int8 snapshot must be attributed to the
    // quantized-batch counter — and none when serving the f32 snapshot.
    const std::uint64_t d_quant = delta.counter_delta("gp.serve.batches.quant");
    const std::uint64_t want_quant =
        serve_config.quant == nn::QuantMode::kInt8 ? stats.batches : 0;
    if (d_quant != want_quant) {
      std::cout << "FAIL: sessions=" << cell.sessions << " batch_max=" << cell.batch_max
                << " quant=" << cell.quant << " gp.serve.batches.quant moved " << d_quant
                << " (want " << want_quant << ")\n";
      counters_ok = false;
    }
  }
  return cell;
}

/// Forward-isolated f32-vs-int8 head-to-head (DESIGN.md §11): the same
/// featurized segments through both fused gesture models, plus argmax
/// agreement across both classification heads' logits. forward_speedup
/// isolates the fused GesIDNet forward pass (the part the int8 kernel
/// accelerates); `serve_speedup` is the end-to-end serve wall-time ratio,
/// diluted by featurization/segmentation that quantization cannot touch.
/// Prints the summary and appends its records under `case_name`.
void run_quant_head_to_head(const Dataset& dataset, const GesturePrintConfig& config,
                            const std::string& model_path, double serve_speedup,
                            const std::string& case_name,
                            std::vector<obs::BenchRecord>& records) {
  GesturePrintSystem f32(config), i8(config);
  f32.load(model_path);
  i8.load(model_path);
  f32.fuse_for_inference(nn::QuantMode::kOff);
  i8.fuse_for_inference(nn::QuantMode::kInt8);

  Rng frng(0x5E12, 3);
  std::vector<FeaturizedSample> batch;
  for (std::size_t i = 0; i < 32; ++i) {
    batch.push_back(featurize(dataset.samples[i % dataset.samples.size()].cloud,
                              config.prep.features, frng));
  }

  const auto time_forward = [&](GesIDNet& model, int reps) {
    nn::Tensor out;
    (void)predict_logits(model, batch);  // warm
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < reps; ++r) out = predict_logits(model, batch);
    return ms_since(start) / static_cast<double>(reps);
  };
  const int reps = 20;
  const double f32_forward_ms = time_forward(f32.gesture_model(), reps);
  const double int8_forward_ms = time_forward(i8.gesture_model(), reps);
  const double forward_speedup = int8_forward_ms > 0.0 ? f32_forward_ms / int8_forward_ms : 0.0;

  const nn::Tensor l32 = predict_logits(f32.gesture_model(), batch);
  const nn::Tensor l8 = predict_logits(i8.gesture_model(), batch);
  std::uint64_t argmax_mismatches = 0;  // (gesture,user) disagreements
  for (std::size_t i = 0; i < l32.rows(); ++i) {
    std::size_t a32 = 0, a8 = 0;
    for (std::size_t c = 1; c < l32.cols(); ++c) {
      if (l32.at(i, c) > l32.at(i, a32)) a32 = c;
      if (l8.at(i, c) > l8.at(i, a8)) a8 = c;
    }
    if (a32 != a8) ++argmax_mismatches;
  }
  std::cout << "  quant head-to-head: f32 forward " << f32_forward_ms << " ms, int8 "
            << int8_forward_ms << " ms (forward " << forward_speedup << "x, serve "
            << serve_speedup << "x, argmax mismatches " << argmax_mismatches << "/32)\n";
  records.push_back({case_name, "f32_forward", "ms", f32_forward_ms});
  records.push_back({case_name, "int8_forward", "ms", int8_forward_ms});
  records.push_back({case_name, "forward_speedup", "x", forward_speedup});
  records.push_back({case_name, "serve_speedup", "x", serve_speedup});
  records.push_back(
      {case_name, "argmax_mismatches", "count", static_cast<double>(argmax_mismatches)});
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("serve_bench", "DESIGN.md §8 (serving layer; not in the paper)");

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 10;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(5);

  std::cout << "Training on " << spec.num_users << " users x " << spec.gestures.size()
            << " gestures...\n";
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 8;
  config.prep.augmentation.copies = 2;
  config.abstain_margin = 0.10;

  const std::string model_path = output_dir() + "/serve_bench_model.gpsy";
  {
    GesturePrintSystem trainer(config);
    Rng split_rng(3, 1);
    trainer.fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    trainer.save(model_path);
  }

  // One registry per quant mode (fused snapshot) shared by every serve cell
  // of that mode.
  serve::ModelRegistry registry_f32(config);
  serve::ModelRegistry registry_i8(config);
  if (!registry_f32.publish_file(model_path, nn::QuantMode::kOff) ||
      !registry_i8.publish_file(model_path, nn::QuantMode::kInt8)) {
    std::cout << "FAIL: could not publish " << model_path << "\n";
    return 1;
  }

  const std::vector<int> script{0, 3, 1, 4, 2, 0};
  const std::vector<std::size_t> sessions_swept{1, 4, 8, 16};
  const std::vector<std::size_t> batch_max_swept{1, 8, 32};

  // Pre-generate per-session recordings once: session s streams user
  // (s % users) performing the script, each from its own seed.
  std::vector<ContinuousRecording> all_recordings;
  for (std::size_t s = 0; s < sessions_swept.back(); ++s) {
    all_recordings.push_back(
        generate_recording(spec, s % spec.num_users, script, 20260806 + s));
  }

  std::vector<obs::BenchRecord> records;
  std::vector<ServeCell> cells;
  bool counters_ok = true;
  for (std::size_t n : sessions_swept) {
    const std::vector<ContinuousRecording> recordings(all_recordings.begin(),
                                                      all_recordings.begin() + n);
    const BaselineRow b = run_baseline(recordings, config, model_path);
    std::cout << "  sessions=" << n << " sequential: " << b.segments << " segments in "
              << b.ms << " ms\n";
    const std::string baseline_case = "path=sequential sessions=" + std::to_string(n);
    records.push_back({baseline_case, "segments", "count", static_cast<double>(b.segments)});
    records.push_back({baseline_case, "wall", "ms", b.ms});
    for (std::size_t bm : batch_max_swept) {
      for (const nn::QuantMode mode : {nn::QuantMode::kOff, nn::QuantMode::kInt8}) {
        serve::ServeConfig serve_config;
        serve_config.system = config;
        serve_config.batch_max = bm;
        serve_config.batch_wait_us = 0;  // flush on every pump: latency-greedy
        serve_config.quant = mode;
        serve::ModelRegistry& registry =
            mode == nn::QuantMode::kInt8 ? registry_i8 : registry_f32;
        cells.push_back(run_serve_cell(recordings, serve_config, registry, counters_ok));
        ServeCell& cell = cells.back();
        cell.speedup = cell.ms > 0.0 ? b.ms / cell.ms : 0.0;
        std::cout << "  sessions=" << n << " batch_max=" << bm << " quant=" << cell.quant
                  << " serve: " << cell.segments << " segments, " << cell.batches
                  << " batches, " << cell.ms << " ms (speedup " << cell.speedup << "x)\n";
      }
    }
  }

  for (const ServeCell& cell : cells) {
    const std::string case_name = "path=serve sessions=" + std::to_string(cell.sessions) +
                                  " batch_max=" + std::to_string(cell.batch_max) +
                                  " quant=" + cell.quant;
    records.push_back({case_name, "segments", "count", static_cast<double>(cell.segments)});
    records.push_back({case_name, "results", "count", static_cast<double>(cell.results)});
    records.push_back({case_name, "batches", "count", static_cast<double>(cell.batches)});
    records.push_back({case_name, "abstained", "count", static_cast<double>(cell.abstained)});
    records.push_back({case_name, "wall", "ms", cell.ms});
    records.push_back({case_name, "speedup", "x", cell.speedup});
  }
  {
    // End-to-end serve ratio at the largest session count: best f32 cell
    // over best int8 cell (Amdahl-honest next to forward_speedup).
    double best_f32 = 0.0, best_i8 = 0.0;
    for (const ServeCell& cell : cells) {
      if (cell.sessions != sessions_swept.back()) continue;
      double& best = cell.quant == "int8" ? best_i8 : best_f32;
      if (cell.ms > 0.0) best = best == 0.0 ? cell.ms : std::min(best, cell.ms);
    }
    run_quant_head_to_head(dataset, config, model_path,
                           best_i8 > 0.0 ? best_f32 / best_i8 : 0.0,
                           "path=head_to_head quant=int8_vs_off batch=32 sessions=" +
                               std::to_string(sessions_swept.back()),
                           records);
  }
  const std::string path = output_dir() + "/BENCH_serve.jsonl";
  obs::write_bench_records(path, "serve", records);
  std::cout << "\nWrote " << path << "\n";

  // Self-check (CI gates on the exit code, no artifact parsing needed):
  //  1. every serve cell answered every segment it admitted;
  //  2. per-cell gp.serve.* counter deltas matched the batcher stats
  //     (including exact gp.serve.batches.quant attribution);
  //  3. at >= 8 sessions, the best f32 cell is >= 2x the sequential
  //     baseline and the best int8 cell is >= 3x (throughput-per-core,
  //     DESIGN.md §11).
  bool ok = counters_ok;
  double best_f32_8plus = 0.0;
  double best_i8_8plus = 0.0;
  for (const ServeCell& cell : cells) {
    if (cell.results != cell.segments) {
      std::cout << "FAIL: sessions=" << cell.sessions << " batch_max=" << cell.batch_max
                << " quant=" << cell.quant << " answered " << cell.results << "/"
                << cell.segments << " segments\n";
      ok = false;
    }
    if (cell.sessions >= 8) {
      double& best = cell.quant == "int8" ? best_i8_8plus : best_f32_8plus;
      best = std::max(best, cell.speedup);
    }
  }
  if (best_f32_8plus < 2.0) {
    std::cout << "FAIL: best f32 speedup at >= 8 sessions is " << best_f32_8plus
              << "x (< 2x)\n";
    ok = false;
  } else {
    std::cout << "Best f32 speedup at >= 8 sessions: " << best_f32_8plus << "x (>= 2x)\n";
  }
  if (best_i8_8plus < 3.0) {
    std::cout << "FAIL: best int8 speedup at >= 8 sessions is " << best_i8_8plus
              << "x (< 3x)\n";
    ok = false;
  } else {
    std::cout << "Best int8 speedup at >= 8 sessions: " << best_i8_8plus << "x (>= 3x)\n";
  }
  std::cout << (ok ? "Serving invariants hold.\n" : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
