// Robustness sweep (DESIGN.md §7): streams one continuous recording through
// the FaultInjector at increasing severity for every fault family, runs the
// full streaming runtime (segmentation -> preprocessing -> classification
// with the abstention gate armed), and emits the graceful-degradation
// evidence to <output_dir>/BENCH_faults.jsonl.
//
// Invariants this artifact demonstrates:
//  * severity 0 of every family is bitwise the clean baseline (the off path
//    of the injector is free);
//  * at maximum severity the runtime still completes with zero uncaught
//    exceptions — degraded captures become typed rejections or kAbstain
//    answers, never crashes or silent garbage.
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "faults/faults.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pipeline/preprocessor.hpp"
#include "system/gestureprint.hpp"

namespace {

using namespace gp;

/// One (fault family, severity) cell of the robustness sweep.
struct FaultSweepRow {
  double severity = 0.0;
  std::uint64_t frames_in = 0;         ///< frames entering the injector
  std::uint64_t frames_delivered = 0;  ///< frames surviving injection
  std::uint64_t frames_dropped = 0;
  std::uint64_t ghost_points = 0;
  std::uint64_t points_removed = 0;
  std::uint64_t segments = 0;    ///< segments the streaming segmenter detected
  std::uint64_t classified = 0;  ///< clouds that got a (gesture,user) answer
  std::uint64_t abstained = 0;   ///< clouds the system refused (kAbstain)
  std::uint64_t correct = 0;     ///< classified AND gesture matched truth
  std::uint64_t uncaught_exceptions = 0;  ///< must be 0: degradation, not death
};

/// One fault family's severity series.
struct FaultFamilySeries {
  std::string kind;  ///< fault_kind_name() string, or "mixed"
  std::vector<FaultSweepRow> rows;
};

/// Streams `recording` through an injector configured by `config` and the
/// freshly-loaded system at `model_path`. Per-frame and per-segment work is
/// fenced so a fault can only ever produce a counted exception, never kill
/// the sweep.
FaultSweepRow run_cell(const ContinuousRecording& recording,
                            const std::vector<int>& script,
                            const GesturePrintConfig& system_config,
                            const std::string& model_path,
                            const faults::FaultConfig& fault_config,
                            double severity, bool& counters_ok) {
  FaultSweepRow row;
  row.severity = severity;
  row.frames_in = recording.frames.size();

  // Per-cell counter baseline: gp.faults.* counters are process-global and
  // keep accumulating across the sweep; the delta isolates this cell.
  const obs::MetricsDelta delta;

  // Fresh system per cell: construction reseeds the internal RNG, load()
  // restores the exact trained weights, so classification is a pure
  // function of the delivered cloud sequence (severity 0 == clean run).
  GesturePrintSystem system(system_config);
  system.load(model_path);

  faults::FaultInjector injector(fault_config);
  GestureSegmenter segmenter;
  const Preprocessor preprocessor;
  std::size_t detected = 0;

  auto consume = [&](const GestureSegment& segment) {
    try {
      const GestureCloud cloud = preprocessor.process_segment(segment.frames);
      ++row.segments;
      const InferenceResult result = system.classify(cloud);
      const int truth = detected < script.size() ? script[detected] : -1;
      ++detected;
      if (result.abstained) {
        ++row.abstained;
        return;
      }
      ++row.classified;
      if (truth >= 0 && result.gesture == truth) ++row.correct;
    } catch (const std::exception&) {
      ++row.uncaught_exceptions;
    }
  };

  for (const auto& frame : recording.frames) {
    try {
      const std::optional<FrameCloud> delivered = injector.apply(frame);
      if (!delivered) continue;
      ++row.frames_delivered;  // counted here: the off-path injector keeps no tally
      segmenter.push(*delivered);
    } catch (const std::exception&) {
      ++row.uncaught_exceptions;
      continue;
    }
    for (const GestureSegment& segment : segmenter.take_segments()) consume(segment);
  }
  segmenter.finish();
  for (const GestureSegment& segment : segmenter.take_segments()) consume(segment);

  const faults::FaultInjector::Counts& counts = injector.counts();
  row.frames_dropped = counts.frames_dropped;
  row.ghost_points = counts.ghost_points;
  row.points_removed = counts.points_removed;

  // Cross-check: this cell's gp.faults.* counter deltas must equal the
  // injector's own tallies (catches cross-cell accumulation bleeding into
  // the artifact and double counting inside the injector).
  if (obs::metrics_enabled()) {
    const std::uint64_t d_dropped = delta.counter_delta("gp.faults.frames_dropped");
    const std::uint64_t d_ghost = delta.counter_delta("gp.faults.ghost_points");
    if (d_dropped != counts.frames_dropped || d_ghost != counts.ghost_points) {
      std::cout << "FAIL: severity=" << severity << " counter deltas (dropped " << d_dropped
                << ", ghost " << d_ghost << ") disagree with injector counts ("
                << counts.frames_dropped << ", " << counts.ghost_points << ")\n";
      counters_ok = false;
    }
  }
  return row;
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("fault_sweep", "DESIGN.md §7 (robustness; not in the paper)");

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
  config.abstain_margin = 0.10;  // arm the gate: refuse ambiguous captures

  const std::string model_path = output_dir() + "/fault_sweep_model.gpsy";
  {
    GesturePrintSystem trainer(config);
    Rng split_rng(3, 1);
    trainer.fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    trainer.save(model_path);
  }

  // One continuous recording reused across every cell: user 1 performs 12
  // gestures with natural pauses.
  const std::vector<int> script{0, 3, 1, 4, 2, 0, 2, 4, 1, 3, 0, 1};
  const ContinuousRecording recording = generate_recording(spec, 1, script, 20260704);
  std::cout << "Streaming " << recording.frames.size() << " frames ("
            << script.size() << " gestures) per cell...\n\n";

  const std::vector<double> severities{0.0, 0.25, 0.5, 1.0};
  std::vector<FaultFamilySeries> families;
  bool counters_ok = true;

  auto sweep = [&](const std::string& kind_name,
                   auto&& make_config) {
    FaultFamilySeries series;
    series.kind = kind_name;
    for (double severity : severities) {
      series.rows.push_back(run_cell(recording, script, config, model_path,
                                     make_config(severity), severity, counters_ok));
      const FaultSweepRow& r = series.rows.back();
      std::cout << "  " << kind_name << " s=" << severity << ": " << r.frames_delivered
                << "/" << r.frames_in << " frames, " << r.segments << " segments, "
                << r.classified << " classified, " << r.abstained << " abstained, "
                << r.correct << " correct, " << r.uncaught_exceptions << " exceptions\n";
    }
    families.push_back(std::move(series));
  };

  for (faults::FaultKind kind : faults::all_fault_kinds()) {
    sweep(faults::fault_kind_name(kind), [&](double s) {
      return faults::FaultConfig::preset(kind, s);
    });
  }
  sweep("mixed", [&](double s) { return faults::FaultConfig::mixed(s); });

  // accuracy = correct/classified (0 when nothing was classified).
  std::vector<obs::BenchRecord> records;
  for (const FaultFamilySeries& family : families) {
    for (const FaultSweepRow& r : family.rows) {
      const std::string case_name = "kind=" + family.kind +
                                    " severity=" + obs::json::number(r.severity) +
                                    " abstain_margin=" + obs::json::number(config.abstain_margin);
      const auto count = [&](const char* metric, std::uint64_t v) {
        records.push_back({case_name, metric, "count", static_cast<double>(v)});
      };
      count("frames_in", r.frames_in);
      count("frames_delivered", r.frames_delivered);
      count("frames_dropped", r.frames_dropped);
      count("ghost_points", r.ghost_points);
      count("points_removed", r.points_removed);
      count("segments", r.segments);
      count("classified", r.classified);
      count("abstained", r.abstained);
      count("correct", r.correct);
      count("uncaught_exceptions", r.uncaught_exceptions);
      records.push_back({case_name, "accuracy", "fraction",
                         r.classified == 0 ? 0.0
                                           : static_cast<double>(r.correct) /
                                                 static_cast<double>(r.classified)});
    }
  }
  const std::string path = output_dir() + "/BENCH_faults.jsonl";
  obs::write_bench_records(path, "faults", records);
  std::cout << "\nWrote " << path << "\n";

  // Self-check the degradation invariants (plus the per-cell counter
  // cross-check above) so CI can gate on the exit code without parsing the
  // artifact.
  bool ok = counters_ok;
  std::uint64_t worst_abstained = 0;
  for (const auto& family : families) {
    const auto& clean = families.front().rows.front();
    const auto& zero = family.rows.front();
    if (zero.segments != clean.segments || zero.classified != clean.classified ||
        zero.correct != clean.correct) {
      std::cout << "FAIL: " << family.kind << " severity 0 deviates from clean baseline\n";
      ok = false;
    }
    for (const auto& row : family.rows) {
      if (row.uncaught_exceptions != 0) {
        std::cout << "FAIL: " << family.kind << " s=" << row.severity
                  << " had uncaught exceptions\n";
        ok = false;
      }
    }
    worst_abstained += family.rows.back().abstained;
  }
  if (worst_abstained == 0) {
    std::cout << "FAIL: no abstentions at maximum severity (gate never fired)\n";
    ok = false;
  }
  std::cout << (ok ? "Graceful degradation invariants hold.\n" : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
