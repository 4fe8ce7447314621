// The benchmark's two workloads and the pieces they share.
//
// Inputs come from the radar + kinematics synthesis (generate_dataset,
// generate_recording), seeded from the benchmark's --seed; the program under
// test only ever sees the generated clouds and frames.
//
//  * offline — fit() a serialized-mode GesturePrintSystem with the paper-table
//    training config, evaluate() it on a separately generated held-out set of
//    the same cohort, then a single caller runs a closed loop of classify().
//  * serve   — set-up trains the served model; the measured part drives a
//    serve::Server open loop on a time-compressed 10 fps radar clock up a
//    ladder of aggregate frame rates.
//
// Every run prints every end-to-end metric, so each workload also measures
// the other's family on its own model: offline runs the serve ladder on its
// fitted model, serve runs the classify loop on its served model and scores
// the served answers against the recordings' ground truth. In both, the
// measured phase alternates classify() chunks with ladder climbs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datasets/dataset.hpp"
#include "harness.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace gp::perfbench {

/// Every size the benchmark uses. The defaults are the measured
/// configuration; tiny() is the self-test's (same code paths, seconds
/// instead of a minute).
struct Sizes {
  std::size_t gestures = 5;          ///< first N gestures of the ASL set
  std::size_t users = 4;             ///< cohort size (user_seed is fixed)
  std::size_t enroll_reps = 4;       ///< offline fit set: reps per (gesture, user)
  std::size_t heldout_reps = 10;     ///< offline held-out set: reps per pair
  std::size_t serve_enroll_reps = 3; ///< served model's training set
  std::size_t epochs = 0;            ///< 0 = bench::default_system_config()'s
  std::size_t classify_min_calls = 1000;  ///< so p99 has >= 10 samples beyond it
  std::size_t repeat_check_calls = 100;   ///< classify() calls replayed for the digest
  std::size_t sessions = 16;              ///< serve sessions (>= 16 so batches form)
  std::size_t gestures_per_session = 30;  ///< ~1700 frames: >= 1000 nominal ticks
  std::size_t short_rung_rounds = 350;    ///< rounds streamed by non-nominal rungs
  /// Aggregate frame rates, ascending: three rungs well under capacity, then
  /// 10% steps across the knee (13k-20k frames/s, one thread, 4-vCPU x86-64
  /// host).
  std::vector<double> ladder_fps = default_ladder();
  std::size_t nominal_rung = 1;  ///< streams the full recordings

  static std::vector<double> default_ladder();

  static Sizes tiny();
};

/// Latency limit on the answer p95 for a rung to count as sustained: one
/// radar frame period at 10 fps.
inline constexpr double kAnswerLimitMs = 100.0;

/// What a standalone GestureSegmenter reports for the first `frames` frames
/// of one recording (then finish()): serve emits one ordinal per emission.
struct Segmentation {
  std::size_t frames = 0;
  /// Per ordinal: index of the frame whose push completed the segment, or
  /// `frames` for a segment flushed by finish() at end of stream.
  std::vector<std::size_t> completing_frame;
  /// Per ordinal: ground-truth gesture with the largest frame overlap, or -1.
  std::vector<int> truth_gesture;
};

struct SessionStream {
  std::uint64_t session_id = 0;
  int user = 0;
  ContinuousRecording recording;
  Segmentation full;   ///< the whole recording (nominal rung)
  Segmentation shorter;  ///< the first Sizes::short_rung_rounds frames
};

/// Streams plus the preprocessed clouds of every full-recording segment.
struct StreamSet {
  std::vector<SessionStream> sessions;
  std::vector<GestureCloud> segment_clouds;  ///< kGood, non-empty clouds only
  std::size_t truth_gestures = 0;
  std::size_t max_frames() const;
};

/// The answer fields the digest covers (DESIGN.md §8: invariant to batch
/// composition, thread count and shard placement).
struct Answer {
  bool present = false;
  int gesture = -1;
  int user = -1;
  double gesture_margin = 0.0;
  double user_margin = 0.0;
};

struct RungResult {
  double rate_fps = 0.0;
  std::size_t rung = 0;  ///< index into Sizes::ladder_fps
  std::size_t pass = 0;
  bool nominal = false;
  std::size_t rounds = 0;
  std::uint64_t frames_pushed = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t segments_expected = 0;  ///< standalone segmenter emissions
  std::uint64_t answered = 0;
  std::uint64_t stray_answers = 0;  ///< duplicates, unknown sessions, implausible ordinals
  std::uint64_t batches = 0;
  std::uint64_t batch_segments = 0;
  std::uint64_t abstained = 0;  ///< margin gate or quality guard fired
  Samples tick_ms;    ///< pump() wall per tick
  Samples answer_ms;  ///< due time of the completing frame -> result arrival
  Samples late_ms;    ///< generator lateness per round
  Samples push_us;    ///< push_frame() wall per frame
  double pump_busy_ms = 0.0;  ///< total time inside pump()/drain()
  double wall_s = 0.0;
  bool backlog_growing = false;
  /// Per session, answers indexed by ordinal.
  std::vector<std::vector<Answer>> answers;

  bool frames_lost() const { return frames_rejected + frames_shed > 0; }
  std::uint64_t unanswered() const {
    return segments_expected > answered ? segments_expected - answered : 0;
  }
  /// Sustained: answer p95 within the limit, nothing lost or unanswered,
  /// and no growing backlog.
  bool sustained() const;
};

/// Number of sustained rungs. On an ascending ladder whose verdicts step
/// from sustained to not sustained once, rung (count - 1) is the highest
/// sustained rung; when timing noise flips a rung near the knee, the count
/// moves the estimate by one step either way instead of jumping to an
/// outlier. Monotone: making any rung sustained never lowers it.
std::size_t sustained_rungs(const std::vector<bool>& sustained);

/// Everything one run measured, before it is turned into metrics.
struct RunOutcome {
  Samples setup_s;
  Samples generate_s;
  Samples fit_epoch_s;  ///< fit() wall / epochs, one sample per fit
  double gra = 0.0;
  double uia = 0.0;
  Samples classify_ms;
  std::uint64_t classify_calls = 0;
  std::uint64_t classify_failed = 0;
  Samples classify_traced_ms;    ///< traced run: calls inside a span
  Samples classify_untraced_ms;  ///< traced run: calls outside any span
  double evaluate_samples_per_s = 0.0;
  std::vector<RungResult> ladder;  ///< every rung pass, in the order run
  Samples pass_max_fps;            ///< per climb: rate of rung (sustained rungs - 1)
  double max_fps = 0.0;            ///< mean of pass_max_fps
  std::vector<std::string> violations;  ///< failed correctness checks
  std::uint64_t classify_digest = 0;
  std::uint64_t answer_digest = 0;

  /// The nominal rung's pass, or nullptr when the ladder did not run.
  const RungResult* nominal() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool corrupt_digest = false;  ///< self-test: tamper with one served answer
  Sizes sizes;
  std::string out_dir;
};

/// A workload's outcome plus the model and inputs its per-layer probes
/// reuse (the probes time public calls on the workload's own inputs).
struct WorkloadRun {
  RunOutcome outcome;
  std::unique_ptr<GesturePrintSystem> system;  ///< fitted, unfused
  std::vector<GestureCloud> clouds;            ///< the classify loop's inputs
  StreamSet streams;
  Dataset eval_set;  ///< what system.evaluate_samples_per_s evaluates
};

WorkloadRun run_offline(const Options& options, Tracer& tracer);
WorkloadRun run_serve(const Options& options, Tracer& tracer);

}  // namespace gp::perfbench
