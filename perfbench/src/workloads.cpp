#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <thread>

#include "bench_util.hpp"
#include "datasets/catalog.hpp"
#include "exec/exec.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/registry.hpp"

namespace gp::perfbench {

namespace {

/// A rung whose generator lateness rises by more than this between the
/// first and the last quarter of its rounds is falling behind its schedule.
constexpr double kBacklogGrowthMs = 20.0;

/// Set-ups per run; setup_s is their median. The serve set-up trains the
/// served model, so it runs fewer; it needs three, because the classify
/// repeat check uses the two spare identical models.
constexpr std::size_t kOfflineSetups = 5;
constexpr std::size_t kServeSetups = 3;

/// Passes of the measured phase. Each is one chunk of the classify() loop
/// followed by a climb of the ladder; the first climb runs every rung, later
/// ones only the rungs above the nominal one. The shared host moves between
/// fast and slow periods lasting seconds, and a single climb samples only
/// one of them, so serve_max_fps averages the climbs.
constexpr std::size_t kPasses = 3;

/// Seed of the enrollment (training) sets. The cohort and its enrollment
/// are fixed, so every --seed trains the same model and differs only in the
/// traffic it is measured on: held-out samples and recordings. Accuracy then
/// varies across seeds by test sampling alone, not by model variance.
constexpr std::uint64_t kEnrollSeed = 0xE2011;

/// Fixed cohort: every seed draws new recordings and samples of the same
/// users (generate_dataset derives biometrics from user_seed alone).
DatasetSpec cohort_spec(const Sizes& sizes, std::uint64_t seed, std::size_t reps) {
  DatasetScale scale;
  scale.max_users = sizes.users;
  scale.reps = reps;
  DatasetSpec spec = gestureprint_spec(0, scale);
  spec.gestures.resize(sizes.gestures);
  spec.seed = seed;
  return spec;
}

GesturePrintConfig system_config(const Sizes& sizes) {
  GesturePrintConfig config = bench::default_system_config();
  if (sizes.epochs != 0) config.training.epochs = sizes.epochs;
  return config;
}

std::vector<std::size_t> every_index(const Dataset& dataset) {
  std::vector<std::size_t> idx(dataset.samples.size());
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

void digest_cloud(Digest& d, const PointCloud& cloud) {
  d.add(cloud.size());
  for (const RadarPoint& p : cloud) {
    d.add(p.position.x);
    d.add(p.position.y);
    d.add(p.position.z);
    d.add(p.velocity);
    d.add(p.snr_db);
    d.add(p.frame);
  }
}

std::uint64_t digest_inputs(const std::vector<const Dataset*>& datasets, const StreamSet& streams) {
  Digest d;
  for (const Dataset* ds : datasets) {
    for (const GestureSample& s : ds->samples) {
      d.add(s.gesture);
      d.add(s.user);
      digest_cloud(d, s.cloud.points);
    }
  }
  for (const SessionStream& s : streams.sessions) {
    for (const FrameCloud& f : s.recording.frames) digest_cloud(d, f.points);
  }
  return d.value();
}

void digest_model(Digest& d, GesIDNet& model) {
  for (nn::Parameter* p : model.parameters()) {
    d.add_bytes(p->value.data().data(), p->value.data().size_bytes());
  }
  for (nn::Parameter* p : model.buffers()) {
    d.add_bytes(p->value.data().data(), p->value.data().size_bytes());
  }
}

std::uint64_t digest_system(GesturePrintSystem& system) {
  Digest d;
  digest_model(d, system.gesture_model());
  for (std::size_t g = 0; g < system.num_user_models(); ++g) {
    if (GesIDNet* m = system.user_model(g)) digest_model(d, *m);
  }
  return d.value();
}

/// The answer fields a digest covers: gesture, user and both margins.
template <typename A>
void digest_answer(Digest& d, const A& answer) {
  d.add(answer.gesture);
  d.add(answer.user);
  d.add(answer.gesture_margin);
  d.add(answer.user_margin);
}

Dataset generate(const DatasetSpec& spec, Tracer& tracer, RunOutcome& out) {
  auto span = tracer.span("datasets.generate_dataset");
  const Clock::time_point t0 = Clock::now();
  Dataset ds = generate_dataset(spec);
  out.generate_s.add(ms_since(t0) / 1e3);
  return ds;
}

/// Runs a standalone segmenter over the first `frames` frames of `rec`.
Segmentation segment(const ContinuousRecording& rec, std::size_t frames,
                     const Preprocessor* preprocessor, std::vector<GestureCloud>* clouds) {
  Segmentation seg;
  seg.frames = frames;
  GestureSegmenter segmenter;
  const auto consume = [&](const GestureSegment& s, std::size_t completing) {
    seg.completing_frame.push_back(completing);
    int best = -1;
    std::size_t best_overlap = 0;
    for (std::size_t t = 0; t < rec.truth_spans.size(); ++t) {
      const auto [lo, hi] = rec.truth_spans[t];
      const std::size_t a = std::max(lo, s.start_frame);
      const std::size_t b = std::min(hi, s.end_frame);
      if (b >= a && b - a + 1 > best_overlap) {
        best_overlap = b - a + 1;
        best = rec.gestures[t];
      }
    }
    seg.truth_gesture.push_back(best);
    if (clouds != nullptr) {
      GestureCloud cloud = preprocessor->process_segment(s.frames);
      if (cloud.quality == SegmentQuality::kGood && !cloud.points.empty()) {
        clouds->push_back(std::move(cloud));
      }
    }
  };
  for (std::size_t f = 0; f < frames; ++f) {
    segmenter.push(rec.frames[f]);
    for (const GestureSegment& s : segmenter.take_segments()) consume(s, f);
  }
  segmenter.finish();
  for (const GestureSegment& s : segmenter.take_segments()) consume(s, frames);
  return seg;
}

StreamSet make_streams(const DatasetSpec& spec, const Sizes& sizes, std::uint64_t seed,
                       Tracer& tracer) {
  StreamSet set;
  const Preprocessor preprocessor;
  Rng script_rng(exec::child_seed(seed, 0x5C819), 1);
  for (std::size_t s = 0; s < sizes.sessions; ++s) {
    SessionStream stream;
    stream.session_id = s + 1;
    stream.user = static_cast<int>(s % spec.num_users);
    std::vector<int> script(sizes.gestures_per_session);
    for (int& g : script) g = static_cast<int>(script_rng.index(spec.gestures.size()));
    {
      auto span = tracer.span("datasets.generate_recording");
      stream.recording = generate_recording(spec, static_cast<std::size_t>(stream.user), script,
                                            exec::child_seed(seed, 0x4EC0 + s));
    }
    const std::size_t n = stream.recording.frames.size();
    stream.full = segment(stream.recording, n, &preprocessor, &set.segment_clouds);
    stream.shorter = segment(stream.recording, std::min(n, sizes.short_rung_rounds), nullptr,
                             nullptr);
    set.truth_gestures += stream.recording.truth_spans.size();
    set.sessions.push_back(std::move(stream));
  }
  return set;
}

void wait_until(Clock::time_point due) {
  // Sleep for the bulk of the wait, then spin: sleep_until overshoots by
  // tens of microseconds, which would show up as generator lateness.
  const Clock::time_point coarse = due - std::chrono::microseconds(300);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) {
  }
}

/// One ladder rung: an open-loop stream at `rate_fps` aggregate frames/s.
/// Round k (frame k of every session) is due at t0 + k * sessions / rate;
/// each loop iteration pushes every round that is due, then pumps once.
RungResult run_rung(serve::ModelRegistry& registry, const serve::ServeConfig& serve_config,
                    const StreamSet& streams, const Sizes& sizes, std::size_t index,
                    std::size_t pass, Tracer& tracer) {
  auto rung_span = tracer.span("serve.rung");
  RungResult rung;
  rung.rate_fps = sizes.ladder_fps[index];
  rung.rung = index;
  rung.pass = pass;
  rung.nominal = index == sizes.nominal_rung;
  const bool nominal = rung.nominal;
  const double rate_fps = rung.rate_fps;
  rung.rounds = nominal ? streams.max_frames()
                        : std::min(sizes.short_rung_rounds, streams.max_frames());
  const auto seg_of = [&](const SessionStream& s) -> const Segmentation& {
    return nominal ? s.full : s.shorter;
  };
  rung.answers.resize(streams.sessions.size());
  for (std::size_t s = 0; s < streams.sessions.size(); ++s) {
    const Segmentation& seg = seg_of(streams.sessions[s]);
    rung.answers[s].resize(seg.completing_frame.size());
    rung.segments_expected += seg.completing_frame.size();
  }

  serve::Server server(serve_config, registry);
  const double period_s = static_cast<double>(streams.sessions.size()) / rate_fps;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t round) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(round) * period_s));
  };

  const auto record = [&](std::vector<serve::ServeResult>& results, Clock::time_point arrived) {
    for (const serve::ServeResult& r : results) {
      const std::size_t s = static_cast<std::size_t>(r.session_id - 1);
      if (s >= rung.answers.size()) {
        ++rung.stray_answers;  // an answer for a session that never streamed
        continue;
      }
      std::vector<Answer>& answers = rung.answers[s];
      if (r.segment_ordinal >= answers.size()) {
        // Lost frames can change segmentation, so a few extra ordinals are
        // possible; a far-out ordinal is a corrupt answer.
        if (r.segment_ordinal > 2 * answers.size() + 16) {
          ++rung.stray_answers;
          continue;
        }
        answers.resize(r.segment_ordinal + 1);
      }
      Answer& a = answers[r.segment_ordinal];
      if (a.present) ++rung.stray_answers;
      a = {true, r.gesture, r.user, r.gesture_margin, r.user_margin};
      ++rung.answered;
      if (r.abstained || r.quality_rejected) ++rung.abstained;
      const Segmentation& seg = seg_of(streams.sessions[s]);
      if (r.segment_ordinal < seg.completing_frame.size() &&
          seg.completing_frame[r.segment_ordinal] < seg.frames) {
        rung.answer_ms.add(ms_between(due(seg.completing_frame[r.segment_ordinal]), arrived));
      }
    }
  };

  const Clock::time_point start = Clock::now();
  std::size_t k = 0;
  while (k < rung.rounds) {
    wait_until(due(k));
    std::size_t pushed = 0;
    const Clock::time_point push_begin = Clock::now();
    {
      auto span = tracer.span("serve.push_frame");
      // Open loop: every round already due goes out now, however late.
      do {
        rung.late_ms.add(ms_between(due(k), Clock::now()));
        for (const SessionStream& s : streams.sessions) {
          if (k >= s.recording.frames.size()) continue;
          const serve::Admission adm = server.push_frame(s.session_id, s.recording.frames[k]);
          ++pushed;
          if (adm != serve::Admission::kAccepted) ++rung.frames_rejected;
        }
        ++k;
      } while (k < rung.rounds && due(k) <= Clock::now());
    }
    const Clock::time_point tick_begin = Clock::now();
    if (pushed > 0) rung.push_us.add(ms_between(push_begin, tick_begin) * 1e3 / pushed);
    rung.frames_pushed += pushed;
    std::vector<serve::ServeResult> results;
    {
      auto span = tracer.span("serve.pump");
      results = server.pump();
    }
    const Clock::time_point tick_end = Clock::now();
    rung.tick_ms.add(ms_between(tick_begin, tick_end));
    rung.pump_busy_ms += ms_between(tick_begin, tick_end);
    record(results, tick_end);
  }
  const Clock::time_point drain_begin = Clock::now();
  std::vector<serve::ServeResult> tail;
  {
    auto span = tracer.span("serve.drain");
    tail = server.drain();
  }
  const Clock::time_point drain_end = Clock::now();
  rung.pump_busy_ms += ms_between(drain_begin, drain_end);
  record(tail, drain_end);
  rung.wall_s = ms_between(start, drain_end) / 1e3;

  const serve::SessionManager::Stats sstats = server.session_stats();
  rung.frames_shed = sstats.frames_shed_stale;
  rung.frames_rejected = std::max<std::uint64_t>(rung.frames_rejected,
                                                 sstats.frames_rejected_queue_full);
  const serve::MicroBatcher::Stats bstats = server.batch_stats();
  rung.batches = bstats.batches;
  rung.batch_segments = bstats.segments;

  const std::size_t quarter = rung.late_ms.count() / 4;
  if (quarter > 0) {
    const std::vector<double>& late = rung.late_ms.values();
    const double first = std::accumulate(late.begin(), late.begin() + quarter, 0.0) / quarter;
    const double last = std::accumulate(late.end() - quarter, late.end(), 0.0) / quarter;
    rung.backlog_growing = last - first > kBacklogGrowthMs;
  }
  return rung;
}

/// Correctness checks over the ladder; appends one message per violation.
/// Returns the digest of the reference rung's answers.
std::uint64_t check_ladder(std::vector<RungResult>& ladder, const StreamSet& streams,
                           bool corrupt_digest, std::vector<std::string>& violations) {
  // Every admitted segment is answered, exactly once, with contiguous
  // ordinals per session. With frames lost the expected count is unknown,
  // so only contiguity is checked.
  for (const RungResult& rung : ladder) {
    const std::string where = "rung " + std::to_string(static_cast<long long>(rung.rate_fps)) +
                              " pass " + std::to_string(rung.pass);
    if (rung.stray_answers > 0) {
      violations.push_back(where + ": " + std::to_string(rung.stray_answers) +
                           " duplicate or stray answers");
    }
    for (std::size_t s = 0; s < rung.answers.size(); ++s) {
      const std::vector<Answer>& answers = rung.answers[s];
      std::size_t present = 0;
      while (present < answers.size() && answers[present].present) ++present;
      const bool contiguous = std::none_of(answers.begin() + present, answers.end(),
                                           [](const Answer& a) { return a.present; });
      if (!contiguous) {
        violations.push_back(where + ": session " + std::to_string(s + 1) +
                             " answers have an ordinal gap");
      }
      if (!rung.frames_lost() && present != answers.size()) {
        violations.push_back(where + ": session " + std::to_string(s + 1) + " answered " +
                             std::to_string(present) + " of " + std::to_string(answers.size()) +
                             " segments");
      }
    }
  }

  // Answers are invariant to batch composition (DESIGN.md §8): every
  // loss-free rung must agree with the reference rung on every segment both
  // completed in-stream.
  std::vector<std::size_t> clean;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (!ladder[i].frames_lost()) clean.push_back(i);
  }
  if (clean.empty()) {
    violations.push_back("no ladder rung delivered every frame");
    return 0;
  }
  const auto longest = std::max_element(clean.begin(), clean.end(), [&](auto a, auto b) {
    return ladder[a].rounds < ladder[b].rounds;
  });
  const std::size_t ref = *longest;
  const auto comparable = [&](std::size_t s, std::size_t rounds) {
    // Ordinals completed by a push before both streams ended.
    const Segmentation& full = streams.sessions[s].full;
    std::size_t n = 0;
    while (n < full.completing_frame.size() && full.completing_frame[n] < rounds &&
           full.completing_frame[n] < full.frames) {
      ++n;
    }
    return n;
  };
  if (corrupt_digest) {
    bool tampered = false;
    for (std::size_t i : clean) {
      if (i == ref || tampered) continue;
      for (std::size_t s = 0; s < streams.sessions.size() && !tampered; ++s) {
        if (comparable(s, std::min(ladder[i].rounds, ladder[ref].rounds)) > 0) {
          ladder[i].answers[s][0].gesture += 1;
          tampered = true;
        }
      }
    }
    if (!tampered) violations.push_back("corrupt-digest: no comparable answer to tamper with");
  }
  for (std::size_t i : clean) {
    if (i == ref) continue;
    const std::size_t rounds = std::min(ladder[i].rounds, ladder[ref].rounds);
    for (std::size_t s = 0; s < streams.sessions.size(); ++s) {
      const std::size_t n = comparable(s, rounds);
      Digest a;
      Digest b;
      for (std::size_t o = 0; o < n; ++o) {
        digest_answer(a, ladder[i].answers[s][o]);
        digest_answer(b, ladder[ref].answers[s][o]);
      }
      if (a.value() != b.value()) {
        violations.push_back("rung " + std::to_string(static_cast<long long>(ladder[i].rate_fps)) +
                             " pass " + std::to_string(ladder[i].pass) +
                             ": session " + std::to_string(s + 1) +
                             " answer digest differs from rung " +
                             std::to_string(static_cast<long long>(ladder[ref].rate_fps)));
      }
    }
  }
  Digest d;
  for (std::size_t s = 0; s < ladder[ref].answers.size(); ++s) {
    for (std::size_t o = 0; o < ladder[ref].answers[s].size(); ++o) {
      d.add(s);
      d.add(o);
      digest_answer(d, ladder[ref].answers[s][o]);
    }
  }
  return d.value();
}

bool valid_label(int label, std::size_t classes) {
  return label == kAbstain || (label >= 0 && static_cast<std::size_t>(label) < classes);
}

/// One chunk of the closed classify() loop by a single caller over
/// `clouds`: at least `min_calls` calls and `min_seconds` of calls. Call
/// numbers continue across chunks; the first `digest_calls` calls of the
/// whole loop feed `digest`.
void classify_chunk(GesturePrintSystem& system, const std::vector<GestureCloud>& clouds,
                    std::size_t min_calls, double min_seconds, std::size_t digest_calls,
                    Digest& digest, Tracer& tracer, RunOutcome& out) {
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0; n < min_calls || ms_since(start) < min_seconds * 1e3; ++n) {
    const std::size_t i = out.classify_calls;
    const std::size_t j = i % clouds.size();
    const GestureCloud& cloud = clouds[j];
    // In the traced run half the calls sit in a span, so the tracing
    // overhead is the difference of the two halves' medians. Each cloud
    // alternates between the halves from one pass to the next, so both
    // halves classify the same inputs.
    const bool traced = tracer.enabled() && (j + i / clouds.size()) % 2 == 0;
    const Clock::time_point t = Clock::now();
    bool ok = true;
    InferenceResult r;
    try {
      if (traced) {
        auto span = tracer.span("system.classify");
        r = system.classify(cloud);
      } else {
        r = system.classify(cloud);
      }
      ok = valid_label(r.gesture, system.num_gestures()) &&
           valid_label(r.user, system.num_users());
    } catch (const std::exception&) {
      ok = false;
    }
    const double ms = ms_since(t);
    out.classify_ms.add(ms);
    if (tracer.enabled()) (traced ? out.classify_traced_ms : out.classify_untraced_ms).add(ms);
    ++out.classify_calls;
    if (!ok) ++out.classify_failed;
    if (i < digest_calls) digest_answer(digest, r);
  }
}

/// The measured phase after set-up: kPasses passes, each a chunk of the
/// classify() loop on `system` followed by a climb of the serve ladder on
/// `registry`'s model. Then the ladder's correctness checks and
/// serve_max_fps: the mean over climbs of each climb's sustained-rung rate,
/// where a later climb takes the rungs it skips from the first.
void measure(GesturePrintSystem& system, const std::vector<GestureCloud>& clouds,
             serve::ModelRegistry& registry, const GesturePrintConfig& config,
             const StreamSet& streams, const Options& options, Tracer& tracer,
             RunOutcome& out) {
  auto span = tracer.span("measure");
  serve::ServeConfig serve_config;  // shipped defaults: health on, quant off
  serve_config.system = config;
  const Sizes& sizes = options.sizes;
  const std::size_t chunk_calls = (sizes.classify_min_calls + kPasses - 1) / kPasses;
  const double chunk_seconds = options.seconds / 4 / static_cast<double>(kPasses);
  Digest digest;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    classify_chunk(system, clouds, chunk_calls, chunk_seconds, sizes.repeat_check_calls, digest,
                   tracer, out);
    auto ladder_span = tracer.span("serve.ladder");
    const std::size_t first = pass == 0 ? 0 : sizes.nominal_rung + 1;
    for (std::size_t i = first; i < sizes.ladder_fps.size(); ++i) {
      out.ladder.push_back(run_rung(registry, serve_config, streams, sizes, i, pass, tracer));
    }
  }
  out.classify_digest = digest.value();
  out.answer_digest = check_ladder(out.ladder, streams, options.corrupt_digest, out.violations);

  std::vector<bool> verdicts(sizes.ladder_fps.size(), false);
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (const RungResult& r : out.ladder) {
      if (r.pass == pass) verdicts[r.rung] = r.sustained();
    }
    const std::size_t n = sustained_rungs(verdicts);
    out.pass_max_fps.add(n == 0 ? 0.0 : sizes.ladder_fps[n - 1]);
  }
  out.max_fps = out.pass_max_fps.mean();
}

std::uint64_t replay_digest(GesturePrintSystem& system, const std::vector<GestureCloud>& clouds,
                            std::size_t calls) {
  Digest digest;
  for (std::size_t i = 0; i < calls; ++i) {
    digest_answer(digest, system.classify(clouds[i % clouds.size()]));
  }
  return digest.value();
}

SystemEvaluation evaluate_timed(GesturePrintSystem& system, const Dataset& dataset,
                                Tracer& tracer, double* samples_per_s) {
  auto span = tracer.span("system.evaluate");
  const std::vector<std::size_t> idx = every_index(dataset);
  const Clock::time_point t0 = Clock::now();
  SystemEvaluation ev = system.evaluate(dataset, idx);
  if (samples_per_s != nullptr) *samples_per_s = idx.size() / (ms_since(t0) / 1e3);
  return ev;
}

/// Evaluates `a` and its twin `b` (same weights, same state): gra/uia must
/// repeat exactly.
SystemEvaluation evaluate_twins(GesturePrintSystem& a, GesturePrintSystem& b,
                                const Dataset& eval_set, Tracer& tracer, RunOutcome& out) {
  const SystemEvaluation ev_a = evaluate_timed(a, eval_set, tracer, &out.evaluate_samples_per_s);
  const SystemEvaluation ev_b = evaluate_timed(b, eval_set, tracer, nullptr);
  if (ev_a.gra != ev_b.gra || ev_a.uia != ev_b.uia) {
    out.violations.push_back("evaluate() gra/uia differ between two identical systems");
  }
  return ev_a;
}

/// Replays the start of the measured classify loop on the twin `b`: the
/// answer digest must repeat exactly.
void check_classify_repeat(GesturePrintSystem& b, const std::vector<GestureCloud>& clouds,
                           const Sizes& sizes, RunOutcome& out) {
  if (replay_digest(b, clouds, sizes.repeat_check_calls) != out.classify_digest) {
    out.violations.push_back("classify() digest differs between two identical systems");
  }
}

}  // namespace

Sizes Sizes::tiny() {
  Sizes s;
  s.gestures = 3;
  s.users = 2;
  s.enroll_reps = 2;
  s.heldout_reps = 2;
  s.serve_enroll_reps = 2;
  s.epochs = 1;
  s.classify_min_calls = 40;
  s.repeat_check_calls = 10;
  s.gestures_per_session = 4;
  s.short_rung_rounds = 120;
  s.ladder_fps = {2000, 4000, 40000};
  s.nominal_rung = 1;
  return s;
}

std::size_t StreamSet::max_frames() const {
  std::size_t n = 0;
  for (const SessionStream& s : sessions) n = std::max(n, s.recording.frames.size());
  return n;
}

const RungResult* RunOutcome::nominal() const {
  for (const RungResult& r : ladder) {
    if (r.nominal) return &r;
  }
  return nullptr;
}

bool RungResult::sustained() const {
  return !answer_ms.empty() && answer_ms.quantile(0.95) <= kAnswerLimitMs && !frames_lost() &&
         unanswered() == 0 && stray_answers == 0 && !backlog_growing;
}

std::size_t sustained_rungs(const std::vector<bool>& sustained) {
  return static_cast<std::size_t>(std::count(sustained.begin(), sustained.end(), true));
}

std::vector<double> Sizes::default_ladder() {
  std::vector<double> ladder{4000, 6000, 9000};
  for (double rate = 12000; rate < 32000; rate *= 1.1) ladder.push_back(std::round(rate));
  return ladder;
}

WorkloadRun run_offline(const Options& options, Tracer& tracer) {
  WorkloadRun run;
  RunOutcome& out = run.outcome;
  const Sizes& sizes = options.sizes;
  const GesturePrintConfig config = system_config(sizes);

  // Set-up: the enrollment set, a held-out set of the same cohort, and the
  // recordings the serve ladder streams. Repeated; each repeat must
  // generate identical inputs.
  Dataset enroll;
  std::uint64_t first_digest = 0;
  for (std::size_t r = 0; r < kOfflineSetups; ++r) {
    auto span = tracer.span("setup");
    const Clock::time_point t0 = Clock::now();
    Dataset e = generate(cohort_spec(sizes, kEnrollSeed, sizes.enroll_reps),
                         tracer, out);
    Dataset h = generate(
        cohort_spec(sizes, exec::child_seed(options.seed, 2), sizes.heldout_reps), tracer, out);
    StreamSet st = make_streams(cohort_spec(sizes, exec::child_seed(options.seed, 3), 1), sizes,
                                options.seed, tracer);
    out.setup_s.add(ms_since(t0) / 1e3);
    const std::uint64_t d = digest_inputs({&e, &h}, st);
    if (r == 0) {
      first_digest = d;
      enroll = std::move(e);
      run.eval_set = std::move(h);
      run.streams = std::move(st);
    } else if (d != first_digest) {
      out.violations.push_back("set-up repeat generated different inputs from the same seed");
    }
  }

  GesturePrintSystem fitted(config);
  {
    auto span = tracer.span("system.fit");
    const Clock::time_point t0 = Clock::now();
    fitted.fit(enroll, every_index(enroll));
    out.fit_epoch_s.add(ms_since(t0) / 1e3 / static_cast<double>(config.training.epochs));
  }
  // Two identical copies of the fitted system: `a` is measured, `b` replays
  // it for the repeat check; the registry publishes a third.
  const std::string model_path = options.out_dir + "/offline_model.gpsy";
  fitted.save(model_path);
  run.system = std::make_unique<GesturePrintSystem>(config);
  run.system->load(model_path);
  GesturePrintSystem twin(config);
  twin.load(model_path);

  for (const GestureSample& s : run.eval_set.samples) run.clouds.push_back(s.cloud);
  const SystemEvaluation ev = evaluate_twins(*run.system, twin, run.eval_set, tracer, out);
  out.gra = ev.gra;
  out.uia = ev.uia;

  serve::ModelRegistry registry(config);
  if (!registry.publish_file(model_path, nn::QuantMode::kOff)) {
    out.violations.push_back("could not publish the fitted model");
    return run;
  }
  measure(*run.system, run.clouds, registry, config, run.streams, options, tracer, out);
  check_classify_repeat(twin, run.clouds, sizes, out);
  return run;
}

WorkloadRun run_serve(const Options& options, Tracer& tracer) {
  WorkloadRun run;
  RunOutcome& out = run.outcome;
  const Sizes& sizes = options.sizes;
  const GesturePrintConfig config = system_config(sizes);

  // Set-up: generate the served model's training set and the recordings,
  // then train the model. Repeated; each repeat must produce identical
  // inputs and a bitwise-identical model (fit() is deterministic).
  std::vector<std::unique_ptr<GesturePrintSystem>> systems;
  std::uint64_t first_digest = 0;
  for (std::size_t r = 0; r < kServeSetups; ++r) {
    auto span = tracer.span("setup");
    const Clock::time_point t0 = Clock::now();
    Dataset e = generate(
        cohort_spec(sizes, kEnrollSeed, sizes.serve_enroll_reps), tracer,
        out);
    StreamSet st = make_streams(cohort_spec(sizes, exec::child_seed(options.seed, 3), 1), sizes,
                                options.seed, tracer);
    auto system = std::make_unique<GesturePrintSystem>(config);
    {
      auto fit_span = tracer.span("system.fit");
      const Clock::time_point f0 = Clock::now();
      system->fit(e, every_index(e));
      out.fit_epoch_s.add(ms_since(f0) / 1e3 / static_cast<double>(config.training.epochs));
    }
    out.setup_s.add(ms_since(t0) / 1e3);
    Digest d;
    d.add(digest_inputs({&e}, st));
    d.add(digest_system(*system));
    if (r == 0) {
      first_digest = d.value();
      run.eval_set = std::move(e);
      run.streams = std::move(st);
    } else if (d.value() != first_digest) {
      out.violations.push_back("set-up repeat produced different inputs or a different model");
    }
    systems.push_back(std::move(system));
  }

  serve::ModelRegistry registry(config);
  registry.publish(std::move(systems[0]), nn::QuantMode::kOff);
  run.clouds = run.streams.segment_clouds;
  run.system = std::move(systems[1]);
  evaluate_twins(*run.system, *systems[2], run.eval_set, tracer, out);
  measure(*run.system, run.clouds, registry, config, run.streams, options, tracer, out);
  check_classify_repeat(*systems[2], run.clouds, sizes, out);

  // Served accuracy at the nominal rung: each in-stream segment's answer
  // against the recording's ground truth (abstentions count as wrong).
  const RungResult& nominal = *out.nominal();
  std::size_t scored = 0, gesture_ok = 0, user_ok = 0;
  for (std::size_t s = 0; s < run.streams.sessions.size(); ++s) {
    const SessionStream& stream = run.streams.sessions[s];
    const std::size_t n = std::min(nominal.answers[s].size(), stream.full.truth_gesture.size());
    for (std::size_t o = 0; o < n; ++o) {
      const Answer& a = nominal.answers[s][o];
      if (!a.present) continue;
      ++scored;
      gesture_ok += a.gesture == stream.full.truth_gesture[o];
      user_ok += a.user == stream.user;
    }
  }
  if (scored > 0) {
    out.gra = static_cast<double>(gesture_ok) / static_cast<double>(scored);
    out.uia = static_cast<double>(user_ok) / static_cast<double>(scored);
  }
  return run;
}

}  // namespace gp::perfbench
