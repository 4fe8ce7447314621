// gp::enroll end-to-end evidence (DESIGN.md §13): open-set EER before vs
// after enrollment, plus the live serve-path story — an unknown performer's
// segments are novelty-rejected, buffered into a candidate, head-only
// fine-tuned into a widened user head, and hot-swap published with zero
// dropped results. Emits <output_dir>/BENCH_enroll.jsonl and self-checks the
// headline invariants on the exit code:
//   1. the swap is lossless: the enrollment run produces exactly as many
//      results as an enrollment-free reference run of the same streams;
//   2. at least one user is enrolled and the registry version advances;
//   3. open-set EER does not get worse after enrollment (the newcomer's
//      held-out samples move from impostor-like to genuine).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "enroll/enroll.hpp"
#include "eval/splits.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"
#include "system/open_set.hpp"

namespace {

using namespace gp;

/// Equal-error rate of a genuine/impostor novelty-score separation: sweep
/// the threshold over the pooled scores and report the point where the
/// false-rejection and false-acceptance rates cross.
double equal_error_rate(const std::vector<double>& genuine,
                        const std::vector<double>& impostor) {
  if (genuine.empty() || impostor.empty()) return 1.0;
  std::vector<double> thresholds = genuine;
  thresholds.insert(thresholds.end(), impostor.begin(), impostor.end());
  std::sort(thresholds.begin(), thresholds.end());
  double best_gap = 2.0;
  double eer = 1.0;
  for (const double t : thresholds) {
    std::size_t fr = 0;
    for (const double g : genuine) fr += g > t ? 1 : 0;
    std::size_t fa = 0;
    for (const double i : impostor) fa += i <= t ? 1 : 0;
    const double frr = static_cast<double>(fr) / static_cast<double>(genuine.size());
    const double far = static_cast<double>(fa) / static_cast<double>(impostor.size());
    const double gap = std::abs(frr - far);
    if (gap < best_gap || (gap == best_gap && (frr + far) / 2.0 < eer)) {
      best_gap = gap;
      eer = (frr + far) / 2.0;
    }
  }
  return eer;
}

/// Novelty scores of every sample in `dataset` (restricted to `indices`, or
/// all samples when empty) under `gallery`.
std::vector<double> novelty_scores(const BiometricGallery& gallery, const Dataset& dataset,
                                   const std::vector<std::size_t>& indices) {
  std::vector<double> scores;
  const auto score_one = [&](const GestureSample& s) {
    scores.push_back(gallery.novelty(s.gesture, biometric_stats(s.cloud)));
  };
  if (indices.empty()) {
    for (const GestureSample& s : dataset.samples) score_one(s);
  } else {
    for (const std::size_t i : indices) score_one(dataset.samples[i]);
  }
  return scores;
}

double accept_rate(const BiometricGallery& gallery, const std::vector<double>& scores) {
  if (scores.empty()) return 0.0;
  std::size_t accepted = 0;
  for (const double s : scores) accepted += gallery.accepts(s) ? 1 : 0;
  return static_cast<double>(accepted) / static_cast<double>(scores.size());
}

/// One open-set operating point: the same newcomer-vs-enrolled separation
/// measured before and after the enrollment pipeline ran. `newcomer_reject`
/// is the fraction of newcomer segments the gate still rejects at the
/// calibrated threshold.
struct OpenSetRow {
  std::string phase;  ///< "before" | "after"
  double eer = 0.0;
  double threshold = 0.0;
  double genuine_accept = 0.0;
  double newcomer_reject = 0.0;
};

OpenSetRow open_set_row(const std::string& phase, const BiometricGallery& gallery,
                        const Dataset& enrolled_test, const std::vector<std::size_t>& test_idx,
                        const Dataset& newcomer_heldout, const Dataset& stranger) {
  const std::vector<double> genuine_enrolled =
      novelty_scores(gallery, enrolled_test, test_idx);
  const std::vector<double> genuine_newcomer = novelty_scores(gallery, newcomer_heldout, {});
  const std::vector<double> impostor = novelty_scores(gallery, stranger, {});
  std::vector<double> genuine = genuine_enrolled;
  genuine.insert(genuine.end(), genuine_newcomer.begin(), genuine_newcomer.end());

  OpenSetRow row;
  row.phase = phase;
  // The EER enrollment targets: can novelty scoring separate the (to-be-)
  // enrolled newcomer from people who stay strangers? Before enrollment both
  // cohorts are unseen, so this sits near chance; gallery anchors gained
  // during enrollment are what pull it down.
  row.eer = equal_error_rate(genuine_newcomer, impostor);
  row.threshold = gallery.threshold();
  row.genuine_accept = accept_rate(gallery, genuine);
  row.newcomer_reject = 1.0 - accept_rate(gallery, genuine_newcomer);
  std::cout << "  open-set[" << phase << "]: newcomer-vs-stranger EER=" << row.eer
            << " genuine_accept=" << row.genuine_accept
            << " newcomer_reject=" << row.newcomer_reject << " (threshold "
            << row.threshold << ")\n";
  return row;
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("enroll_bench", "DESIGN.md §13 (open-set enrollment; extends §IV-C)");

  // ---- world: enrolled cohort, a newcomer, and an always-stranger ---------
  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 8;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(3);
  const Dataset dataset = generate_dataset(spec);

  GesturePrintConfig config;
  config.training.epochs = 6;
  config.training.batch_size = 16;
  config.prep.augmentation.copies = 2;
  config.abstain_margin = 0.0;

  std::cout << "Training on " << spec.num_users << " users x " << spec.gestures.size()
            << " gestures...\n";
  Rng split_rng(3, 1);
  const Split split = stratified_split(dataset.gesture_labels(), 0.2, split_rng);
  const std::string model_path = output_dir() + "/enroll_bench_model.gpsy";
  {
    GesturePrintSystem system(config);
    system.fit(dataset, split.train);
    system.save(model_path);
  }

  // The newcomer: a body the system never saw (user 0 of a different-seed
  // cohort), later enrolled live. The stranger cohort stays unauthorized
  // throughout. Held-out newcomer samples are restricted to user 0 — the
  // person whose recording streams below.
  const auto cohort_user0 = [](DatasetSpec cohort_spec) {
    cohort_spec.reps_per_gesture = 6;
    Dataset all = generate_dataset(cohort_spec);
    Dataset out;
    out.spec = all.spec;
    out.users = all.users;
    for (GestureSample& s : all.samples) {
      if (s.user == 0) out.samples.push_back(std::move(s));
    }
    return out;
  };
  DatasetSpec newcomer_spec = spec;
  newcomer_spec.user_seed = 987654;
  const Dataset newcomer_heldout = cohort_user0(newcomer_spec);
  // All three bodies of the stranger cohort stay impostors — more samples
  // give the EER sweep finer granularity.
  DatasetSpec stranger_spec = spec;
  stranger_spec.user_seed = 5551212;
  stranger_spec.reps_per_gesture = 6;
  const Dataset stranger = generate_dataset(stranger_spec);

  // ---- serve + enrollment setup -------------------------------------------
  serve::ServeConfig sc;
  sc.system = config;
  sc.shards = 2;
  sc.batch_wait_us = 0;
  sc.enroll.enabled = true;
  sc.enroll.k_segments = 6;
  // One unknown person streams at a time here; biometric descriptors are
  // gesture-dependent, so a wide radius folds their segments together.
  sc.enroll.candidate_radius = 1e6;

  serve::ModelRegistry registry(sc.system);
  if (!registry.publish_file(model_path).has_value()) {
    std::cout << "FAIL: could not publish the base model\n";
    return 1;
  }

  enroll::EnrollmentServiceConfig ec;
  ec.admission = sc.enroll;
  ec.base_model_path = model_path;
  ec.publish_dir = output_dir();
  ec.fine_tune_epochs = 2;
  enroll::EnrollmentService service(ec, registry);
  service.calibrate(dataset, split.train);

  std::vector<OpenSetRow> rows;
  rows.push_back(
      open_set_row("before", service.gallery(), dataset, split.test, newcomer_heldout,
                   stranger));

  // ---- streams: two enrolled performers + the newcomer --------------------
  const std::vector<std::vector<int>> scripts{{0, 2, 1}, {1, 0, 2}};
  std::vector<ContinuousRecording> streams;
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    streams.push_back(generate_recording(spec, s % spec.num_users, scripts[s], 0xE9E11 + s));
  }
  DatasetSpec newcomer_stream_spec = spec;
  newcomer_stream_spec.user_seed = 987654;
  streams.push_back(
      generate_recording(newcomer_stream_spec, 0, {0, 1, 2, 0, 2, 1, 0, 1, 2, 0, 1, 2}, 0x57A6E));

  const auto run = [&](serve::EnrollmentHook* hook, const serve::ServeConfig& run_sc,
                       std::uint64_t* ticks) {
    exec::ExecContext ctx(2);
    serve::Server server(run_sc, registry, ctx);
    if (hook != nullptr) server.set_enrollment_hook(hook);
    std::size_t max_frames = 0;
    for (const auto& s : streams) max_frames = std::max(max_frames, s.frames.size());
    std::vector<serve::ServeResult> results;
    for (std::size_t f = 0; f < max_frames; ++f) {
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (f >= streams[i].frames.size()) continue;
        (void)server.push_frame(i + 1, streams[i].frames[f]);
      }
      for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
    }
    for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
    if (ticks != nullptr) *ticks = server.ticks();
    return results;
  };

  // Reference run without enrollment pins the lossless-swap expectation.
  serve::ServeConfig off = sc;
  off.enroll.enabled = false;
  const std::size_t expected = run(nullptr, off, nullptr).size();

  obs::MetricsDelta delta;  // isolate this run's gp.enroll.* counter movement
  std::uint64_t ticks = 0;
  std::cout << "Streaming " << streams.size() << " sessions (newcomer last)...\n";
  const std::vector<serve::ServeResult> results = run(&service, sc, &ticks);

  const enroll::EnrollmentService::Stats stats = service.stats();
  const std::uint64_t published_version = registry.version();
  std::cout << "  serve: " << results.size() << "/" << expected << " results over " << ticks
            << " ticks, " << stats.novelty_rejections << " novelty rejections, "
            << stats.fine_tunes_started << " fine-tunes, " << stats.users_enrolled
            << " users enrolled (registry v" << published_version << ")\n";

  rows.push_back(open_set_row("after", service.gallery(), dataset, split.test,
                              newcomer_heldout, stranger));

  // Enrollment-to-live latency: first rejected segment staged -> widened
  // head published.
  const obs::HistogramSnapshot to_live = obs::histogram("gp.enroll.to_live_ms").snapshot();
  std::cout << "  enrollment-to-live: p50=" << to_live.quantile(0.5)
            << " ms p95=" << to_live.quantile(0.95) << " ms (" << to_live.count
            << " enrollments)\n";

  const std::string setup = " k_segments=" + std::to_string(sc.enroll.k_segments) +
                            " max_candidates=" + std::to_string(sc.enroll.max_candidates);
  std::vector<obs::BenchRecord> records;
  for (const OpenSetRow& row : rows) {
    // eer: newcomer-vs-stranger novelty EER; near chance before enrollment
    // (both unseen), enrollment pulls it down.
    const std::string case_name = "phase=" + row.phase + setup;
    records.push_back({case_name, "eer", "fraction", row.eer});
    records.push_back({case_name, "threshold", "score", row.threshold});
    records.push_back({case_name, "genuine_accept", "fraction", row.genuine_accept});
    records.push_back({case_name, "newcomer_reject", "fraction", row.newcomer_reject});
  }
  const std::string serve_case = "phase=serve sessions=" + std::to_string(streams.size()) + setup;
  const auto count = [&](const char* metric, std::uint64_t v) {
    records.push_back({serve_case, metric, "count", static_cast<double>(v)});
  };
  count("ticks", ticks);
  count("results", results.size());
  count("expected_results", expected);  // zero-dropped-ticks evidence
  count("novelty_rejections", stats.novelty_rejections);
  count("candidates_founded", delta.counter_delta("gp.enroll.candidates.founded"));
  count("fine_tunes", stats.fine_tunes_started);
  count("users_enrolled", stats.users_enrolled);
  count("published_version", published_version);
  count("to_live_count", to_live.count);
  records.push_back({serve_case, "to_live_p50", "ms", to_live.quantile(0.5)});
  records.push_back({serve_case, "to_live_p95", "ms", to_live.quantile(0.95)});
  records.push_back({serve_case, "to_live_p99", "ms", to_live.quantile(0.99)});
  const std::string path = output_dir() + "/BENCH_enroll.jsonl";
  obs::write_bench_records(path, "enroll", records);
  std::cout << "\nWrote " << path << "\n";

  bool ok = true;
  if (results.size() != expected) {
    std::cout << "FAIL: enrollment run dropped results (" << results.size() << " vs "
              << expected << ")\n";
    ok = false;
  }
  if (stats.users_enrolled < 1 || published_version < 2) {
    std::cout << "FAIL: nobody was enrolled\n";
    ok = false;
  }
  if (rows[1].eer > rows[0].eer + 1e-12) {
    std::cout << "FAIL: open-set EER got worse after enrollment (" << rows[0].eer << " -> "
              << rows[1].eer << ")\n";
    ok = false;
  }
  std::cout << (ok ? "Enrollment invariants hold.\n" : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
