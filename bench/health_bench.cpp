// gp::health overhead sweep (DESIGN.md §10): the same 8-session serve load
// runs with health monitoring fully off and fully on (tracing + SLO window
// + flight recorder), measuring the per-tick latency of the serve loop in
// both modes. Emits <output_dir>/BENCH_health.jsonl and self-checks the two
// headline invariants on the exit code:
//   1. every ServeResult is bitwise identical between the two modes —
//      health observes the serve stack, it never feeds results;
//   2. the health-on p50 tick cost is within 2% of health-off, with a 1 µs
//      absolute floor. Reps interleave the modes and the verdict reads the
//      minimum of per-rep paired p50 deltas — noise only ever adds time, so
//      the cleanest pair upper-bounds the true overhead while a real hot-path
//      regression inflates every pair and cannot hide in the minimum.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "health/slo.hpp"
#include "obs/report.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace {

using namespace gp;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kReps = 9;
/// Frames each session pushes per pump: a pump cadence slower than the
/// radar frame rate, so the measured tick carries the steady per-tick load
/// (admission + shard drain + segmentation) rather than being mostly empty.
constexpr std::size_t kFramesPerTick = 4;

struct RunOutcome {
  std::vector<double> tick_us;  ///< one entry per frame round (push + pump)
  std::vector<serve::ServeResult> results;
};

/// One mode of the overhead sweep ("off" | "on"): serve-tick latency
/// quantiles over the measured pump loop, best-of-reps.
struct ModeRow {
  std::string mode;
  std::uint64_t ticks = 0;
  std::uint64_t results = 0;  ///< ServeResults answered across the run
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// One full pass of the interleaved streams through a fresh server. The
/// measured tick is one frame round: push every session's frame, pump once.
RunOutcome run_once(const std::vector<ContinuousRecording>& recordings,
                    const serve::ServeConfig& serve_config,
                    serve::ModelRegistry& registry) {
  RunOutcome outcome;
  serve::Server server(serve_config, registry);
  std::size_t max_frames = 0;
  for (const ContinuousRecording& r : recordings) {
    max_frames = std::max(max_frames, r.frames.size());
  }
  outcome.tick_us.reserve(max_frames / kFramesPerTick + 1);
  for (std::size_t f = 0; f < max_frames; f += kFramesPerTick) {
    const Clock::time_point start = Clock::now();
    for (std::size_t s = 0; s < recordings.size(); ++s) {
      const std::size_t end = std::min(f + kFramesPerTick, recordings[s].frames.size());
      for (std::size_t k = f; k < end; ++k) {
        (void)server.push_frame(static_cast<std::uint64_t>(s + 1), recordings[s].frames[k]);
      }
    }
    for (serve::ServeResult& r : server.pump()) outcome.results.push_back(std::move(r));
    outcome.tick_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  for (serve::ServeResult& r : server.drain()) outcome.results.push_back(std::move(r));
  return outcome;
}

bool results_bitwise_equal(const std::vector<serve::ServeResult>& a,
                           const std::vector<serve::ServeResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const serve::ServeResult& x = a[i];
    const serve::ServeResult& y = b[i];
    if (x.session_id != y.session_id || x.segment_ordinal != y.segment_ordinal ||
        x.request_id != y.request_id || x.gesture != y.gesture || x.user != y.user ||
        x.abstained != y.abstained || x.quality_rejected != y.quality_rejected ||
        x.gesture_margin != y.gesture_margin || x.user_margin != y.user_margin ||
        x.model_version != y.model_version) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("health_bench", "DESIGN.md §10 (health/SLO overhead; not in the paper)");

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

  serve::ModelRegistry registry(config);
  {
    auto system = std::make_unique<GesturePrintSystem>(config);
    Rng split_rng(3, 1);
    system->fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    registry.publish(std::move(system));
  }

  const std::vector<int> script{0, 3, 1, 4, 2, 0};
  std::vector<ContinuousRecording> recordings;
  for (std::size_t s = 0; s < kSessions; ++s) {
    recordings.push_back(generate_recording(spec, s % spec.num_users, script, 20260807 + s));
  }

  // Two fully-programmatic configs (no env coupling): "off" disables every
  // health surface; "on" arms the SLO evaluator and the flight recorder on
  // top of the always-on tracing, so the measured overhead is the worst
  // case of the whole subsystem.
  serve::ServeConfig config_off;
  config_off.system = config;
  config_off.batch_wait_us = 0;
  config_off.health.enabled = false;
  config_off.health.flightrec = false;

  serve::ServeConfig config_on = config_off;
  config_on.health.enabled = true;
  config_on.health.flightrec = true;
  config_on.health.slo = health::SloSpec::parse("p99_ms<1000,shed_rate<0.5,window=64t");

  std::vector<ModeRow> rows(2);
  rows[0].mode = "off";
  rows[1].mode = "on";
  for (auto& row : rows) row.p50_us = -1.0;
  std::vector<serve::ServeResult> results_off;
  std::vector<serve::ServeResult> results_on;
  const std::pair<const char*, const serve::ServeConfig*> modes[] = {{"off", &config_off},
                                                                     {"on", &config_on}};
  // Reps interleave the two modes (off, on, off, on, ...) instead of running
  // all off-reps first: host-load drift across the bench then hits both
  // modes alike. The overhead verdict uses the *minimum of per-rep paired
  // deltas* (p50_on - p50_off within the same rep): scheduler noise only
  // ever adds time, so the cleanest pair bounds the true overhead from
  // above, while a real hot-path regression inflates every pair and cannot
  // hide in the minimum. The reported rows keep best-of-reps quantiles.
  std::vector<double> paired_delta_us;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    double rep_p50[2] = {0.0, 0.0};
    for (std::size_t m = 0; m < 2; ++m) {
      ModeRow& row = rows[m];
      RunOutcome outcome = run_once(recordings, *modes[m].second, registry);
      std::vector<double> sorted = outcome.tick_us;
      std::sort(sorted.begin(), sorted.end());
      const double p50 = quantile(sorted, 0.5);
      rep_p50[m] = p50;
      if (row.p50_us < 0.0 || p50 < row.p50_us) {
        row.ticks = outcome.tick_us.size();
        row.results = outcome.results.size();
        row.p50_us = p50;
        row.p95_us = quantile(sorted, 0.95);
        row.p99_us = quantile(sorted, 0.99);
      }
      if (rep == 0) {
        (m == 0 ? results_off : results_on) = std::move(outcome.results);
      }
    }
    paired_delta_us.push_back(rep_p50[1] - rep_p50[0]);
  }
  std::sort(paired_delta_us.begin(), paired_delta_us.end());
  const double min_delta_us = paired_delta_us.front();
  for (const auto& row : rows) {
    std::cout << "  health=" << row.mode << ": " << row.results << " results, tick p50="
              << row.p50_us << " us, p95=" << row.p95_us << " us, p99=" << row.p99_us
              << " us (best of " << kReps << " reps)\n";
  }

  const double p50_off = rows[0].p50_us;
  const double overhead_pct = p50_off > 0.0 ? 100.0 * min_delta_us / p50_off : 0.0;
  const bool bitwise = results_bitwise_equal(results_off, results_on);

  // Verdict evidence comes from one final health-on pass whose server we
  // keep alive long enough to snapshot.
  health::HealthSnapshot snap;
  {
    serve::Server server(config_on, registry);
    for (std::size_t f = 0; f < recordings[0].frames.size(); ++f) {
      for (std::size_t s = 0; s < recordings.size(); ++s) {
        if (f >= recordings[s].frames.size()) continue;
        (void)server.push_frame(static_cast<std::uint64_t>(s + 1), recordings[s].frames[f]);
      }
      (void)server.pump();
    }
    (void)server.drain();
    snap = server.health_snapshot();
  }

  const std::string setup =
      " sessions=" + std::to_string(kSessions) + " reps=" + std::to_string(kReps);
  std::vector<obs::BenchRecord> records;
  for (const ModeRow& row : rows) {
    const std::string case_name = "health=" + row.mode + setup;
    records.push_back({case_name, "ticks", "count", static_cast<double>(row.ticks)});
    records.push_back({case_name, "results", "count", static_cast<double>(row.results)});
    records.push_back({case_name, "tick_p50", "us", row.p50_us});
    records.push_back({case_name, "tick_p95", "us", row.p95_us});
    records.push_back({case_name, "tick_p99", "us", row.p99_us});
  }
  const std::string compare_case = "compare=on_vs_off" + setup;
  records.push_back({compare_case, "overhead_p50", "pct", overhead_pct});
  records.push_back({compare_case, "bitwise_identical", "bool", bitwise ? 1.0 : 0.0});
  const std::string verdict_case = "health=on verdict=" +
                                   std::string(health::verdict_name(snap.verdict)) + setup;
  records.push_back({verdict_case, "verdict_flips", "count",
                     static_cast<double>(snap.verdict_flips)});
  records.push_back({verdict_case, "flightrec_events", "count",
                     static_cast<double>(snap.flightrec_events)});
  const std::string path = output_dir() + "/BENCH_health.jsonl";
  obs::write_bench_records(path, "health", records);
  std::cout << "\nWrote " << path << "\n";

  bool ok = true;
  if (!bitwise) {
    std::cout << "FAIL: serve results differ between health on and off\n";
    ok = false;
  }
  // 2% relative, with a 1 µs absolute floor: on sub-50 µs quiet ticks the
  // relative bound alone drops below scheduler jitter and flakes on loaded
  // single-core hosts. Real regressions (a syscall or a per-frame record on
  // the hot path) cost several µs and clear both bars.
  const double overhead_us = min_delta_us;
  if (overhead_pct > 2.0 && overhead_us > 1.0) {
    std::cout << "FAIL: health-on p50 tick overhead is " << overhead_pct << "% ("
              << overhead_us << " us; > 2% and > 1 us)\n";
    ok = false;
  } else {
    std::cout << "Health-on p50 tick overhead: " << overhead_pct << "% (" << overhead_us
              << " us; within 2% or 1 us)\n";
  }
  std::cout << (ok ? "Health overhead invariants hold.\n" : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
