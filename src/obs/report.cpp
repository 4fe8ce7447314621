#include "obs/report.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <thread>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef GP_OBS_BUILD_TYPE
#define GP_OBS_BUILD_TYPE "unknown"
#endif
#ifndef GP_OBS_SANITIZE
#define GP_OBS_SANITIZE ""
#endif

namespace gp::obs {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

/// The x86 ISA extensions this binary was compiled for (the -march
/// macros), comma-separated; empty for a baseline build.
std::string build_isa() {
  const std::string isa = ""
#if defined(__SSE4_2__)
                          ",sse4.2"
#endif
#if defined(__AVX__)
                          ",avx"
#endif
#if defined(__AVX2__)
                          ",avx2"
#endif
#if defined(__FMA__)
                          ",fma"
#endif
#if defined(__AVX512F__)
                          ",avx512f"
#endif
#if defined(__AVX512BW__)
                          ",avx512bw"
#endif
#if defined(__AVX512VL__)
                          ",avx512vl"
#endif
#if defined(__AVX512VNNI__)
                          ",avx512vnni"
#endif
#if defined(__AVXVNNI__)
                          ",avxvnni"
#endif
      ;
  return isa.empty() ? isa : isa.substr(1);
}

}  // namespace

void write_run_report_json(std::ostream& out, const std::string& name) {
  publish_mem_metrics();  // fold gp.mem.* tallies into the snapshot below
  const double wall_s = uptime_seconds();
  const auto unix_now = std::chrono::duration_cast<std::chrono::seconds>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();

  out << "{\n";
  out << "  \"name\": \"" << json::escape(name) << "\",\n";
  out << "  \"created_unix\": " << unix_now << ",\n";
  out << "  \"wall_clock_s\": " << json::number(wall_s) << ",\n";

  out << "  \"build\": {\"type\": \"" << json::escape(GP_OBS_BUILD_TYPE)
      << "\", \"sanitize\": \"" << json::escape(GP_OBS_SANITIZE) << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
      << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
      << "unknown"
#endif
      << "\"},\n";

  // The host every number in this report was measured on.
  out << "  \"host\": {"
      << "\"hardware_concurrency\": " << std::max(1u, std::thread::hardware_concurrency())
      << ", \"isa\": \"" << build_isa() << "\""
      << ", \"gp_threads\": \"" << json::escape(env_or("GP_THREADS", "")) << "\"},\n";

  out << "  \"config\": {"
      << "\"scale\": \"" << json::escape(run_scale_name()) << "\", "
      << "\"metrics\": " << (metrics_enabled() ? "true" : "false") << ", "
      << "\"trace\": " << (trace_enabled() ? "true" : "false") << "},\n";

  // Stage latency breakdown: every GP_SPAN site that fired at least once.
  out << "  \"stages\": [";
  bool first = true;
  for (const StageSnapshot& stage : stage_snapshots()) {
    if (stage.histogram.count == 0) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    const HistogramSnapshot& h = stage.histogram;
    out << "    {\"name\": \"" << json::escape(stage.name) << "\", \"count\": " << h.count
        << ", \"total_ms\": " << json::number(h.sum)
        << ", \"mean_ms\": " << json::number(h.mean())
        << ", \"p50_ms\": " << json::number(h.quantile(0.5))
        << ", \"p95_ms\": " << json::number(h.quantile(0.95))
        << ", \"p99_ms\": " << json::number(h.quantile(0.99))
        << ", \"min_ms\": " << json::number(h.min) << ", \"max_ms\": " << json::number(h.max)
        << ", \"min_depth\": " << stage.min_depth << "}";
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"metrics\": ";
  Registry::global().to_json(out, 2);
  out << "\n}\n";
}

std::string write_run_report(const std::string& name) {
  const std::string dir = output_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  const std::string report_path = dir + "/REPORT_" + name + ".json";
  {
    std::ofstream out(report_path);
    if (!out) throw Error("cannot open run report for writing: " + report_path);
    write_run_report_json(out, name);
  }
  log_info() << "wrote run report -> " << report_path;

  if (trace_enabled()) write_trace_file(dir + "/TRACE_" + name + ".json");
  return report_path;
}

}  // namespace gp::obs
