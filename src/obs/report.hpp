// Run reports: one machine-readable JSON per bench/example run, so every
// perf claim ships with its evidence.
//
// write_run_report("quickstart") writes <output_dir>/REPORT_quickstart.json
// containing
//   * the host: hardware_concurrency, the ISA extensions the binary was
//     built for, and GP_THREADS as set,
//   * build / scale configuration,
//   * the wall clock since the process epoch,
//   * the per-stage latency breakdown (every GP_SPAN site: count, total,
//     mean, p50/p95/p99, min nesting depth — min-depth-0 stages are the
//     top-level phases and their totals should sum to ~ the wall clock),
//   * the full metrics registry snapshot.
// When tracing is on it also writes TRACE_<name>.json (Chrome trace-event
// format; load in chrome://tracing or Perfetto).
//
// Bench records: every bench that writes machine-readable evidence writes
// <output_dir>/BENCH_<bench>.jsonl through write_bench_records, one
// self-contained JSON object per line:
//   {"bench", "case", "metric", "unit", "value",
//    "host": {"hardware_concurrency", "isa", "gp_threads"}, "scale"}
// `host` is the same block REPORT_*.json carries, so every number names the
// host it was measured on. The schema is pinned by the `bench_record_schema`
// golden (tests/test_golden_snapshot.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gp::obs {

/// One bench measurement. `case_name` identifies the setup as
/// space-separated key=value tokens (e.g. "kernel=matmul_bt m=64 k=96
/// n=128 check=bitwise"); string facts such as a mode, a phase or a verdict
/// are case tokens, never values. Booleans are 0/1 with unit "bool".
struct BenchRecord {
  std::string case_name;
  std::string metric;
  std::string unit;
  double value = 0.0;
};

/// The JSONL text of `records` for bench `bench`, one line per record. A
/// non-finite value is written as null.
std::string bench_records_jsonl(const std::string& bench, const std::vector<BenchRecord>& records);

/// Writes bench_records_jsonl(bench, records) to `path`, creating its
/// parent directory; throws gp::Error when the file cannot be opened or
/// the write does not complete.
void write_bench_records(const std::string& path, const std::string& bench,
                         const std::vector<BenchRecord>& records);

/// Serialises the report JSON for run `name` into `out`.
void write_run_report_json(std::ostream& out, const std::string& name);

/// Writes REPORT_<name>.json (and TRACE_<name>.json when tracing) under
/// gp::output_dir() and returns the report path.
std::string write_run_report(const std::string& name);

}  // namespace gp::obs
