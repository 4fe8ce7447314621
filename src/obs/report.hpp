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
#pragma once

#include <iosfwd>
#include <string>

namespace gp::obs {

/// Serialises the report JSON for run `name` into `out`.
void write_run_report_json(std::ostream& out, const std::string& name);

/// Writes REPORT_<name>.json (and TRACE_<name>.json when tracing) under
/// gp::output_dir() and returns the report path.
std::string write_run_report(const std::string& name);

}  // namespace gp::obs
