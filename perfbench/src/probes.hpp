// Per-layer probes for the traced run: each times calls into one module's
// public functions on the workload's own model, inputs and batch sizes.
// FLOP counts are computed from tensor shapes (2·rows·in·out per product),
// not read from hardware counters.
#pragma once

#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace gp::perfbench {

/// Appends every per-layer metric (nn, gesidnet, pipeline, system, serve,
/// exec, datasets, and the tracing overhead) for `run`.
void run_probes(WorkloadRun& run, Tracer& tracer, std::vector<Metric>& out);

}  // namespace gp::perfbench
