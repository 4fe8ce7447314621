// Measurement plumbing shared by the benchmark's workloads and probes:
// monotonic timing, order statistics, the in-memory span recorder, answer
// digests, and the JSON records the benchmark prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv.hpp"

namespace gp::perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) { return ms_between(from, Clock::now()); }

/// A bag of measurements with order statistics. Quantiles interpolate
/// linearly between order statistics (numpy's default definition).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double mean() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// In-memory span recorder for the traced run. Each span carries its name,
/// start, end and parent; spans nest by scope on the benchmark thread (the
/// only thread that calls into the program's public API). Disabled, every
/// call is a single branch and nothing is stored.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< nullptr when tracing is off
    std::size_t index_ = 0;
  };

  /// Opens a span closed when the returned scope ends. `name` must be a
  /// string literal (stored by pointer).
  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  bool enabled() const { return enabled_; }
  std::size_t span_count() const { return spans_.size(); }

  /// Writes every span as a Chrome trace "X" event (ts/dur in µs) with its
  /// id and parent id in args, after a metadata record carrying `host_json`.
  void write_chrome_trace(const std::string& path, const std::string& host_json) const;

  /// Per span name: count, total time and self time (duration minus the
  /// time its direct children cover), in ms, as a JSON object.
  std::string summary_json() const;

 private:
  struct Span {
    const char* name;
    std::size_t parent;  ///< index + 1 of the enclosing span; 0 = root
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// FNV-1a digest over a stream of plain values (answers, parameters, bytes).
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    h_ = fnv::accumulate(h_, &value, sizeof(value));
  }
  void add_bytes(const void* data, std::size_t n) { h_ = fnv::accumulate(h_, data, n); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = fnv::kOffsetBasis;
};

/// Formats a double with all its significant digits (JSON number; NaN and
/// infinities, which JSON cannot carry, become null).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Host stamp carried by every record the benchmark writes: cores, ISA
/// flags, GP_THREADS, compiler, source id (git sha or tree digest) and the
/// workload seed.
std::string host_json(const std::string& workload, std::uint64_t seed,
                      const std::string& source_id);

}  // namespace gp::perfbench
