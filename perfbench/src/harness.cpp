#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "exec/exec.hpp"

#ifndef GP_PERFBENCH_COMPILER
#define GP_PERFBENCH_COMPILER "unknown"
#endif

namespace gp::perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return std::nan("");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::mean() const {
  if (values_.empty()) return std::nan("");
  return std::accumulate(values_.begin(), values_.end(), 0.0) / static_cast<double>(values_.size());
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const std::size_t parent = tracer_->open_.empty() ? 0 : tracer_->open_.back() + 1;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, parent, Clock::now(), {}});
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end = Clock::now();
  tracer_->open_.pop_back();
}

std::string Tracer::summary_json() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent - 1] += ms_between(s.start, s.end);
  }
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = by_name[spans_[i].name];
    const double ms = ms_between(spans_[i].start, spans_[i].end);
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  std::string out = "{";
  for (const auto& [name, t] : by_name) {
    out += (out.size() > 1 ? ", " : "") + json_string(name) + ": {\"count\": " +
           std::to_string(t.count) + ", \"total_ms\": " + json_number(t.total_ms) +
           ", \"self_ms\": " + json_number(t.self_ms) + "}";
  }
  return out + "}";
}

void Tracer::write_chrome_trace(const std::string& path, const std::string& host_json) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  const auto us = [&](Clock::time_point t) { return ms_between(origin, t) * 1e3; };
  out << "{\"host\":" << host_json << ",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(us(s.start))
        << ",\"dur\":" << json_number(us(s.end) - us(s.start)) << ",\"args\":{\"id\":" << i + 1
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

std::string isa_flags() {
  std::string flags;
  const auto add = [&](bool on, const char* name) {
    if (!on) return;
    if (!flags.empty()) flags += ',';
    flags += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  add(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
#else
  add(true, "non-x86");
#endif
  return flags;
}

}  // namespace

std::string host_json(const std::string& workload, std::uint64_t seed,
                      const std::string& source_id) {
  const char* env_threads = std::getenv("GP_THREADS");
  std::string out = "{";
  out += "\"cores\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"isa\":" + json_string(isa_flags());
  out += ",\"gp_threads_env\":" + json_string(env_threads != nullptr ? env_threads : "");
  out += ",\"exec_threads\":" + std::to_string(exec::ExecContext::global().threads());
  out += ",\"compiler\":" + json_string(GP_PERFBENCH_COMPILER);
  out += ",\"source_id\":" + json_string(source_id);
  out += ",\"workload\":" + json_string(workload);
  out += ",\"seed\":" + std::to_string(seed);
  return out + "}";
}

}  // namespace gp::perfbench
