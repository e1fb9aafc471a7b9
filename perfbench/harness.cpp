// perfbench_harness — the compiled half of the radsurf benchmark.
//
//   perfbench_harness campaign <input.json> <output.json> [--trace]
//   perfbench_harness loadgen  <input.json> <output.json> [--trace]
//
// run.py generates every input from the workload seed and hands it over
// as <input.json>; this program runs the workload against the library and
// writes raw measurements to <output.json>, which run.py turns into
// metrics and checks for correctness.
#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "stab/simd.hpp"
#include "util/error.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using radsurf::JsonValue;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

JsonValue host_record() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  JsonValue host = JsonValue::object();
  host.set("cpu", cpu);
  host.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  host.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.set("compiler", std::string("gcc ") + __VERSION__);
#else
  host.set("compiler", "unknown");
#endif
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("simd", radsurf::simd::backend());
  host.set("omp_threads", omp_threads());
  return host;
}

// --- tracer -------------------------------------------------------------------

Tracer::Span::Span(Tracer& tracer, std::string name, std::string request)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.enabled_) return;
  SpanRecord rec;
  rec.name = std::move(name);
  rec.request = std::move(request);
  rec.start_s = seconds_between(tracer_.t0_, start_);
  rec.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(rec));
  tracer_.open_.push_back(index_);
}

Tracer::Span::~Span() { close(); }

double Tracer::Span::seconds() const {
  return elapsed_ >= 0.0 ? elapsed_ : seconds_between(start_, Clock::now());
}

void Tracer::Span::close() {
  if (elapsed_ >= 0.0) return;
  const Clock::time_point end = Clock::now();
  elapsed_ = seconds_between(start_, end);
  if (index_ < 0) return;
  tracer_.spans_[index_].end_s = seconds_between(tracer_.t0_, end);
  RADSURF_ASSERT_MSG(!tracer_.open_.empty() && tracer_.open_.back() == index_,
                     "perfbench: spans must close in LIFO order");
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  // Children of one parent never overlap (single-threaded, LIFO), so the
  // time they cover is the sum of their durations.
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.end_s - s.start_s;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

JsonValue Tracer::to_json() const {
  JsonValue arr = JsonValue::array();
  for (const SpanRecord& s : spans_) {
    JsonValue o = JsonValue::object();
    o.set("name", s.name);
    if (!s.request.empty()) o.set("request", s.request);
    o.set("start_s", s.start_s);
    o.set("end_s", s.end_s);
    o.set("parent", s.parent);
    arr.push_back(std::move(o));
  }
  return arr;
}

// --- small helpers ------------------------------------------------------------

const JsonValue& field(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  RADSURF_ASSERT_MSG(v != nullptr, "perfbench: input lacks \"" << key << "\"");
  return *v;
}

double quantile_of(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median_of(std::vector<double> xs) { return quantile_of(std::move(xs), 0.5); }

void write_json(const std::string& path, const JsonValue& value) {
  std::ofstream out(path);
  RADSURF_ASSERT_MSG(static_cast<bool>(out), "perfbench: cannot write " << path);
  out << value.dump(1) << "\n";
  RADSURF_ASSERT_MSG(static_cast<bool>(out), "perfbench: write failed: " << path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: perfbench_harness campaign|loadgen <input.json> "
                 "<output.json> [--trace]\n";
    return 2;
  }
  const std::string mode = argv[1];
  const bool trace = argc > 4 && std::string(argv[4]) == "--trace";
  try {
    const radsurf::JsonValue input = radsurf::JsonValue::parse_file(argv[2]);
    if (mode == "campaign") return perfbench::run_campaign(input, argv[3], trace);
    if (mode == "loadgen") return perfbench::run_loadgen(input, argv[3], trace);
    std::cerr << "perfbench_harness: unknown mode " << mode << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
