// Shared pieces of the benchmark harness: wall clocks, process resource
// readings, the in-memory span tracer and the host record.
//
// Spans are recorded from the harness only, around calls into the
// library's public functions, so the library itself is measured exactly as
// users build it.  The tracer is single-threaded: every span opens and
// closes on the harness's main thread (OpenMP parallelism lives inside the
// traced calls).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();
/// User + system CPU seconds this process has used so far (getrusage).
double cpu_seconds();
/// OpenMP threads a parallel shot loop may use (1 without OpenMP).
int omp_threads();

/// CPU model, cores, compiler, build type, SIMD dispatch and OMP threads.
radsurf::JsonValue host_record();

/// In-memory span tracer (see the file comment).
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::string request;  // cell key or shot id; empty when none
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  // index into spans(); -1 for a root span
  };

  /// RAII span: opens on construction, closes on destruction.  A disabled
  /// tracer records nothing, so untraced runs pay one branch per span.
  class Span {
   public:
    Span(Tracer& tracer, std::string name, std::string request = {});
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Duration so far (or total, after close()), in seconds.
    double seconds() const;
    void close();

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    double elapsed_ = -1.0;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Total self time (duration minus time covered by child spans) per
  /// span name.
  std::map<std::string, double> self_seconds() const;
  /// Span list as JSON (name, request, start, end, parent).
  radsurf::JsonValue to_json() const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Member `key` of a JSON object; throws naming the key when absent.
const radsurf::JsonValue& field(const radsurf::JsonValue& obj, std::string_view key);
inline double num(const radsurf::JsonValue& obj, std::string_view key) {
  return field(obj, key).as_number();
}
inline const std::string& str(const radsurf::JsonValue& obj, std::string_view key) {
  return field(obj, key).as_string();
}

/// q-quantile by linear interpolation (0 for an empty sample).
double quantile_of(std::vector<double> xs, double q);
double median_of(std::vector<double> xs);

/// Write `value` to `path` (pretty-printed); throws on I/O failure.
void write_json(const std::string& path, const radsurf::JsonValue& value);

int run_campaign(const radsurf::JsonValue& input, const std::string& out_path,
                 bool trace);
int run_loadgen(const radsurf::JsonValue& input, const std::string& out_path,
                bool trace);

}  // namespace perfbench
