// In-memory span recorder for the traced run.
//
// The traced run replays a workload by calling each netloc module's
// public functions in turn, wrapping every call in a Scope. A span
// keeps its name, start, end, parent span and request id; spans stay
// in memory and are written out once, at the end. A layer's self time
// is its spans' durations minus the time their child spans cover.
//
// A disabled tracer records nothing and never reads the clock, so the
// same replay code yields the untraced wall time the tracing overhead
// is measured against. Single-threaded: one tracer per replay thread.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< Since the tracer was created.
    double end_s = 0.0;
    int parent = -1;           ///< Index of the enclosing span, -1 at top.
    std::int64_t request = -1; ///< Spans of one request share this id.
  };

  /// RAII span; a no-op on a disabled tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Exact counts recorded at the span boundaries (summed per name).
  void count(std::string_view name, double value);
  [[nodiscard]] double counted(std::string_view name) const;
  /// Per-request samples (e.g. frame arrival times), kept whole.
  void sample(std::string_view name, double value);
  [[nodiscard]] std::vector<double> samples(std::string_view name) const;

  /// Σ self time of the spans called `name`, in seconds.
  [[nodiscard]] double self_time(std::string_view name) const;
  /// Durations of the spans called `name`, in seconds.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Σ self time of the spans whose name is one of `names`.
  [[nodiscard]] double self_time(std::span<const std::string_view> names) const;

  /// One JSON object per span, one per line.
  void write(const std::filesystem::path& path) const;

 private:
  [[nodiscard]] std::vector<double> self_times() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double, std::less<>> counts_;
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

}  // namespace perfbench
