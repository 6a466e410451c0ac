// Shared vocabulary of the benchmark: run options, operation
// accounting, the metric record and the end-to-end metric set every
// workload reports (implemented in report.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for trace files and result caches; created by
  /// main() and removed when the run ends.
  std::filesystem::path workdir;
  /// Directory the traced run writes its span log into.
  std::filesystem::path span_dir;
};

/// Whole rounds a run of `seconds` attempts, for a round of nominal
/// length `nominal_round_s`. Depends only on the command line, so every
/// run with the same --seconds attempts exactly the same operations.
int rounds_for(double seconds, double nominal_round_s);

/// The checks of one operation; the first failing check names it.
class Verdict {
 public:
  void require(bool ok, std::string_view what);
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  bool ok_ = true;
  std::string reason_;
};

/// Operations attempted and failed, plus run-wide invariants. A failed
/// operation is reported on stderr (the first few only).
class Ledger {
 public:
  /// Count one operation; it failed unless `verdict` holds.
  void operation(const Verdict& verdict, std::string_view label);
  /// A property of the whole run rather than of one operation; a
  /// violation makes the run incorrect.
  void invariant(bool ok, std::string_view what);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return correct_; }

 private:
  void report(std::string_view label, std::string_view reason);

  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
  int reported_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload's timed region measured, in the units every
/// workload shares. The timed region is a fixed number of rounds of the
/// same operations. A request is one answer a user waits for: a whole
/// Table 3 pass, one entry's what-if study, one serve submit, one scale
/// evaluation.
struct Measurement {
  struct Round {
    double wall_s = 0.0;
    std::vector<double> request_s;  ///< Latency of each request.
  };
  std::vector<double> setup_s;  ///< One sample per set-up repetition.
  std::vector<Round> rounds;
  double cells = 0.0;  ///< Cells answered in the timed region.
  double pairs = 0.0;  ///< Nonzero traffic pairs those cells cover.

  /// Record a round of one request.
  void add_request_round(double seconds) {
    rounds.push_back({seconds, {seconds}});
  }
};

/// The end-to-end metric set, in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const Measurement& m);

/// Median (mean of the middle two for even counts); 0 for no samples.
double median(std::vector<double> samples);
/// Nearest-rank quantile (q in (0, 1]); 0 for no samples.
double nearest_rank(std::vector<double> samples, double q);

/// Peak resident set of this program image so far, in MB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
