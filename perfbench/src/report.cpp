#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <sstream>
#include <string_view>

namespace perfbench {

int rounds_for(double seconds, double nominal_round_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_round_s)));
}

void Verdict::require(bool ok, std::string_view what) {
  if (ok || !ok_) return;
  ok_ = false;
  reason_ = std::string(what);
}

void Ledger::report(std::string_view label, std::string_view reason) {
  constexpr int kMaxReports = 20;
  if (reported_++ < kMaxReports) {
    std::cerr << "perfbench: FAILED " << label << ": " << reason << "\n";
  }
}

void Ledger::operation(const Verdict& verdict, std::string_view label) {
  ++attempted_;
  if (verdict.ok()) return;
  ++failed_;
  report(label, verdict.reason());
}

void Ledger::invariant(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  report("run", what);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM is this program image's own high-water mark. ru_maxrss, the
  // fallback, also counts the launching process's footprint on Linux,
  // which survives exec() when the launcher forked by vfork.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

std::vector<Metric> end_to_end_metrics(const Measurement& m) {
  std::vector<double> request_s;
  double wall_s = 0.0;
  for (const auto& round : m.rounds) {
    request_s.insert(request_s.end(), round.request_s.begin(),
                     round.request_s.end());
    wall_s += round.wall_s;
  }
  // The p99 goes to stderr only: on a shared virtual machine it follows
  // the host's preemptions, not the program (see README.md).
  std::cerr << "perfbench: " << m.rounds.size() << " rounds, "
            << request_s.size() << " requests in " << wall_s
            << " s; request p99 " << nearest_rank(request_s, 0.99) * 1e3
            << " ms\n";
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"wall_s", wall_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cells_per_s", m.cells / wall_s, "1/s"},
      {"submits_per_s", static_cast<double>(request_s.size()) / wall_s, "1/s"},
      {"submit_p50_ms", median(request_s) * 1e3, "ms"},
      {"pairs_per_s", m.pairs / wall_s, "1/s"},
  };
}

namespace {

/// The spans whose self time feeds a per-layer metric below. Only they
/// count as covered; the replay's root span, its set-up and checks
/// (bench.*) and any glue between calls do not.
constexpr std::array<std::string_view, 24> kLayerSpans = {
    "workloads.generate",    "trace.write",
    "trace.scan",            "metrics.ingest",
    "metrics.hops",          "metrics.utilization",
    "metrics.link_loads",    "metrics.link_loads_ecmp",
    "metrics.windowed",      "metrics.congestion",
    "metrics.tiled_accumulate", "topology.graph_build",
    "topology.plan_minimal", "topology.plan_ecmp",
    "topology.plan_fault",   "topology.sized_build",
    "topology.plan_window",  "analysis.cell",
    "engine.serial",         "engine.parallel",
    "engine.cache_write",    "engine.cache_read",
    "serve.codec",           "serve.transport"};

/// The benchmark's own work inside a replay: set-up that no layer
/// metric breaks down, and the checks.
constexpr std::array<std::string_view, 2> kOwnSpans = {"bench.setup",
                                                       "bench.check"};

double total_duration(const Tracer& t,
                      std::span<const std::string_view> names) {
  double total = 0.0;
  for (const auto name : names) {
    for (const double d : t.durations(name)) total += d;
  }
  return total;
}

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& t, double traced_wall_s,
                                  double untraced_wall_s) {
  const auto self = [&t](std::string_view name) { return t.self_time(name); };
  const auto per = [](double value, double base) {
    return base > 0.0 ? value / base : 0.0;
  };
  const double submits = t.counted("serve.submits");
  // The layers are measured against the traced wall time less the
  // benchmark's own set-up and checks, which no layer metric names.
  const double own_s = total_duration(t, kOwnSpans);
  const double measured_s = traced_wall_s - own_s;
  return {
      {"workloads.generate_s", self("workloads.generate"), "s"},
      {"workloads.events", t.counted("workloads.events"), "count"},
      {"trace.write_s", self("trace.write"), "s"},
      {"trace.scan_s", self("trace.scan"), "s"},
      {"trace.events_per_s",
       per(t.counted("trace.events"), self("trace.scan")), "1/s"},
      {"metrics.ingest_s", self("metrics.ingest"), "s"},
      {"metrics.nonzero_pairs", t.counted("metrics.nonzero_pairs"), "count"},
      {"metrics.hops_s", self("metrics.hops"), "s"},
      {"metrics.utilization_s", self("metrics.utilization"), "s"},
      {"metrics.link_loads_s", self("metrics.link_loads"), "s"},
      {"metrics.link_loads_ecmp_s", self("metrics.link_loads_ecmp"), "s"},
      {"metrics.windowed_s", self("metrics.windowed"), "s"},
      {"metrics.congestion_s", self("metrics.congestion"), "s"},
      {"metrics.hot_links", t.counted("metrics.hot_links"), "count"},
      {"metrics.hotspots", t.counted("metrics.hotspots"), "count"},
      {"metrics.tiled_accumulate_s", self("metrics.tiled_accumulate"), "s"},
      {"topology.graph_build_s", self("topology.graph_build"), "s"},
      {"topology.plan_minimal_s", self("topology.plan_minimal"), "s"},
      {"topology.plan_ecmp_s", self("topology.plan_ecmp"), "s"},
      {"topology.plan_fault_s", self("topology.plan_fault"), "s"},
      {"topology.sized_build_s", self("topology.sized_build"), "s"},
      {"topology.plan_window_s", self("topology.plan_window"), "s"},
      {"topology.window", t.counted("topology.window"), "count"},
      {"topology.out_of_window_hits", t.counted("topology.out_of_window_hits"),
       "count"},
      {"analysis.cell_s", median(t.durations("analysis.cell")), "s"},
      {"engine.serial_s", self("engine.serial"), "s"},
      {"engine.parallel_speedup",
       per(self("engine.serial"), self("engine.parallel")), "x"},
      {"engine.plans_built", t.counted("engine.plans_built"), "count"},
      {"engine.jobs_run", t.counted("engine.jobs_run"), "count"},
      {"engine.hop_queries", t.counted("engine.hop_queries"), "count"},
      {"engine.cache_write_s", self("engine.cache_write"), "s"},
      {"engine.cache_read_s", self("engine.cache_read"), "s"},
      {"engine.cache_hits", t.counted("engine.cache_hits"), "count"},
      {"serve.accept_ms", median(t.samples("serve.accept_ms")), "ms"},
      {"serve.result_ms", median(t.samples("serve.result_ms")), "ms"},
      {"serve.codec_ms", per(self("serve.codec") * 1e3, submits), "ms"},
      {"serve.transport_ms", per(self("serve.transport") * 1e3, submits),
       "ms"},
      {"serve.frame_bytes", per(t.counted("serve.frame_bytes"), submits),
       "bytes"},
      {"serve.coalesced", t.counted("serve.coalesced"), "count"},
      {"bench.spans", static_cast<double>(t.spans().size()), "count"},
      {"bench.untraced_wall_s", untraced_wall_s, "s"},
      {"bench.traced_wall_s", traced_wall_s, "s"},
      {"bench.tracing_overhead_s", traced_wall_s - untraced_wall_s, "s"},
      {"bench.own_work_s", own_s, "s"},
      {"bench.uncovered_share",
       1.0 - per(t.self_time(kLayerSpans), measured_s), "ratio"},
  };
}

void print_result(std::ostream& out, const Ledger& ledger,
                  const std::vector<Metric>& metrics) {
  std::ostringstream line;
  line.precision(std::numeric_limits<double>::max_digits10);
  line << "{\"correct\": " << (ledger.correct() ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted()
       << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a metric without a defined value
    // reads 0 (and is reported).
    double value = m.value;
    if (!std::isfinite(value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      value = 0.0;
    }
    line << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  line << "}}\n";
  out << line.str() << std::flush;
}

}  // namespace perfbench
