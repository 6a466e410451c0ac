// Result line and per-layer metric assembly.
#pragma once

#include <ostream>
#include <vector>

#include "common.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Every per-layer metric, in BENCHMARK.json order, from one traced
/// replay. Layers the replay never entered read 0: their self time in
/// this workload is nil. `untraced_wall_s` is the same replay with the
/// tracer off; the difference is the tracing overhead.
std::vector<Metric> layer_metrics(const Tracer& tracer, double traced_wall_s,
                                  double untraced_wall_s);

/// The single-line JSON result: correct, attempted, failed, metrics.
void print_result(std::ostream& out, const Ledger& ledger,
                  const std::vector<Metric>& metrics);

}  // namespace perfbench
