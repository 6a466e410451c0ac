// The benchmark's workloads. Each has a timed run (set-up, timed
// region, checks; end-to-end metrics) and a replay for the traced run
// (the same work, one netloc module call at a time, inside spans).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "netloc/trace/trace.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  Measurement (*run)(const Options& options, Ledger& ledger);
  void (*replay)(const Options& options, Tracer& tracer, Ledger& ledger);
};

Measurement run_table3_cold(const Options& options, Ledger& ledger);
void replay_table3_cold(const Options& options, Tracer& tracer, Ledger& ledger);

Measurement run_routing_whatif(const Options& options, Ledger& ledger);
void replay_routing_whatif(const Options& options, Tracer& tracer,
                           Ledger& ledger);

Measurement run_serve_warm(const Options& options, Ledger& ledger);
void replay_serve_warm(const Options& options, Tracer& tracer, Ledger& ledger);

Measurement run_scale_budgeted(const Options& options, Ledger& ledger);
void replay_scale_budgeted(const Options& options, Tracer& tracer,
                           Ledger& ledger);

/// Events of a materialized trace, for the workloads.events and
/// trace.events counts.
inline double event_count(const netloc::trace::Trace& trace) {
  return static_cast<double>(trace.p2p().size() + trace.collectives().size());
}

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"table3_cold", run_table3_cold, replay_table3_cold},
      {"routing_whatif", run_routing_whatif, replay_routing_whatif},
      {"serve_warm", run_serve_warm, replay_serve_warm},
      {"scale_budgeted", run_scale_budgeted, replay_scale_budgeted},
  };
  return all;
}

}  // namespace perfbench
