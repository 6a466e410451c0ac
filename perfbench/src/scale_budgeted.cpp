// scale_budgeted: HALO3D on the sized random-regular topology under an
// explicit memory budget — the scale tier's data path. Set-up is the
// budget-tiled traffic accumulation; the timed region builds the
// topology and the window_for_budget route plan and runs the hop,
// utilization and link-load kernels at a fixed kernel_threads. The
// budget keeps the distance window below the node count, so queries
// beyond it take the out-of-window fallback.
#include <memory>
#include <optional>
#include <vector>

#include "checks.hpp"
#include "netloc/mapping/mapping.hpp"
#include "netloc/metrics/hops.hpp"
#include "netloc/metrics/traffic_matrix.hpp"
#include "netloc/metrics/utilization.hpp"
#include "netloc/topology/large.hpp"
#include "netloc/topology/route_plan.hpp"
#include "netloc/trace/sink.hpp"
#include "netloc/workloads/scale.hpp"
#include "netloc/workloads/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace topo = netloc::topology;
namespace metrics = netloc::metrics;

namespace {

/// One endpoint per switch: the topology build is one BFS per switch
/// (about 3 s here at 6000; 16 s at the 100k-endpoint row).
constexpr int kEndpoints = 6000;
/// 32 MiB: the traffic strip gets budget/4, the distance table
/// budget/8, a 1448-node window.
constexpr std::size_t kBudgetBytes = std::size_t{32} << 20;
constexpr int kKernelThreads = 2;
constexpr double kNominalRoundS = 3.2;
constexpr int kSetupRepetitions = 15;
/// Sources whose plan distances are checked against the BFS oracle:
/// inside the window, at its edge, and beyond it.
const std::vector<int> kBfsSources = {0, 1, 1447, 1448, 2999, 4500, 5999};

metrics::TrafficOptions traffic_options() {
  return {.include_p2p = true,
          .include_collectives = true,
          .memory_budget_bytes = kBudgetBytes / 4};
}

/// What one scale evaluation produced.
struct Evaluation {
  std::optional<topo::RandomRegular> topology;
  std::shared_ptr<const topo::RoutePlan> plan;
  metrics::HopStats hops;
  metrics::UtilizationResult utilization;
  metrics::LinkLoadStats loads;
  std::uint64_t out_of_window_hits = 0;
};

/// One timed round; the tracer wraps each module call in its span.
Evaluation evaluate(const metrics::TrafficMatrix& matrix, std::uint64_t seed,
                    double duration, Tracer& tracer) {
  Evaluation e;
  {
    Tracer::Scope span(tracer, "topology.sized_build");
    e.topology.emplace(topo::sized_random_regular(kEndpoints, seed));
  }
  {
    Tracer::Scope span(tracer, "topology.plan_window");
    const int window = topo::RoutePlan::window_for_budget(
        e.topology->num_nodes(), kBudgetBytes / 8);
    e.plan = topo::RoutePlan::build(*e.topology, {}, window);
  }
  const auto mapping =
      netloc::mapping::Mapping::linear(kEndpoints, e.topology->num_nodes());
  {
    Tracer::Scope span(tracer, "metrics.hops");
    e.hops = metrics::hop_stats(matrix, *e.topology, mapping, e.plan.get(),
                                kKernelThreads);
  }
  {
    Tracer::Scope span(tracer, "metrics.utilization");
    e.utilization = metrics::utilization(
        matrix, *e.topology, mapping, duration,
        metrics::LinkCountMode::PaperFormula, metrics::kPaperBandwidthBytesPerS,
        e.plan.get(), kKernelThreads);
  }
  {
    Tracer::Scope span(tracer, "metrics.link_loads");
    e.loads = metrics::link_loads(matrix, *e.topology, mapping, e.plan.get(),
                                  kKernelThreads);
  }
  e.out_of_window_hits = e.plan->out_of_window_hits();
  return e;
}

/// Checks of one evaluation; `first` (if any) must be repeated exactly.
Verdict check(const metrics::TrafficMatrix& matrix, double duration,
              const Evaluation& e, const Evaluation* first) {
  Verdict v;
  const auto& plan = *e.plan;
  v.require(plan.window() < plan.num_nodes(),
            "distance window smaller than the node count");
  v.require(e.out_of_window_hits > 0, "queries beyond the window fall back");
  netloc::analysis::TopologyResult cell;
  cell.packet_hops = e.hops.packet_hops;
  cell.avg_hops = e.hops.avg_hops;
  cell.utilization_percent = e.utilization.utilization_percent;
  v.require(e.hops.packets == matrix.total_packets() &&
                eq4_holds(cell, e.hops.packets),
            "Eq. 4 (avg hops)");
  v.require(eq5_holds(cell, matrix.total_bytes(), duration,
                      paper_links(*e.topology, kEndpoints)),
            "Eq. 5 (utilization)");
  v.require(e.loads.used_links > 0, "link loads route the traffic");
  const auto graph = e.topology->build_graph();
  for (const int source : kBfsSources) {
    v.require(graph && plan_matches_bfs(plan, source, bfs(*graph, source)),
              "plan distances against the BFS oracle");
  }
  if (first != nullptr) {
    v.require(e.hops.packet_hops == first->hops.packet_hops &&
                  e.utilization.utilization_percent ==
                      first->utilization.utilization_percent &&
                  e.loads.used_links == first->loads.used_links &&
                  e.loads.max_link_bytes == first->loads.max_link_bytes,
              "round repeats the first");
  }
  return v;
}

metrics::TrafficMatrix accumulate(const netloc::workloads::CatalogEntry& entry,
                                  std::uint64_t seed) {
  metrics::TrafficAccumulator accumulator(traffic_options());
  netloc::workloads::generator(entry.app).generate_into(entry, seed,
                                                        accumulator);
  return accumulator.take();
}

}  // namespace

Measurement run_scale_budgeted(const Options& options, Ledger& ledger) {
  Measurement m;
  const auto entry = netloc::workloads::scale_entry("HALO3D", kEndpoints);
  std::optional<metrics::TrafficMatrix> matrix;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    matrix.reset();
    const auto begin = Clock::now();
    matrix.emplace(accumulate(entry, options.seed));
    m.setup_s.push_back(seconds_since(begin));
  }
  ledger.invariant(matrix->tiled(), "accumulation ran strip-tiled");

  const int rounds = rounds_for(options.seconds, kNominalRoundS);
  std::optional<Evaluation> first;
  Tracer untraced(false);
  for (int r = 0; r < rounds; ++r) {
    const auto begin = Clock::now();
    Evaluation e = evaluate(*matrix, options.seed, entry.time_s, untraced);
    m.add_request_round(seconds_since(begin));
    m.cells += 1.0;
    m.pairs += static_cast<double>(matrix->nonzero_pairs());
    ledger.operation(check(*matrix, entry.time_s, e, first ? &*first : nullptr),
                     "HALO3D/6000 rrg");
    if (!first) first = std::move(e);
  }
  return m;
}

void replay_scale_budgeted(const Options& options, Tracer& tracer,
                           Ledger& ledger) {
  Tracer::Scope root(tracer, "bench.scale_budgeted");
  const auto entry = netloc::workloads::scale_entry("HALO3D", kEndpoints);
  netloc::trace::Trace trace;
  {
    Tracer::Scope span(tracer, "workloads.generate");
    trace =
        netloc::workloads::generator(entry.app).generate(entry, options.seed);
  }
  tracer.count("workloads.events", event_count(trace));
  std::optional<metrics::TrafficMatrix> matrix;
  {
    Tracer::Scope span(tracer, "metrics.tiled_accumulate");
    metrics::TrafficAccumulator accumulator(traffic_options());
    netloc::trace::emit(trace, accumulator);
    matrix.emplace(accumulator.take());
  }
  tracer.count("metrics.nonzero_pairs",
               static_cast<double>(matrix->nonzero_pairs()));
  const Evaluation e = evaluate(*matrix, options.seed, entry.time_s, tracer);
  tracer.count("topology.window", e.plan->window());
  tracer.count("topology.out_of_window_hits",
               static_cast<double>(e.out_of_window_hits));
  Tracer::Scope span(tracer, "bench.check");
  ledger.operation(check(*matrix, entry.time_s, e, nullptr), "HALO3D/6000 rrg");
}

}  // namespace perfbench
