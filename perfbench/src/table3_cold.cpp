// table3_cold: the whole of Table 3 (41 catalog rows × 3 topologies)
// through a fresh SweepEngine under minimal routing, with a fixed job
// count and an empty result-cache directory on every pass. Trace
// generation, ingest, minimal RoutePlan builds and cache writes
// dominate; ECMP never runs.
#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "netloc/common/thread_pool.hpp"
#include "netloc/engine/result_cache.hpp"
#include "netloc/engine/sweep.hpp"
#include "netloc/mapping/mapping.hpp"
#include "netloc/metrics/hops.hpp"
#include "netloc/metrics/utilization.hpp"
#include "netloc/topology/configs.hpp"
#include "netloc/trace/sink.hpp"
#include "netloc/workloads/catalog.hpp"
#include "netloc/workloads/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using netloc::analysis::ExperimentRow;

namespace {

/// A pass takes about this long with 4 jobs on a 4-core machine.
constexpr double kNominalPassS = 2.5;
constexpr int kSetupPasses = 3;

/// Entries whose torus and fat-tree cells are checked hop for hop
/// against the benchmark's BFS (their dragonfly cells against its
/// lower bound). Fixed, so every seed checks the same cells; CNS is
/// one of the seeded generators.
const std::vector<std::pair<std::string, int>> kBfsSample = {
    {"AMG", 216}, {"CNS", 256}, {"LULESH", 512}, {"MiniFE", 144}};

/// Sweep worker threads: 4, or fewer on a smaller machine.
int sweep_jobs() {
  return std::min(4, netloc::ThreadPool::default_parallelism());
}

bool in_bfs_sample(const netloc::workloads::CatalogEntry& entry) {
  return entry.variant == 0 &&
         std::find(kBfsSample.begin(), kBfsSample.end(),
                   std::make_pair(entry.app, entry.ranks)) != kBfsSample.end();
}

/// One cold pass: a fresh engine over an empty cache directory.
std::vector<ExperimentRow> cold_pass(const Options& options, int jobs,
                                     const fs::path& cache_dir,
                                     netloc::engine::SweepStats* stats) {
  netloc::engine::SweepOptions sweep;
  sweep.run.seed = options.seed;
  sweep.jobs = jobs;
  sweep.cache_dir = cache_dir.string();
  netloc::engine::SweepEngine engine(sweep);
  auto rows = engine.run_catalog();
  if (stats != nullptr) *stats = engine.stats();
  return rows;
}

/// Eq. 4 and Eq. 5 of one cell against the benchmark's own totals.
void check_equations(Verdict& verdict,
                     const netloc::analysis::TopologyResult& cell,
                     const CellInputs& inputs,
                     const netloc::topology::Topology& topology) {
  verdict.require(eq4_holds(cell, inputs.packets), "Eq. 4 (avg hops)");
  verdict.require(eq5_holds(cell, inputs.volume, inputs.duration_s,
                            paper_links(topology, inputs.ranks)),
                  "Eq. 5 (utilization)");
}

/// Packet hops of a cell against the BFS oracle: equal on the torus
/// and the fat tree (minimal routes are shortest paths there), at
/// least the BFS sum on the dragonfly.
bool hops_match_bfs(const netloc::analysis::TopologyResult& cell,
                    const netloc::metrics::TrafficMatrix& matrix,
                    const netloc::topology::Topology& topology) {
  const auto graph = topology.build_graph();
  if (!graph) return false;
  const std::int64_t oracle = bfs_packet_hops(matrix, *graph);
  const auto hops = static_cast<std::int64_t>(cell.packet_hops);
  if (oracle < 0) return false;
  return topology.name() == "dragonfly" ? oracle <= hops : oracle == hops;
}

}  // namespace

Measurement run_table3_cold(const Options& options, Ledger& ledger) {
  Measurement m;
  const int jobs = sweep_jobs();
  const fs::path cache_dir = options.workdir / "table3-cache";

  // Set-up: untimed warm-up passes (page cache, allocator, registries).
  for (int i = 0; i < kSetupPasses; ++i) {
    fs::remove_all(cache_dir);
    const auto begin = Clock::now();
    cold_pass(options, jobs, cache_dir, nullptr);
    m.setup_s.push_back(seconds_since(begin));
  }

  const int passes = rounds_for(options.seconds, kNominalPassS);
  std::vector<std::vector<ExperimentRow>> results;
  for (int p = 0; p < passes; ++p) {
    fs::remove_all(cache_dir);
    netloc::engine::SweepStats stats;
    const auto begin = Clock::now();
    auto rows = cold_pass(options, jobs, cache_dir, &stats);
    m.add_request_round(seconds_since(begin));
    m.cells += 3.0 * static_cast<double>(rows.size());
    m.pairs += static_cast<double>(stats.hop_queries);
    results.push_back(std::move(rows));
  }

  // Checks: every cell of every pass, against totals the benchmark
  // gathers itself; later passes must repeat the first exactly.
  const auto& catalog = netloc::workloads::catalog();
  ledger.invariant(results.front().size() == catalog.size(),
                   "pass returned a row per catalog entry");
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto& entry = catalog[i];
    const bool sampled = in_bfs_sample(entry);
    const CellInputs inputs = cell_inputs(entry, options.seed, sampled);
    const auto topologies = netloc::topology::topologies_for(inputs.ranks);
    const auto all = topologies.all();
    for (std::size_t t = 0; t < all.size(); ++t) {
      const auto& first = results.front()[i].topologies[t];
      const bool bfs_ok =
          !sampled || hops_match_bfs(first, *inputs.matrix, *all[t]);
      for (const auto& rows : results) {
        const auto& cell = rows[i].topologies[t];
        Verdict verdict;
        check_equations(verdict, cell, inputs, *all[t]);
        verdict.require(bfs_ok, "packet hops against the BFS oracle");
        verdict.require(same_cell(cell, first), "pass repeats the first");
        ledger.operation(verdict, entry.label() + " " + all[t]->name());
      }
    }
  }
  return m;
}

void replay_table3_cold(const Options& options, Tracer& tracer,
                        Ledger& ledger) {
  Tracer::Scope root(tracer, "bench.table3_cold");
  netloc::analysis::RunOptions run;
  run.seed = options.seed;
  const auto& catalog = netloc::workloads::catalog();
  std::vector<ExperimentRow> rows;
  rows.reserve(catalog.size());

  // The engine's per-row pipeline, one module call at a time.
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto& entry = catalog[i];
    const auto request = static_cast<std::int64_t>(i);
    netloc::trace::Trace trace;
    {
      Tracer::Scope span(tracer, "workloads.generate", request);
      trace = netloc::workloads::generator(entry.app).generate(entry, run.seed);
    }
    tracer.count("workloads.events", event_count(trace));
    netloc::analysis::StreamAnalysis analysis;
    {
      Tracer::Scope span(tracer, "metrics.ingest", request);
      analysis = netloc::analysis::analyze_stream(
          [&trace](netloc::trace::EventSink& sink) {
            netloc::trace::emit(trace, sink);
          },
          entry, run, /*want_full_matrix=*/true);
    }
    const auto& matrix = *analysis.full_matrix;
    tracer.count("metrics.nonzero_pairs",
                 static_cast<double>(matrix.nonzero_pairs()));
    ExperimentRow row = std::move(analysis.row);
    const int ranks = row.stats.num_ranks;
    const double duration = row.stats.duration;
    const auto topologies = netloc::topology::topologies_for(ranks);
    const auto all = topologies.all();
    for (std::size_t t = 0; t < all.size(); ++t) {
      const auto& topo = *all[t];
      const auto cell_mapping =
          netloc::mapping::Mapping::linear(ranks, topo.num_nodes());
      {
        Tracer::Scope span(tracer, "topology.graph_build", request);
        (void)topo.build_graph();
      }
      std::shared_ptr<const netloc::topology::RoutePlan> plan;
      {
        Tracer::Scope span(tracer, "topology.plan_minimal", request);
        plan = netloc::topology::RoutePlan::build(topo, ranks);
      }
      {
        Tracer::Scope span(tracer, "analysis.cell", request);
        row.topologies[t] = netloc::analysis::analyze_topology(
            matrix, topo, ranks, duration, run, plan.get());
      }
      netloc::metrics::HopStats hops;
      {
        Tracer::Scope span(tracer, "metrics.hops", request);
        hops = netloc::metrics::hop_stats(matrix, topo, cell_mapping,
                                          plan.get());
      }
      {
        Tracer::Scope span(tracer, "metrics.utilization", request);
        (void)netloc::metrics::utilization(matrix, topo, cell_mapping,
                                           duration);
        (void)netloc::metrics::utilization(
            matrix, topo, cell_mapping, duration,
            netloc::metrics::LinkCountMode::UsedLinks,
            netloc::metrics::kPaperBandwidthBytesPerS, plan.get());
      }
      {
        Tracer::Scope span(tracer, "metrics.link_loads", request);
        (void)netloc::metrics::link_loads(matrix, topo, cell_mapping,
                                          plan.get());
      }
      Tracer::Scope span(tracer, "bench.check", request);
      const CellInputs inputs{ranks, duration, matrix.total_packets(),
                              matrix.total_bytes(), nullptr};
      Verdict verdict;
      check_equations(verdict, row.topologies[t], inputs, topo);
      verdict.require(hops.packet_hops == row.topologies[t].packet_hops,
                      "hop kernel agrees with the cell");
      ledger.operation(verdict, entry.label() + " " + topo.name());
    }
    rows.push_back(std::move(row));
  }

  {
    Tracer::Scope span(tracer, "engine.cache_write");
    netloc::engine::ResultCache cache(
        (options.workdir / "replay-cache").string());
    for (const auto& row : rows) {
      cache.store(netloc::engine::result_cache_key(row.entry, run), row);
    }
  }

  // The engine itself: a serial pass, then the parallel pass the
  // speed-up is measured against.
  netloc::engine::SweepStats stats;
  std::vector<ExperimentRow> serial;
  std::vector<ExperimentRow> parallel;
  {
    Tracer::Scope span(tracer, "engine.serial");
    fs::remove_all(options.workdir / "serial-cache");
    serial = cold_pass(options, 1, options.workdir / "serial-cache", nullptr);
  }
  {
    Tracer::Scope span(tracer, "engine.parallel");
    fs::remove_all(options.workdir / "parallel-cache");
    parallel = cold_pass(options, sweep_jobs(),
                         options.workdir / "parallel-cache", &stats);
  }
  tracer.count("engine.plans_built", stats.plans_built);
  tracer.count("engine.jobs_run", stats.jobs_run);
  tracer.count("engine.hop_queries", static_cast<double>(stats.hop_queries));

  Tracer::Scope span(tracer, "bench.check");
  bool same = serial.size() == rows.size() && parallel.size() == rows.size();
  for (std::size_t i = 0; same && i < rows.size(); ++i) {
    for (std::size_t t = 0; t < 3; ++t) {
      same = same &&
             same_cell(serial[i].topologies[t], rows[i].topologies[t]) &&
             same_cell(parallel[i].topologies[t], rows[i].topologies[t]);
    }
  }
  ledger.invariant(same, "engine passes repeat the module-by-module cells");
}

}  // namespace perfbench
