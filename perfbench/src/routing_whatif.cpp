// routing_whatif: two mid-size catalog entries that report hot links
// under ECMP, read back from dumpi-lite trace files and evaluated on
// all three topologies under ECMP routing with windowed congestion and
// under a per-topology link fault mask. Per-pair ECMP BFS dominates;
// this is the only workload that reads trace files.
#include <array>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "netloc/mapping/mapping.hpp"
#include "netloc/metrics/congestion.hpp"
#include "netloc/metrics/hops.hpp"
#include "netloc/metrics/utilization.hpp"
#include "netloc/metrics/windowed.hpp"
#include "netloc/topology/configs.hpp"
#include "netloc/trace/io.hpp"
#include "netloc/trace/sink.hpp"
#include "netloc/workloads/catalog.hpp"
#include "netloc/workloads/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace topo = netloc::topology;
using netloc::analysis::TopologyResult;

namespace {

/// AMG/216 and AMR_Miniapp/64 take about 1.6 s and 1.5 s here; LULESH/512
/// would take minutes under ECMP.
const std::vector<std::pair<std::string, int>> kEntries = {
    {"AMG", 216}, {"AMR_Miniapp", 64}};
constexpr int kWindows = 8;
constexpr double kHotThreshold = 0.001;
constexpr int kTopK = 5;
/// Links failed per topology (the first present non-injection links).
constexpr int kFaultLinks = 4;
constexpr double kNominalRoundS = 3.2;
constexpr int kSetupRepetitions = 20;

netloc::analysis::RunOptions ecmp_options(std::uint64_t seed) {
  netloc::analysis::RunOptions run;
  run.seed = seed;
  run.routing.kind = topo::RoutingKind::kEcmp;
  run.congestion.windows = kWindows;
  run.congestion.threshold = kHotThreshold;
  run.congestion.top_k = kTopK;
  return run;
}

/// One what-if question: its trace file and each topology's fault mask.
struct Question {
  netloc::workloads::CatalogEntry entry;
  fs::path trace_path;
  std::array<std::vector<netloc::LinkId>, 3> faults;
};

/// Set-up: generate each entry's trace, write it with trace::save and
/// pick each topology's fault links from its graph.
std::vector<Question> prepare(const Options& options, Tracer& tracer) {
  std::vector<Question> questions;
  for (const auto& [app, ranks] : kEntries) {
    Question q;
    q.entry = netloc::workloads::catalog_entry(app, ranks);
    q.trace_path =
        options.workdir / (app + "-" + std::to_string(ranks) + ".nltr");
    netloc::trace::Trace trace;
    {
      Tracer::Scope span(tracer, "workloads.generate");
      trace = netloc::workloads::generator(app).generate(q.entry, options.seed);
    }
    tracer.count("workloads.events", event_count(trace));
    {
      Tracer::Scope span(tracer, "trace.write");
      netloc::trace::save(trace, q.trace_path.string());
    }
    const auto topologies = topo::topologies_for(ranks);
    const auto all = topologies.all();
    for (std::size_t t = 0; t < all.size(); ++t) {
      std::optional<topo::NetworkGraph> graph;
      {
        Tracer::Scope span(tracer, "topology.graph_build");
        graph = all[t]->build_graph();
      }
      q.faults[t] = fault_links(*graph, kFaultLinks);
    }
    questions.push_back(std::move(q));
  }
  return questions;
}

/// Everything one answered question produced.
struct Answer {
  netloc::analysis::StreamAnalysis analysis;
  std::array<TopologyResult, 3> ecmp;
  std::array<TopologyResult, 3> fault;
  std::array<std::shared_ptr<const topo::RoutePlan>, 3> ecmp_plans;
  std::array<std::shared_ptr<const topo::RoutePlan>, 3> fault_plans;
};

Answer answer(const Question& q, const netloc::analysis::RunOptions& ecmp) {
  Answer a;
  a.analysis = netloc::analysis::analyze_stream(
      [&q](netloc::trace::EventSink& sink) {
        netloc::trace::scan(q.trace_path.string(), sink);
      },
      q.entry, ecmp, /*want_full_matrix=*/true);
  const int ranks = a.analysis.row.stats.num_ranks;
  const double duration = a.analysis.row.stats.duration;
  const auto topologies = topo::topologies_for(ranks);
  const auto all = topologies.all();
  for (std::size_t t = 0; t < all.size(); ++t) {
    a.ecmp_plans[t] = topo::RoutePlan::build(*all[t], ecmp.routing, ranks);
    a.ecmp[t] = netloc::analysis::analyze_topology(
        *a.analysis.full_matrix, *all[t], ranks, duration, ecmp,
        a.ecmp_plans[t].get(), a.analysis.windowed.get());
    netloc::analysis::RunOptions fault;
    fault.seed = ecmp.seed;
    fault.routing.failed_links = q.faults[t];
    a.fault_plans[t] = topo::RoutePlan::build(*all[t], fault.routing, ranks);
    a.fault[t] = netloc::analysis::analyze_topology(
        *a.analysis.full_matrix, *all[t], ranks, duration, fault,
        a.fault_plans[t].get());
  }
  return a;
}

/// Per-cell verdicts of one answer, from computations the benchmark
/// makes itself: index t for ECMP cells, 3 + t for fault cells.
std::array<Verdict, 6> check_answer(const Question& q, const Answer& a) {
  std::array<Verdict, 6> verdicts;
  const auto& matrix = *a.analysis.full_matrix;
  const int ranks = matrix.num_ranks();
  const double duration = a.analysis.row.stats.duration;
  const bool windows_ok =
      a.analysis.windowed != nullptr &&
      static_cast<int>(a.analysis.windowed->windows.size()) == kWindows &&
      windows_sum_to(a.analysis.windowed->windows, matrix);
  const auto topologies = topo::topologies_for(ranks);
  const auto all = topologies.all();
  for (std::size_t t = 0; t < all.size(); ++t) {
    const auto& topology = *all[t];
    const bool exact = topology.name() != "dragonfly";
    const auto graph = topology.build_graph();
    const auto mapping =
        netloc::mapping::Mapping::linear(ranks, topology.num_nodes());

    Verdict& e = verdicts[t];
    e.require(eq4_holds(a.ecmp[t], matrix.total_packets()), "Eq. 4 (ECMP)");
    e.require(eq5_holds(a.ecmp[t], matrix.total_bytes(), duration,
                        paper_links(topology, ranks)),
              "Eq. 5 (ECMP)");
    e.require(windows_ok, "per-window matrices sum to the full matrix");
    // ECMP distances are graph shortest paths on every topology.
    e.require(static_cast<std::int64_t>(a.ecmp[t].packet_hops) ==
                  bfs_packet_hops(matrix, *graph),
              "ECMP packet hops against the BFS oracle");
    if (exact) {
      std::vector<double> ecmp_loads(
          static_cast<std::size_t>(topology.num_links()), 0.0);
      netloc::metrics::accumulate_link_loads(matrix, *a.ecmp_plans[t], mapping,
                                             ecmp_loads);
      std::vector<netloc::Bytes> minimal_loads(
          static_cast<std::size_t>(topology.num_links()), 0);
      netloc::metrics::accumulate_link_loads(
          matrix, *topo::RoutePlan::build(topology, ranks), mapping,
          minimal_loads);
      double ecmp_byte_hops = 0.0;
      for (const double load : ecmp_loads) ecmp_byte_hops += load;
      double minimal_byte_hops = 0.0;
      for (const auto load : minimal_loads) {
        minimal_byte_hops += static_cast<double>(load);
      }
      e.require(nearly_equal(ecmp_byte_hops, minimal_byte_hops, 1e-9),
                "ECMP byte-hops equal minimal byte-hops");
    }

    Verdict& f = verdicts[3 + t];
    const auto& plan = *a.fault_plans[t];
    std::vector<std::uint8_t> mask(
        static_cast<std::size_t>(topology.num_links()), 0);
    for (const auto link : q.faults[t]) {
      mask[static_cast<std::size_t>(link)] = 1;
    }
    const auto hops =
        netloc::metrics::hop_stats(matrix, topology, mapping, &plan);
    f.require(!plan.disconnected() && hops.unroutable_packets == 0,
              "no packet unroutable under the fault mask");
    f.require(eq4_holds(a.fault[t], matrix.total_packets()), "Eq. 4 (fault)");
    f.require(eq5_holds(a.fault[t], matrix.total_bytes(), duration,
                        paper_links(topology, ranks,
                                    static_cast<int>(q.faults[t].size()))),
              "Eq. 5 (fault)");
    bool pairs_longer = true;
    matrix.for_each_nonzero([&](netloc::Rank src, netloc::Rank dst,
                                const netloc::metrics::TrafficCell&) {
      if (plan.hop_distance(src, dst) < topology.hop_distance(src, dst)) {
        pairs_longer = false;
      }
    });
    f.require(pairs_longer, "fault-mask hops at least the minimal hops");
    const std::int64_t masked = bfs_packet_hops(matrix, *graph, mask);
    const auto fault_hops = static_cast<std::int64_t>(a.fault[t].packet_hops);
    f.require(
        masked >= 0 && (exact ? fault_hops == masked : fault_hops >= masked),
        "fault packet hops against the masked BFS oracle");
  }
  return verdicts;
}

int hot_links(const Answer& a) {
  int hot = 0;
  for (const auto& cell : a.ecmp) hot += cell.congestion.hot_links;
  return hot;
}

}  // namespace

Measurement run_routing_whatif(const Options& options, Ledger& ledger) {
  Measurement m;
  std::vector<Question> questions;
  Tracer untraced(false);
  for (int i = 0; i < kSetupRepetitions; ++i) {
    fs::remove_all(options.workdir);
    fs::create_directories(options.workdir);
    const auto begin = Clock::now();
    questions = prepare(options, untraced);
    m.setup_s.push_back(seconds_since(begin));
  }

  const auto ecmp = ecmp_options(options.seed);
  const int rounds = rounds_for(options.seconds, kNominalRoundS);
  std::vector<Answer> first(questions.size());
  std::vector<std::array<Verdict, 6>> first_verdicts(questions.size());
  int hot = 0;
  for (int r = 0; r < rounds; ++r) {
    Measurement::Round& round = m.rounds.emplace_back();
    for (std::size_t i = 0; i < questions.size(); ++i) {
      const auto begin = Clock::now();
      Answer a = answer(questions[i], ecmp);
      const double elapsed = seconds_since(begin);
      round.request_s.push_back(elapsed);
      round.wall_s += elapsed;
      m.cells += 6.0;
      m.pairs += 6.0 * static_cast<double>(
                           a.analysis.full_matrix->nonzero_pairs());

      // Checks, untimed: the full set on the first round, repetition
      // of the first round's cells after that.
      if (r == 0) {
        first_verdicts[i] = check_answer(questions[i], a);
        hot += hot_links(a);
      }
      const std::string label = questions[i].entry.label();
      for (std::size_t c = 0; c < 6; ++c) {
        Verdict verdict = first_verdicts[i][c];
        const auto& cell = c < 3 ? a.ecmp[c] : a.fault[c - 3];
        if (r > 0) {
          const auto& base = c < 3 ? first[i].ecmp[c] : first[i].fault[c - 3];
          verdict.require(same_cell(cell, base), "round repeats the first");
        }
        ledger.operation(verdict, label + (c < 3 ? " ecmp " : " fault ") +
                                      cell.topology);
      }
      if (r == 0) first[i] = std::move(a);
    }
  }
  ledger.invariant(hot > 0, "ECMP congestion reports hot links");
  return m;
}

void replay_routing_whatif(const Options& options, Tracer& tracer,
                           Ledger& ledger) {
  Tracer::Scope root(tracer, "bench.routing_whatif");
  fs::remove_all(options.workdir);
  fs::create_directories(options.workdir);
  const auto questions = prepare(options, tracer);
  const auto ecmp = ecmp_options(options.seed);

  for (std::size_t i = 0; i < questions.size(); ++i) {
    const Question& q = questions[i];
    const auto request = static_cast<std::int64_t>(i);
    netloc::trace::Trace trace;
    {
      Tracer::Scope span(tracer, "trace.scan", request);
      netloc::trace::TraceCollector collector;
      netloc::trace::scan(q.trace_path.string(), collector);
      trace = collector.take();
    }
    tracer.count("trace.events", event_count(trace));
    Answer a;
    {
      Tracer::Scope span(tracer, "metrics.ingest", request);
      a.analysis = netloc::analysis::analyze_stream(
          [&trace](netloc::trace::EventSink& sink) {
            netloc::trace::emit(trace, sink);
          },
          q.entry, ecmp, /*want_full_matrix=*/true);
    }
    const auto& matrix = *a.analysis.full_matrix;
    tracer.count("metrics.nonzero_pairs",
                 static_cast<double>(matrix.nonzero_pairs()));
    {
      Tracer::Scope span(tracer, "metrics.windowed", request);
      (void)netloc::metrics::windowed_traffic(trace, kWindows);
    }
    const int ranks = trace.num_ranks();
    const double duration = a.analysis.row.stats.duration;
    const auto topologies = topo::topologies_for(ranks);
    const auto all = topologies.all();
    for (std::size_t t = 0; t < all.size(); ++t) {
      const auto& topology = *all[t];
      const auto mapping =
          netloc::mapping::Mapping::linear(ranks, topology.num_nodes());
      {
        Tracer::Scope span(tracer, "topology.graph_build", request);
        (void)topology.build_graph();
      }
      {
        Tracer::Scope span(tracer, "topology.plan_ecmp", request);
        a.ecmp_plans[t] = topo::RoutePlan::build(topology, ecmp.routing, ranks);
      }
      {
        Tracer::Scope span(tracer, "metrics.link_loads_ecmp", request);
        std::vector<double> loads(
            static_cast<std::size_t>(topology.num_links()), 0.0);
        netloc::metrics::accumulate_link_loads(matrix, *a.ecmp_plans[t],
                                               mapping, loads);
      }
      {
        Tracer::Scope span(tracer, "metrics.congestion", request);
        const auto report = netloc::metrics::congestion_report(
            a.analysis.windowed->windows, a.analysis.windowed->window_seconds,
            *a.ecmp_plans[t], mapping, ecmp.congestion);
        tracer.count("metrics.hot_links", report.hot_links);
        tracer.count("metrics.hotspots",
                     static_cast<double>(report.hotspots.size()));
      }
      {
        Tracer::Scope span(tracer, "analysis.cell", request);
        a.ecmp[t] = netloc::analysis::analyze_topology(
            matrix, topology, ranks, duration, ecmp, a.ecmp_plans[t].get(),
            a.analysis.windowed.get());
      }
      netloc::analysis::RunOptions fault;
      fault.seed = ecmp.seed;
      fault.routing.failed_links = q.faults[t];
      {
        Tracer::Scope span(tracer, "topology.plan_fault", request);
        a.fault_plans[t] =
            topo::RoutePlan::build(topology, fault.routing, ranks);
      }
      {
        Tracer::Scope span(tracer, "metrics.hops", request);
        (void)netloc::metrics::hop_stats(matrix, topology, mapping,
                                         a.fault_plans[t].get());
      }
      Tracer::Scope span(tracer, "analysis.cell", request);
      a.fault[t] = netloc::analysis::analyze_topology(
          matrix, topology, ranks, duration, fault, a.fault_plans[t].get());
    }
    Tracer::Scope span(tracer, "bench.check", request);
    const auto verdicts = check_answer(q, a);
    for (std::size_t c = 0; c < verdicts.size(); ++c) {
      ledger.operation(verdicts[c], q.entry.label());
    }
  }
}

}  // namespace perfbench
