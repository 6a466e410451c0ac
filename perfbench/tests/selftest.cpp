// Tests of the benchmark itself: each correctness check passes on
// netloc's real output and fails once a defect is seeded into it — a
// hop count off by one, a dropped window matrix, a tampered serve
// frame, an oracle BFS distance off by one.
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "netloc/analysis/export.hpp"
#include "netloc/engine/sweep.hpp"
#include "netloc/metrics/windowed.hpp"
#include "netloc/serve/client.hpp"
#include "netloc/serve/daemon.hpp"
#include "netloc/serve/transport.hpp"
#include "netloc/topology/configs.hpp"
#include "netloc/topology/route_plan.hpp"
#include "netloc/workloads/catalog.hpp"
#include "netloc/workloads/workload.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok      " : "FAILED  ") << what << "\n";
  if (!condition) ++failures;
}

void hop_count_off_by_one() {
  const auto& entry = netloc::workloads::catalog_entry("LULESH", 64);
  const CellInputs inputs = cell_inputs(entry, netloc::workloads::kDefaultSeed,
                                        /*keep_matrix=*/true);
  const auto topologies = netloc::topology::topologies_for(inputs.ranks);
  for (const auto* topology : topologies.all()) {
    const auto plan =
        netloc::topology::RoutePlan::build(*topology, inputs.ranks);
    auto cell = netloc::analysis::analyze_topology(
        *inputs.matrix, *topology, inputs.ranks, inputs.duration_s, {},
        plan.get());
    const double links = paper_links(*topology, inputs.ranks);
    const auto graph = topology->build_graph();
    const std::int64_t oracle = bfs_packet_hops(*inputs.matrix, *graph);
    const auto hops = static_cast<std::int64_t>(cell.packet_hops);
    const bool exact = topology->name() != "dragonfly";
    const std::string name = topology->name();
    expect(eq4_holds(cell, inputs.packets), name + ": Eq. 4 holds");
    expect(eq5_holds(cell, inputs.volume, inputs.duration_s, links),
           name + ": Eq. 5 holds");
    expect(exact ? oracle == hops : oracle <= hops,
           name + ": packet hops agree with the BFS oracle");

    cell.packet_hops += 1;
    expect(!eq4_holds(cell, inputs.packets),
           name + ": Eq. 4 trips on a hop count off by one");
    if (exact) {
      expect(oracle != static_cast<std::int64_t>(cell.packet_hops),
             name + ": BFS oracle trips on a hop count off by one");
    }
    cell.utilization_percent *= 1.0 + 1e-6;
    expect(!eq5_holds(cell, inputs.volume, inputs.duration_s, links),
           name + ": Eq. 5 trips on a perturbed utilization");
  }
}

void dropped_window_matrix() {
  const auto& entry = netloc::workloads::catalog_entry("AMG", 27);
  netloc::analysis::RunOptions run;
  run.congestion.windows = 8;
  const auto& generator = netloc::workloads::generator(entry.app);
  const auto analysis = netloc::analysis::analyze_stream(
      [&](netloc::trace::EventSink& sink) {
        generator.generate_into(entry, run.seed, sink);
      },
      entry, run, /*want_full_matrix=*/true);
  const auto& windows = analysis.windowed->windows;
  expect(windows_sum_to(windows, *analysis.full_matrix),
         "per-window matrices sum to the full matrix");
  expect(windows.front().nonzero_pairs() > 0, "first window carries traffic");
  expect(!windows_sum_to(std::span(windows).subspan(1), *analysis.full_matrix),
         "window sum trips on a dropped window matrix");
}

void tampered_serve_frame() {
  const std::string selector = "AMG/8";
  netloc::engine::SweepOptions sweep;
  sweep.jobs = 1;
  netloc::engine::SweepEngine engine(sweep);
  const auto rows =
      engine.run_rows({netloc::workloads::catalog_entry("AMG", 8)});
  std::ostringstream reference;
  netloc::analysis::write_table3_csv(rows, reference);

  netloc::serve::InProcessListener listener;
  netloc::serve::Daemon daemon(netloc::serve::DaemonOptions{.jobs = 1});
  std::thread serving([&] { daemon.serve(listener); });
  netloc::serve::Json frame;
  {
    netloc::serve::Client client(listener.connect());
    netloc::serve::SubmitRequest submit;
    submit.apps = {selector};
    frame = client.submit_and_wait(submit);
  }
  daemon.shutdown();
  serving.join();

  expect(serve_result_matches(frame, reference.str(), 1),
         "serve result equals the cold in-process engine's rows");
  std::string csv = frame.get_string("csv");
  csv[csv.size() / 2] = csv[csv.size() / 2] == '1' ? '2' : '1';
  auto tampered = frame;
  tampered.set("csv", csv);
  expect(!serve_result_matches(tampered, reference.str(), 1),
         "serve check trips on a tampered CSV byte");
  tampered = frame;
  tampered.set("rows", 2);
  expect(!serve_result_matches(tampered, reference.str(), 1),
         "serve check trips on a tampered row count");
  tampered = frame;
  tampered.set("state", "failed");
  expect(!serve_result_matches(tampered, reference.str(), 1),
         "serve check trips on a tampered state");
}

void oracle_distance_off_by_one() {
  const auto topologies = netloc::topology::topologies_for(64);
  for (const auto* topology : topologies.all()) {
    const auto plan = netloc::topology::RoutePlan::build(*topology, 64);
    const auto graph = topology->build_graph();
    const int source = 5;
    // Minimal dragonfly routes need not be shortest; its plan is checked
    // against the BFS as a lower bound elsewhere.
    if (topology->name() == "dragonfly") continue;
    auto row = bfs(*graph, source);
    expect(plan_matches_bfs(*plan, source, row),
           topology->name() + ": plan distances agree with the BFS oracle");
    row[17] += 1;
    expect(!plan_matches_bfs(*plan, source, row),
           topology->name() +
               ": plan check trips on a BFS distance off by one");
  }
}

void ledger_accounting() {
  Ledger ledger;
  Verdict good;
  good.require(true, "holds");
  Verdict bad;
  bad.require(false, "seeded defect");
  bad.require(false, "second defect");
  ledger.operation(good, "good");
  ledger.operation(bad, "bad");
  ledger.operation(bad, "bad");
  expect(ledger.attempted() == 3 && ledger.failed() == 2 && ledger.correct(),
         "failed checks count as failed operations");
  expect(bad.reason() == "seeded defect", "a verdict names its first failure");
  ledger.invariant(false, "seeded run-wide defect");
  expect(!ledger.correct(), "a broken invariant makes the run incorrect");
}

}  // namespace

int main() {
  hop_count_off_by_one();
  dropped_window_matrix();
  tampered_serve_frame();
  oracle_distance_off_by_one();
  ledger_accounting();
  std::cout << (failures == 0
                    ? "all checks trip as expected\n"
                    : std::to_string(failures) + " expectation(s) failed\n");
  return failures == 0 ? 0 : 1;
}
