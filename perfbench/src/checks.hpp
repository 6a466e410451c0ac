// Correctness checks computed apart from the program.
//
// Each check recomputes a result from its definition with the
// benchmark's own code — the paper's Eq. 4 and Eq. 5 from their
// inputs, hop counts from a breadth-first search over the topology's
// explicit graph, window sums cell by cell — and compares it with what
// netloc produced. The self-test (tests/selftest.cpp) seeds a defect
// into each input and expects the matching check to fail.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netloc/analysis/experiment.hpp"
#include "netloc/metrics/traffic_matrix.hpp"
#include "netloc/serve/json.hpp"
#include "netloc/topology/graph.hpp"
#include "netloc/topology/route_plan.hpp"
#include "netloc/topology/topology.hpp"
#include "netloc/workloads/catalog.hpp"

namespace perfbench {

/// The paper's per-link bandwidth (§4.2.3), restated here.
inline constexpr double kLinkBytesPerS = 12e9;

/// Eq. 4: avg_hops == packet_hops / packets (relative 1e-12).
bool eq4_holds(const netloc::analysis::TopologyResult& cell,
               netloc::Count packets);

/// The link count Eq. 5 divides by for `ranks` consecutively mapped
/// ranks, from the topology's parameters (§4.2.3): torus 3 per node,
/// fat tree stages - 1/2 per node, dragonfly 1 + (a - 1)/p + h/p per
/// node, random-regular installed links per node. `dead_links` failed
/// links are subtracted.
double paper_links(const netloc::topology::Topology& topo, int ranks,
                   int dead_links = 0);

/// Eq. 5: utilization_percent == 100 * volume / (12 GB/s * time *
/// links) (relative 1e-9).
bool eq5_holds(const netloc::analysis::TopologyResult& cell,
               netloc::Bytes volume, double time_s, double links);

/// Links traversed from `source` to every vertex (-1: unreachable),
/// skipping links whose mask byte is nonzero.
std::vector<int> bfs(const netloc::topology::NetworkGraph& graph, int source,
                     std::span<const std::uint8_t> mask = {});

/// Σ packets × BFS distance over the stored pairs of `matrix`, ranks
/// placed one per node in order; -1 if some pair is unreachable.
std::int64_t bfs_packet_hops(const netloc::metrics::TrafficMatrix& matrix,
                             const netloc::topology::NetworkGraph& graph,
                             std::span<const std::uint8_t> mask = {});

/// True if plan.hop_distance(source, b) equals bfs_row[b] for every
/// endpoint b (the row as bfs() returns it).
bool plan_matches_bfs(const netloc::topology::RoutePlan& plan, int source,
                      const std::vector<int>& bfs_row);

/// True if the per-window matrices sum cell by cell (bytes and
/// packets) to `full`, with no cell outside it.
bool windows_sum_to(std::span<const netloc::metrics::TrafficMatrix> windows,
                    const netloc::metrics::TrafficMatrix& full);

/// True if `frame` is a finished result of `rows` rows whose CSV is
/// byte-identical to `reference_csv`.
bool serve_result_matches(const netloc::serve::Json& frame,
                          const std::string& reference_csv, int rows);

/// First present non-injection links of `graph` — links whose loss
/// reroutes traffic without cutting an endpoint off.
std::vector<netloc::LinkId> fault_links(
    const netloc::topology::NetworkGraph& graph, int count);

/// True if two cells carry the same Table 3 numbers.
bool same_cell(const netloc::analysis::TopologyResult& a,
               const netloc::analysis::TopologyResult& b);

/// What the Eq. 4/5 checks of one entry's cells need, from an event
/// pass the benchmark runs itself: the generator streamed into a
/// p2p + collectives traffic accumulator.
struct CellInputs {
  int ranks = 0;
  double duration_s = 0.0;
  netloc::Count packets = 0;
  netloc::Bytes volume = 0;
  /// The accumulated matrix; null unless asked for.
  std::shared_ptr<const netloc::metrics::TrafficMatrix> matrix;
};
CellInputs cell_inputs(const netloc::workloads::CatalogEntry& entry,
                       std::uint64_t seed, bool keep_matrix);

/// Relative closeness with an absolute floor at zero.
bool nearly_equal(double a, double b, double relative);

}  // namespace perfbench
