#include "checks.hpp"

#include <cmath>
#include <deque>
#include <unordered_map>

#include "netloc/topology/dragonfly.hpp"
#include "netloc/topology/fat_tree.hpp"
#include "netloc/trace/sink.hpp"
#include "netloc/workloads/workload.hpp"

namespace perfbench {

namespace topo = netloc::topology;

bool nearly_equal(double a, double b, double relative) {
  if (a == b) return true;
  return std::abs(a - b) <= relative * std::max(std::abs(a), std::abs(b));
}

bool eq4_holds(const netloc::analysis::TopologyResult& cell,
               netloc::Count packets) {
  const double expected =
      packets == 0 ? 0.0
                   : static_cast<double>(cell.packet_hops) /
                         static_cast<double>(packets);
  return nearly_equal(cell.avg_hops, expected, 1e-12);
}

double paper_links(const topo::Topology& topology, int ranks, int dead_links) {
  const double n = ranks;
  double links = 0.0;
  if (const auto* ft = dynamic_cast<const topo::FatTree*>(&topology)) {
    links = n * (ft->stages() - 0.5);
  } else if (const auto* df = dynamic_cast<const topo::Dragonfly*>(&topology)) {
    const double a = df->routers_per_group();
    const double h = df->global_links_per_router();
    const double p = df->nodes_per_router();
    links = n * (1.0 + (a - 1.0) / p + h / p);
  } else if (topology.name() == "torus3d") {
    links = 3.0 * n;
  } else {
    links = n * static_cast<double>(topology.num_links()) /
            static_cast<double>(topology.num_nodes());
  }
  return std::max(0.0, links - dead_links);
}

bool eq5_holds(const netloc::analysis::TopologyResult& cell,
               netloc::Bytes volume, double time_s, double links) {
  const double expected =
      links <= 0.0 ? 0.0
                   : static_cast<double>(volume) /
                         (kLinkBytesPerS * time_s * links) * 100.0;
  return nearly_equal(cell.utilization_percent, expected, 1e-9);
}

std::vector<int> bfs(const topo::NetworkGraph& graph, int source,
                     std::span<const std::uint8_t> mask) {
  std::vector<int> dist(static_cast<std::size_t>(graph.num_vertices()), -1);
  std::deque<int> frontier{source};
  dist[static_cast<std::size_t>(source)] = 0;
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop_front();
    const int next = dist[static_cast<std::size_t>(u)] + 1;
    graph.for_each_incident(u, [&](netloc::LinkId link, int v) {
      if (static_cast<std::size_t>(link) < mask.size() &&
          mask[static_cast<std::size_t>(link)] != 0) {
        return;
      }
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] = next;
        frontier.push_back(v);
      }
    });
  }
  return dist;
}

std::int64_t bfs_packet_hops(const netloc::metrics::TrafficMatrix& matrix,
                             const topo::NetworkGraph& graph,
                             std::span<const std::uint8_t> mask) {
  std::int64_t total = 0;
  for (netloc::Rank src = 0; src < matrix.num_ranks(); ++src) {
    if (matrix.row_nonzeros(src) == 0) continue;
    const auto dist = bfs(graph, src, mask);
    bool reachable = true;
    matrix.for_each_destination(
        src, [&](netloc::Rank dst, const netloc::metrics::TrafficCell& cell) {
          const int d = dist[static_cast<std::size_t>(dst)];
          if (d < 0) reachable = false;
          total += static_cast<std::int64_t>(cell.packets) * d;
        });
    if (!reachable) return -1;
  }
  return total;
}

bool plan_matches_bfs(const topo::RoutePlan& plan, int source,
                      const std::vector<int>& bfs_row) {
  for (int b = 0; b < plan.num_nodes(); ++b) {
    if (plan.hop_distance(source, b) != bfs_row[static_cast<std::size_t>(b)]) {
      return false;
    }
  }
  return true;
}

bool windows_sum_to(std::span<const netloc::metrics::TrafficMatrix> windows,
                    const netloc::metrics::TrafficMatrix& full) {
  const auto key = [&full](netloc::Rank src, netloc::Rank dst) {
    return static_cast<std::uint64_t>(src) *
               static_cast<std::uint64_t>(full.num_ranks()) +
           static_cast<std::uint64_t>(dst);
  };
  std::unordered_map<std::uint64_t, netloc::metrics::TrafficCell> sum;
  for (const auto& window : windows) {
    if (window.num_ranks() != full.num_ranks()) return false;
    window.for_each_nonzero([&](netloc::Rank src, netloc::Rank dst,
                                const netloc::metrics::TrafficCell& cell) {
      auto& slot = sum[key(src, dst)];
      slot.bytes += cell.bytes;
      slot.packets += cell.packets;
    });
  }
  if (sum.size() != full.nonzero_pairs()) return false;
  bool equal = true;
  full.for_each_nonzero([&](netloc::Rank src, netloc::Rank dst,
                            const netloc::metrics::TrafficCell& cell) {
    const auto it = sum.find(key(src, dst));
    if (it == sum.end() || !(it->second == cell)) equal = false;
  });
  return equal;
}

bool serve_result_matches(const netloc::serve::Json& frame,
                          const std::string& reference_csv, int rows) {
  return frame.is_object() && frame.get_string("type") == "result" &&
         frame.get_string("state") == "done" &&
         frame.get_number("rows", -1.0) == rows &&
         frame.get_string("csv") == reference_csv;
}

bool same_cell(const netloc::analysis::TopologyResult& a,
               const netloc::analysis::TopologyResult& b) {
  return a.topology == b.topology && a.config == b.config &&
         a.packet_hops == b.packet_hops && a.avg_hops == b.avg_hops &&
         a.utilization_percent == b.utilization_percent &&
         a.utilization_used_links_percent ==
             b.utilization_used_links_percent &&
         a.used_links == b.used_links &&
         a.global_link_packet_share == b.global_link_packet_share &&
         a.congestion == b.congestion;
}

namespace {

/// Records the stream's rank count and the duration it ends with.
class EndSink final : public netloc::trace::EventSink {
 public:
  void on_begin(std::string_view /*app*/, int num_ranks) override {
    ranks = num_ranks;
  }
  void on_p2p(const netloc::trace::P2PEvent& /*event*/) override {}
  void on_collective(
      const netloc::trace::CollectiveEvent& /*event*/) override {}
  void on_end(netloc::Seconds duration) override { duration_s = duration; }

  int ranks = 0;
  double duration_s = 0.0;
};

}  // namespace

CellInputs cell_inputs(const netloc::workloads::CatalogEntry& entry,
                       std::uint64_t seed, bool keep_matrix) {
  netloc::metrics::TrafficAccumulator traffic(
      {.include_p2p = true, .include_collectives = true});
  EndSink end;
  netloc::trace::SinkTee tee;
  tee.add(traffic);
  tee.add(end);
  netloc::workloads::generator(entry.app).generate_into(entry, seed, tee);
  auto matrix =
      std::make_shared<netloc::metrics::TrafficMatrix>(traffic.take());
  CellInputs inputs;
  inputs.ranks = end.ranks;
  inputs.duration_s = end.duration_s;
  inputs.packets = matrix->total_packets();
  inputs.volume = matrix->total_bytes();
  if (keep_matrix) inputs.matrix = std::move(matrix);
  return inputs;
}

std::vector<netloc::LinkId> fault_links(const topo::NetworkGraph& graph,
                                        int count) {
  std::vector<netloc::LinkId> links;
  for (netloc::LinkId id = 0;
       id < graph.num_links() && static_cast<int>(links.size()) < count; ++id) {
    if (graph.link_present(id) &&
        graph.link(id).type != topo::LinkType::kInjection) {
      links.push_back(id);
    }
  }
  return links;
}

}  // namespace perfbench
