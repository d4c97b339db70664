#include "graph/subgraph.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cgps {

namespace {

// Per-thread extraction scratch. Extraction runs in tight loops (training
// batch assembly, the serve batching thread, par:: workers) where per-call
// hash maps and queues dominate the cost for small subgraphs; epoch-stamped
// flat arrays over the host graph make every membership probe one array
// load. Members and induced edges also collect here, so after warmup a call
// allocates only its output vectors, each once at its exact size (no spare
// capacity: training keeps its subgraphs). Visit and insertion order are
// identical to the hash-map formulation, so extraction output is
// bit-for-bit unchanged.
struct ExtractScratch {
  std::vector<std::int32_t> node_stamp;   // epoch when node entered the subgraph
  std::vector<std::int32_t> node_local;   // local id, valid when stamp current
  std::vector<std::int32_t> bfs_stamp;    // epoch when node was seen by this BFS
  std::vector<std::int32_t> bfs_depth;    // depth, valid when bfs_stamp current
  std::vector<std::int32_t> queue;        // BFS FIFO (index-walked)
  std::vector<std::int32_t> members;      // local id -> host node
  std::vector<std::int8_t> member_type;   // local id -> NodeType code
  EdgeIndex edges;                        // induced directed edges
  std::vector<std::int8_t> edge_type;
  // (edge id, local id) of the later members' entries that point at the
  // member being induced from the probe side.
  std::vector<std::pair<std::int64_t, std::int32_t>> probed;
  std::vector<std::vector<std::int32_t>> local_adj;  // induced adjacency
  std::int32_t epoch = 0;       // node membership epoch
  std::int32_t bfs_epoch = 0;   // per-anchor BFS epoch

  // Growth zero-fills the stamp arrays but keeps both epochs: live epochs
  // are >= 1, so a zeroed stamp never matches, and the stamps another graph
  // left in arrays that did not grow stay below the next epoch. Only the
  // INT32_MAX wrap resets an epoch.
  void prepare(std::int64_t num_nodes) {
    if (static_cast<std::int64_t>(node_stamp.size()) < num_nodes) {
      node_stamp.assign(static_cast<std::size_t>(num_nodes), 0);
      node_local.resize(static_cast<std::size_t>(num_nodes));
      bfs_stamp.assign(static_cast<std::size_t>(num_nodes), 0);
      bfs_depth.resize(static_cast<std::size_t>(num_nodes));
    }
    if (epoch == INT32_MAX) {
      std::fill(node_stamp.begin(), node_stamp.end(), 0);
      epoch = 0;
    }
    if (bfs_epoch >= INT32_MAX - 2) {
      std::fill(bfs_stamp.begin(), bfs_stamp.end(), 0);
      bfs_epoch = 0;
    }
    ++epoch;
    queue.clear();
    members.clear();
    member_type.clear();
    edges.src.clear();
    edges.dst.clear();
    edge_type.clear();
  }
};

thread_local ExtractScratch tl_scratch;

// Local BFS over the induced subgraph to fill DSPD distances.
void local_bfs(const std::vector<std::vector<std::int32_t>>& adj, std::int32_t start,
               std::vector<std::int32_t>& dist, std::vector<std::int32_t>& queue) {
  std::fill(dist.begin(), dist.end(), kDspdMax);
  queue.clear();
  dist[static_cast<std::size_t>(start)] = 0;
  queue.push_back(start);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::int32_t v = queue[head];
    const std::int32_t dv = dist[static_cast<std::size_t>(v)];
    if (dv >= kDspdMax) continue;
    for (std::int32_t u : adj[static_cast<std::size_t>(v)]) {
      if (dist[static_cast<std::size_t>(u)] > dv + 1) {
        dist[static_cast<std::size_t>(u)] = dv + 1;
        queue.push_back(u);
      }
    }
  }
}

}  // namespace

Subgraph extract_enclosing_subgraph(const HeteroGraph& graph, std::int32_t m, std::int32_t n,
                                    const SubgraphOptions& options) {
  const TraceSpan span("sampling.extract");
  if (!graph.adjacency_built())
    throw std::logic_error("extract_enclosing_subgraph: adjacency not built");
  if (m < 0 || m >= graph.num_nodes())
    throw std::invalid_argument("extract_enclosing_subgraph: bad anchor m");
  if (n < -1 || n >= graph.num_nodes())
    throw std::invalid_argument("extract_enclosing_subgraph: bad anchor n");
  const bool link_task = n >= 0 && n != m;

  ExtractScratch& scratch = tl_scratch;
  scratch.prepare(graph.num_nodes());
  const std::int32_t epoch = scratch.epoch;
  std::int64_t reads = 0;  // adjacency entries read by the BFS and the induction

  Subgraph sg;
  std::vector<std::int32_t>& members = scratch.members;
  auto add_node = [&](std::int32_t orig) -> std::int32_t {
    const auto o = static_cast<std::size_t>(orig);
    if (scratch.node_stamp[o] != epoch) {
      scratch.node_stamp[o] = epoch;
      scratch.node_local[o] = static_cast<std::int32_t>(members.size());
      members.push_back(orig);
      scratch.member_type.push_back(static_cast<std::int8_t>(graph.node_type(orig)));
    }
    return scratch.node_local[o];
  };

  add_node(m);
  if (link_task) add_node(n);
  sg.second_anchor = link_task ? 1 : 0;

  // Capped BFS from each anchor up to `hops`.
  auto bfs_collect = [&](std::int32_t anchor) {
    const std::int64_t budget = options.max_nodes_per_anchor;
    const std::int32_t bfs_epoch = ++scratch.bfs_epoch;
    std::int64_t visited = 1;
    scratch.queue.clear();
    scratch.bfs_stamp[static_cast<std::size_t>(anchor)] = bfs_epoch;
    scratch.bfs_depth[static_cast<std::size_t>(anchor)] = 0;
    scratch.queue.push_back(anchor);
    for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
      const std::int32_t v = scratch.queue[head];
      const std::int32_t dv = scratch.bfs_depth[static_cast<std::size_t>(v)];
      if (dv >= options.hops) continue;
      for (std::int64_t k = 0; k < graph.degree(v); ++k) {
        const std::int32_t u = graph.neighbor(v, k).node;
        ++reads;
        if (scratch.bfs_stamp[static_cast<std::size_t>(u)] == bfs_epoch) continue;
        if (budget >= 0 && visited >= budget) return;
        scratch.bfs_stamp[static_cast<std::size_t>(u)] = bfs_epoch;
        scratch.bfs_depth[static_cast<std::size_t>(u)] = dv + 1;
        ++visited;
        add_node(u);
        scratch.queue.push_back(u);
      }
    }
  };
  bfs_collect(m);
  if (link_task) bfs_collect(n);

  // Induce edges: every edge with both endpoints in the set, expanded to both
  // directions. Member lv emits its edges to the later members lu > lv in its
  // own adjacency order (ascending edge id, see HeteroGraph); its edges to
  // earlier members were emitted by those members. The direct anchor-anchor
  // edge (local 0 to local 1) is dropped: when the target link was injected
  // into the graph (SEAL-style), keeping it would leak the label being
  // predicted.
  const std::size_t n_local = members.size();
  if (scratch.local_adj.size() < n_local) scratch.local_adj.resize(n_local);
  for (std::size_t i = 0; i < n_local; ++i) scratch.local_adj[i].clear();
  std::vector<std::vector<std::int32_t>>& local_adj = scratch.local_adj;
  auto induce = [&](std::int32_t lv, std::int32_t lu, std::int64_t edge_id) {
    if (link_task && lv == 0 && lu == 1) return;
    const std::int8_t type = graph.edge_type(edge_id);
    scratch.edges.src.push_back(lv);
    scratch.edges.dst.push_back(lu);
    scratch.edge_type.push_back(type);
    scratch.edges.src.push_back(lu);
    scratch.edges.dst.push_back(lv);
    scratch.edge_type.push_back(type);
    local_adj[static_cast<std::size_t>(lv)].push_back(lu);
    local_adj[static_cast<std::size_t>(lu)].push_back(lv);
  };
  // Each member's edges come from whichever side reads fewer entries: its own
  // adjacency, or the entries of the later members' adjacency that point at
  // it, sorted by edge id into the order its own list has. A supply rail
  // holds thousands of entries but meets a subgraph's later members only a
  // few times, so it costs the later members' degree sum, not its own.
  std::int64_t later_degree = 0;  // summed degree of the members after lv
  for (std::size_t lv = 0; lv < n_local; ++lv) later_degree += graph.degree(members[lv]);
  for (std::size_t lv = 0; lv < n_local; ++lv) {
    const std::int32_t v = members[lv];
    const auto lv32 = static_cast<std::int32_t>(lv);
    const std::int64_t degree = graph.degree(v);
    later_degree -= degree;
    if (degree <= later_degree) {
      reads += degree;
      for (std::int64_t k = 0; k < degree; ++k) {
        const auto [u, edge_id] = graph.neighbor(v, k);
        if (scratch.node_stamp[static_cast<std::size_t>(u)] != epoch) continue;
        const std::int32_t lu = scratch.node_local[static_cast<std::size_t>(u)];
        if (lu > lv32) induce(lv32, lu, edge_id);
      }
    } else {
      reads += later_degree;
      scratch.probed.clear();
      for (std::size_t lu = lv + 1; lu < n_local; ++lu) {
        const std::int32_t u = members[lu];
        for (std::int64_t k = 0; k < graph.degree(u); ++k) {
          const auto [w, edge_id] = graph.neighbor(u, k);
          if (w == v) scratch.probed.emplace_back(edge_id, static_cast<std::int32_t>(lu));
        }
      }
      std::sort(scratch.probed.begin(), scratch.probed.end());
      for (const auto& [edge_id, lu] : scratch.probed) induce(lv32, lu, edge_id);
    }
  }
  static Counter& adjacency_visited = metric_counter("sampling.adjacency_visited");
  adjacency_visited.add(reads);

  // One exact-size copy per output vector; the scratch keeps its capacity.
  sg.orig_nodes = members;
  sg.node_type = scratch.member_type;
  sg.edges = scratch.edges;
  sg.edge_type = scratch.edge_type;

  // DSPD within the subgraph.
  const TraceSpan dspd_span("sampling.dspd");
  sg.dist0.resize(n_local);
  local_bfs(local_adj, 0, sg.dist0, scratch.queue);
  if (link_task) {
    sg.dist1.resize(n_local);
    local_bfs(local_adj, sg.second_anchor, sg.dist1, scratch.queue);
  } else {
    sg.dist1 = sg.dist0;  // paper §IV-D: D0 = D1 for node tasks
  }
  return sg;
}

}  // namespace cgps
