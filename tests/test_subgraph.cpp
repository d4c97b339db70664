// Property-style tests (TEST_P sweeps) for enclosing-subgraph extraction —
// the invariants of paper Definition 1 plus DSPD properties.
#include "gen/designs.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/links.hpp"
#include "graph/subgraph.hpp"
#include "netlist/hierarchy.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <set>
#include <thread>
#include <utility>

namespace cgps {
namespace {

struct SharedFixture {
  Netlist netlist;
  CircuitGraph graph;
  std::vector<LinkSample> samples;

  SharedFixture() {
    netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
    graph = build_circuit_graph(netlist);
    const Placement placement = place(netlist);
    const ExtractionResult extraction = extract_parasitics(netlist, placement);
    Rng rng(3);
    samples = build_link_samples(graph, extraction.links, rng, {});
  }
};

const SharedFixture& fixture() {
  static SharedFixture f;
  return f;
}

// Sweep over (hops, sample index offset).
class SubgraphProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SubgraphProperty, Invariants) {
  const auto [hops, offset] = GetParam();
  const SharedFixture& f = fixture();
  SubgraphOptions options;
  options.hops = hops;

  for (std::size_t k = static_cast<std::size_t>(offset); k < f.samples.size();
       k += 37) {  // strided sweep for speed
    const LinkSample& s = f.samples[k];
    const Subgraph sg = extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, options);

    // (1) Anchors come first and map to the original nodes.
    ASSERT_GE(sg.num_nodes(), 2);
    EXPECT_EQ(sg.orig_nodes[0], s.node_a);
    EXPECT_EQ(sg.orig_nodes[static_cast<std::size_t>(sg.second_anchor)], s.node_b);
    EXPECT_EQ(sg.dist0[0], 0);
    EXPECT_EQ(sg.dist1[static_cast<std::size_t>(sg.second_anchor)], 0);

    // (2) No duplicate original nodes.
    std::set<std::int32_t> unique(sg.orig_nodes.begin(), sg.orig_nodes.end());
    EXPECT_EQ(unique.size(), sg.orig_nodes.size());

    // (3) Node types copied faithfully.
    for (std::size_t i = 0; i < sg.orig_nodes.size(); ++i) {
      EXPECT_EQ(sg.node_type[i],
                static_cast<std::int8_t>(f.graph.graph.node_type(sg.orig_nodes[i])));
    }

    // (4) Edges are valid, typed, and come in directed pairs.
    ASSERT_EQ(sg.edges.src.size(), sg.edges.dst.size());
    ASSERT_EQ(sg.edges.src.size(), sg.edge_type.size());
    EXPECT_EQ(sg.edges.src.size() % 2, 0u);
    for (std::size_t e = 0; e < sg.edges.size(); ++e) {
      EXPECT_GE(sg.edges.src[e], 0);
      EXPECT_LT(sg.edges.src[e], sg.num_nodes());
      EXPECT_GE(sg.edges.dst[e], 0);
      EXPECT_LT(sg.edges.dst[e], sg.num_nodes());
    }

    // (5) DSPD bounds: every non-anchor node is within `hops` of an anchor
    //     in the original graph, so its subgraph DSPD to that anchor is at
    //     most 2*hops+1 (paths may detour) or capped.
    for (std::size_t i = 0; i < sg.orig_nodes.size(); ++i) {
      const std::int32_t d = std::min(sg.dist0[i], sg.dist1[i]);
      EXPECT_LE(d, kDspdMax);
      EXPECT_GE(d, 0);
    }

    // (6) The target link itself is never a structural edge (coupling links
    //     are labels, not edges).
    for (std::size_t e = 0; e < sg.edges.size(); ++e) {
      const bool is_target = (sg.edges.src[e] == 0 && sg.edges.dst[e] == sg.second_anchor) ||
                             (sg.edges.dst[e] == 0 && sg.edges.src[e] == sg.second_anchor);
      if (is_target) {
        EXPECT_LT(sg.edge_type[e], kLinkPinNet);  // structural types only
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HopSweep, SubgraphProperty,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(0, 5, 11)));

TEST(Subgraph, EdgesMatchOriginalGraphInduced) {
  const SharedFixture& f = fixture();
  const LinkSample& s = f.samples.front();
  const Subgraph sg = extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, {});
  // Every subgraph edge must exist in the original graph with the same type.
  for (std::size_t e = 0; e < sg.edges.size(); ++e) {
    const std::int32_t u = sg.orig_nodes[static_cast<std::size_t>(sg.edges.src[e])];
    const std::int32_t v = sg.orig_nodes[static_cast<std::size_t>(sg.edges.dst[e])];
    bool found = false;
    for (std::int64_t k = 0; k < f.graph.graph.degree(u); ++k) {
      const auto [nbr, edge] = f.graph.graph.neighbor(u, k);
      if (nbr == v && f.graph.graph.edge_type(edge) == sg.edge_type[e]) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(Subgraph, NodeTaskSingleAnchor) {
  const SharedFixture& f = fixture();
  SubgraphOptions options;
  options.hops = 2;  // paper §IV-D uses 2-hop for node tasks
  const std::int32_t anchor = f.graph.net_node(10);
  const Subgraph sg = extract_enclosing_subgraph(f.graph.graph, anchor, -1, options);
  EXPECT_EQ(sg.second_anchor, 0);
  // D0 == D1 (paper: DSPD degenerates to identical distances).
  EXPECT_EQ(sg.dist0, sg.dist1);
  EXPECT_EQ(sg.orig_nodes[0], anchor);
}

TEST(Subgraph, HopCountGrowsNeighborhood) {
  const SharedFixture& f = fixture();
  const LinkSample& s = f.samples.front();
  SubgraphOptions h1, h2;
  h1.hops = 1;
  h2.hops = 2;
  const Subgraph a = extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, h1);
  const Subgraph b = extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, h2);
  EXPECT_GE(b.num_nodes(), a.num_nodes());
}

TEST(Subgraph, FrontierCapBoundsSize) {
  const SharedFixture& f = fixture();
  const LinkSample& s = f.samples.front();
  SubgraphOptions options;
  options.hops = 3;
  options.max_nodes_per_anchor = 16;
  const Subgraph sg = extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, options);
  EXPECT_LE(sg.num_nodes(), 32);
}

TEST(Subgraph, InvalidAnchorsThrow) {
  const SharedFixture& f = fixture();
  EXPECT_THROW(extract_enclosing_subgraph(f.graph.graph, -1, 0, {}), std::invalid_argument);
  EXPECT_THROW(
      extract_enclosing_subgraph(f.graph.graph, 0, f.graph.graph.num_nodes() + 5, {}),
      std::invalid_argument);
  // -1 (or n == m) asks for a node task; any other negative n is an error.
  EXPECT_THROW(extract_enclosing_subgraph(f.graph.graph, 0, -2, {}), std::invalid_argument);
}

// Extraction scratch is thread-local and outlives the graph it was sized
// for. A thread that extracted on a small dense graph and then extracts on a
// larger but sparser one must induce the same edges as a fresh thread: the
// stamps the first graph left behind must not match the second graph's
// epochs.
TEST(Subgraph, ScratchReuseOnLargerSparserGraphKeepsEdges) {
  HeteroGraph dense;  // K6: 6 nodes, 15 edges
  for (int i = 0; i < 6; ++i) dense.add_node(NodeType::kNet);
  for (std::int32_t a = 0; a < 6; ++a)
    for (std::int32_t b = a + 1; b < 6; ++b) dense.add_edge(a, b, kEdgeNetPin);
  dense.build_adjacency();
  HeteroGraph path;  // 10 nodes, 9 edges
  for (int i = 0; i < 10; ++i) path.add_node(NodeType::kNet);
  for (std::int32_t a = 0; a + 1 < 10; ++a) path.add_edge(a, a + 1, kEdgeNetPin);
  path.build_adjacency();

  Subgraph reused;
  Subgraph fresh;
  std::thread([&] {
    extract_enclosing_subgraph(dense, 0, 1, {});
    reused = extract_enclosing_subgraph(path, 4, 6, {});
  }).join();
  std::thread([&] { fresh = extract_enclosing_subgraph(path, 4, 6, {}); }).join();

  // Nodes 3..7; path edges 3-4, 4-5, 5-6, 6-7 in both directions.
  EXPECT_EQ(fresh.edges.size(), 8u);
  EXPECT_EQ(reused.orig_nodes, fresh.orig_nodes);
  EXPECT_EQ(reused.edges.src, fresh.edges.src);
  EXPECT_EQ(reused.edges.dst, fresh.edges.dst);
  EXPECT_EQ(reused.edge_type, fresh.edge_type);
  EXPECT_EQ(reused.dist0, fresh.dist0);
  EXPECT_EQ(reused.dist1, fresh.dist1);
}

// The scan-every-member extraction that the two-sided induction replaced,
// kept as its oracle: the same capped BFS, then every member's whole
// adjacency read and deduplicated by edge id, then DSPD. `reads` counts the
// adjacency entries it reads.
Subgraph reference_extract(const HeteroGraph& graph, std::int32_t m, std::int32_t n,
                           const SubgraphOptions& options, std::int64_t& reads) {
  const bool link_task = n >= 0 && n != m;
  const auto num_nodes = static_cast<std::size_t>(graph.num_nodes());
  std::vector<std::int32_t> local(num_nodes, -1);
  Subgraph sg;
  auto add_node = [&](std::int32_t orig) {
    if (local[static_cast<std::size_t>(orig)] >= 0) return;
    local[static_cast<std::size_t>(orig)] = static_cast<std::int32_t>(sg.orig_nodes.size());
    sg.orig_nodes.push_back(orig);
    sg.node_type.push_back(static_cast<std::int8_t>(graph.node_type(orig)));
  };
  add_node(m);
  if (link_task) add_node(n);
  sg.second_anchor = link_task ? 1 : 0;
  reads = 0;

  auto bfs_collect = [&](std::int32_t anchor) {
    std::vector<std::int32_t> depth(num_nodes, -1);
    std::vector<std::int32_t> queue = {anchor};
    depth[static_cast<std::size_t>(anchor)] = 0;
    std::int64_t visited = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::int32_t v = queue[head];
      const std::int32_t dv = depth[static_cast<std::size_t>(v)];
      if (dv >= options.hops) continue;
      for (std::int64_t k = 0; k < graph.degree(v); ++k) {
        const std::int32_t u = graph.neighbor(v, k).node;
        ++reads;
        if (depth[static_cast<std::size_t>(u)] >= 0) continue;
        if (options.max_nodes_per_anchor >= 0 && visited >= options.max_nodes_per_anchor) return;
        depth[static_cast<std::size_t>(u)] = dv + 1;
        ++visited;
        add_node(u);
        queue.push_back(u);
      }
    }
  };
  bfs_collect(m);
  if (link_task) bfs_collect(n);

  const std::size_t n_local = sg.orig_nodes.size();
  std::vector<bool> induced(static_cast<std::size_t>(graph.num_edges()), false);
  std::vector<std::vector<std::int32_t>> adj(n_local);
  for (std::size_t lv = 0; lv < n_local; ++lv) {
    const std::int32_t v = sg.orig_nodes[lv];
    for (std::int64_t k = 0; k < graph.degree(v); ++k) {
      const auto [u, edge_id] = graph.neighbor(v, k);
      ++reads;
      if (link_task && ((v == m && u == n) || (v == n && u == m))) continue;
      const std::int32_t lu = local[static_cast<std::size_t>(u)];
      if (lu < 0 || induced[static_cast<std::size_t>(edge_id)]) continue;
      induced[static_cast<std::size_t>(edge_id)] = true;
      const auto lv32 = static_cast<std::int32_t>(lv);
      const std::int8_t type = graph.edge_type(edge_id);
      sg.edges.src.push_back(lv32);
      sg.edges.dst.push_back(lu);
      sg.edge_type.push_back(type);
      sg.edges.src.push_back(lu);
      sg.edges.dst.push_back(lv32);
      sg.edge_type.push_back(type);
      adj[lv].push_back(lu);
      adj[static_cast<std::size_t>(lu)].push_back(lv32);
    }
  }

  auto dspd = [&](std::int32_t start) {
    std::vector<std::int32_t> dist(n_local, kDspdMax);
    std::vector<std::int32_t> queue = {start};
    dist[static_cast<std::size_t>(start)] = 0;
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
    return dist;
  };
  sg.dist0 = dspd(0);
  sg.dist1 = link_task ? dspd(sg.second_anchor) : sg.dist0;
  return sg;
}

struct Reads {
  std::int64_t extracted = 0;  // sampling.adjacency_visited delta
  std::int64_t reference = 0;
};

// Extracts (m, n) both ways and expects every Subgraph field to match and
// the extraction to read no more adjacency entries than the reference.
Reads expect_matches_reference(const HeteroGraph& graph, std::int32_t m, std::int32_t n,
                               const SubgraphOptions& options) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " hops=" << options.hops
                                    << " cap=" << options.max_nodes_per_anchor);
  Reads reads;
  const Subgraph want = reference_extract(graph, m, n, options, reads.reference);
  const Counter& visited = metric_counter("sampling.adjacency_visited");
  const std::int64_t before = visited.value();
  const Subgraph got = extract_enclosing_subgraph(graph, m, n, options);
  reads.extracted = visited.value() - before;
  EXPECT_EQ(got.orig_nodes, want.orig_nodes);
  EXPECT_EQ(got.node_type, want.node_type);
  EXPECT_EQ(got.edges.src, want.edges.src);
  EXPECT_EQ(got.edges.dst, want.edges.dst);
  EXPECT_EQ(got.edge_type, want.edge_type);
  EXPECT_EQ(got.dist0, want.dist0);
  EXPECT_EQ(got.dist1, want.dist1);
  EXPECT_EQ(got.second_anchor, want.second_anchor);
  EXPECT_LE(reads.extracted, reads.reference);
  return reads;
}

// Hub 0 with `leaves` leaves 1..leaves; leaf i also links to leaf i+1 for
// every third i, so leaves carry edges the hub does not see.
HeteroGraph star_graph(std::int32_t leaves) {
  HeteroGraph g;
  g.add_node(NodeType::kNet);
  for (std::int32_t i = 1; i <= leaves; ++i) g.add_node(NodeType::kPin);
  for (std::int32_t i = 1; i <= leaves; ++i) {
    g.add_edge(0, i, kEdgeNetPin);
    if (i % 3 == 0 && i < leaves) g.add_edge(i, i + 1, kEdgeDevicePin);
  }
  g.build_adjacency();
  return g;
}

const std::int32_t kCaps[] = {32, 512};

TEST(SubgraphInduction, StarHubMatchesReference) {
  const HeteroGraph g = star_graph(3000);
  const std::pair<std::int32_t, std::int32_t> anchors[] = {
      {5, 2900}, {2900, 5}, {3, 4},       // leaves (3-4 are linked)
      {0, 17},   {17, 0},   {0, 1500},    // anchor-anchor: hub to a leaf
      {0, -1},   {9, 9},    {1200, -1}};  // node tasks
  for (const auto& [m, n] : anchors)
    for (const std::int32_t hops : {1, 2})
      for (const std::int32_t cap : kCaps) expect_matches_reference(g, m, n, {hops, cap});
}

// Two hubs joined by parallel edges that interleave with their leaf edges
// in edge-id order; some leaves hang off both hubs.
TEST(SubgraphInduction, ParallelEdgesBetweenHubsMatchReference) {
  HeteroGraph g;
  const std::int32_t a = g.add_node(NodeType::kNet);
  const std::int32_t b = g.add_node(NodeType::kNet);
  for (std::int32_t i = 0; i < 2000; ++i) {
    const std::int32_t leaf = g.add_node(NodeType::kPin);
    g.add_edge(i % 2 == 0 ? a : b, leaf, kEdgeNetPin);
    if (i % 5 == 0) g.add_edge(leaf, i % 2 == 0 ? b : a, kEdgeDevicePin);
    if (i % 400 == 7) g.add_edge(i % 800 == 7 ? a : b, i % 800 == 7 ? b : a, kEdgeNetPin);
  }
  g.build_adjacency();
  ASSERT_EQ(g.num_edges(), 2405);
  const std::pair<std::int32_t, std::int32_t> anchors[] = {
      {2, 3}, {3, 2}, {12, 700}, {a, b}, {b, a}, {a, 2}, {2, a}, {b, 40}, {a, -1}, {b, b}};
  for (const auto& [m, n] : anchors)
    for (const std::int32_t hops : {1, 2})
      for (const std::int32_t cap : kCaps) expect_matches_reference(g, m, n, {hops, cap});
}

// A random multigraph: three hubs draw half the edge ends, so parallel edges
// and hub-hub edges are common.
TEST(SubgraphInduction, RandomMultigraphMatchesReference) {
  HeteroGraph g;
  const std::int32_t nodes = 600;
  for (std::int32_t i = 0; i < nodes; ++i)
    g.add_node(i % 3 == 0 ? NodeType::kNet : NodeType::kPin);
  Rng rng(41);
  const auto below = [&rng](std::int32_t bound) {
    return static_cast<std::int32_t>(rng.uniform_int(static_cast<std::uint64_t>(bound)));
  };
  for (int e = 0; e < 3000; ++e) {
    const std::int32_t x = below(nodes);
    const std::int32_t y = below(2) == 0 ? below(3) : below(nodes);
    if (x != y) g.add_edge(x, y, static_cast<std::int8_t>(below(2)));
  }
  g.build_adjacency();
  for (int trial = 0; trial < 60; ++trial) {
    const std::int32_t m = trial % 10 == 0 ? trial % 3 : below(nodes);
    const std::int32_t n = trial % 7 == 0 ? -1 : below(nodes);
    for (const std::int32_t hops : {1, 2})
      for (const std::int32_t cap : kCaps) expect_matches_reference(g, m, n, {hops, cap});
  }
}

// ARRAY_128_32 pin/net pairs 2-4 random-walk hops apart, drawn as the
// serve_bulk_screen-shaped micro-benchmarks draw them. Its two supply rails
// hold thousands of entries each; the reference reads them whole.
TEST(SubgraphInduction, BulkScreenPairsMatchReferenceAndReadFarLess) {
  const CircuitGraph graph = build_circuit_graph(flatten(gen::array_128_32()));
  const HeteroGraph& g = graph.graph;
  const auto endpoint = [&g](std::int32_t v) {
    return g.node_type(v) == NodeType::kPin || g.node_type(v) == NodeType::kNet;
  };
  Rng rng(19);
  Reads total;
  int pairs = 0;
  while (pairs < 512) {
    const auto u = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(g.num_nodes())));
    if (!endpoint(u)) continue;
    std::int32_t v = u;
    const std::uint64_t hops = 2 + rng.uniform_int(3);
    for (std::uint64_t h = 0; h < hops && g.degree(v) > 0; ++h)
      v = g.neighbor(v, static_cast<std::int64_t>(
                            rng.uniform_int(static_cast<std::uint64_t>(g.degree(v)))))
              .node;
    if (v == u || !endpoint(v)) continue;
    const Reads reads = expect_matches_reference(g, u, v, SubgraphOptions{});
    total.extracted += reads.extracted;
    total.reference += reads.reference;
    ++pairs;
  }
  // Measured on these pairs: about 13,000 entries per extraction for the
  // reference, about 240 for the two-sided induction.
  EXPECT_GE(total.reference, 20 * total.extracted);
}

// Counted work: an extraction between two leaves of a star reads the same
// number of adjacency entries whatever the hub's degree (each BFS reads its
// leaf's one entry; each leaf's induction reads its one entry; the hub,
// last, reads none).
TEST(SubgraphInduction, AdjacencyReadsDoNotGrowWithHubDegree) {
  for (const std::int32_t leaves : {10, 100000}) {
    HeteroGraph g;
    g.add_node(NodeType::kNet);
    for (std::int32_t i = 1; i <= leaves; ++i) {
      g.add_node(NodeType::kPin);
      g.add_edge(0, i, kEdgeNetPin);
    }
    g.build_adjacency();
    const Reads reads = expect_matches_reference(g, 1, 2, {1, 512});
    EXPECT_EQ(reads.extracted, 4) << "hub degree " << leaves;
    EXPECT_EQ(reads.reference, 4 + leaves) << "hub degree " << leaves;
  }
}

TEST(Subgraph, UnbuiltAdjacencyThrows) {
  HeteroGraph g;
  g.add_node(NodeType::kNet);
  g.add_node(NodeType::kNet);
  EXPECT_THROW(extract_enclosing_subgraph(g, 0, 1, {}), std::logic_error);
}

}  // namespace
}  // namespace cgps
