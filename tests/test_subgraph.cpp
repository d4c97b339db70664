// Property-style tests (TEST_P sweeps) for enclosing-subgraph extraction —
// the invariants of paper Definition 1 plus DSPD properties.
#include "gen/designs.hpp"
#include "graph/circuit_graph.hpp"
#include "graph/links.hpp"
#include "graph/subgraph.hpp"
#include "netlist/hierarchy.hpp"
#include "util/rng.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <set>
#include <thread>

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
}

// Extraction scratch is thread-local and outlives the graph it was sized
// for. A thread that extracted on a small dense graph and then extracts on a
// larger but sparser one must induce the same edges as a fresh thread: the
// edge stamps the first graph left behind must not match the second graph's
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

TEST(Subgraph, UnbuiltAdjacencyThrows) {
  HeteroGraph g;
  g.add_node(NodeType::kNet);
  g.add_node(NodeType::kNet);
  EXPECT_THROW(extract_enclosing_subgraph(g, 0, 1, {}), std::logic_error);
}

}  // namespace
}  // namespace cgps
