#include "gen/designs.hpp"
#include "graph/circuit_graph.hpp"
#include "netlist/hierarchy.hpp"

#include <gtest/gtest.h>

namespace cgps {
namespace {

Netlist buffer_netlist() {
  // The paper's Fig. 1 example: a buffer (two inverters).
  Netlist nl("buffer");
  nl.add_mosfet("MP1", DeviceKind::kPmos, "mid", "in", "vdd", "vdd", 140e-9, 30e-9);
  nl.add_mosfet("MN1", DeviceKind::kNmos, "mid", "in", "gnd", "gnd", 100e-9, 30e-9);
  nl.add_mosfet("MP2", DeviceKind::kPmos, "out", "mid", "vdd", "vdd", 280e-9, 30e-9);
  nl.add_mosfet("MN2", DeviceKind::kNmos, "out", "mid", "gnd", "gnd", 200e-9, 30e-9);
  return nl;
}

TEST(CircuitGraph, NodeAndEdgeCounts) {
  const Netlist nl = buffer_netlist();
  const CircuitGraph cg = build_circuit_graph(nl);
  EXPECT_EQ(cg.n_nets, 5);     // in, mid, out, vdd, gnd
  EXPECT_EQ(cg.n_devices, 4);
  EXPECT_EQ(cg.n_pins, 16);
  EXPECT_EQ(cg.graph.num_nodes(), 25);
  // Every pin contributes exactly two structural edges.
  EXPECT_EQ(cg.graph.num_edges(), 32);
}

TEST(CircuitGraph, NodeTypeLayout) {
  const CircuitGraph cg = build_circuit_graph(buffer_netlist());
  for (std::int32_t n = 0; n < cg.n_nets; ++n)
    EXPECT_EQ(cg.graph.node_type(cg.net_node(n)), NodeType::kNet);
  for (std::int32_t d = 0; d < cg.n_devices; ++d)
    EXPECT_EQ(cg.graph.node_type(cg.device_node(d)), NodeType::kDevice);
  for (std::int32_t p = 0; p < cg.n_pins; ++p)
    EXPECT_EQ(cg.graph.node_type(cg.pin_node(p)), NodeType::kPin);
}

TEST(CircuitGraph, PinDegreeIsExactlyTwo) {
  const CircuitGraph cg = build_circuit_graph(buffer_netlist());
  for (std::int32_t p = 0; p < cg.n_pins; ++p) {
    EXPECT_EQ(cg.graph.degree(cg.pin_node(p)), 2);
    // One device-pin edge and one net-pin edge.
    int device_edges = 0, net_edges = 0;
    for (std::int64_t k = 0; k < 2; ++k) {
      const auto [nbr, edge] = cg.graph.neighbor(cg.pin_node(p), k);
      if (cg.graph.edge_type(edge) == kEdgeDevicePin) ++device_edges;
      if (cg.graph.edge_type(edge) == kEdgeNetPin) ++net_edges;
    }
    EXPECT_EQ(device_edges, 1);
    EXPECT_EQ(net_edges, 1);
  }
}

TEST(CircuitGraph, XcNetFeaturesMatchTable1) {
  const Netlist nl = buffer_netlist();
  const CircuitGraph cg = build_circuit_graph(nl);
  const std::int32_t mid = nl.find_net("mid");
  const auto& row = cg.xc[static_cast<std::size_t>(cg.net_node(mid))];
  // mid connects to 4 transistors: 2 drains (MP1, MN1) + 2 gates (MP2, MN2).
  EXPECT_FLOAT_EQ(row[0], 4.0f);   // # connected transistors
  EXPECT_FLOAT_EQ(row[1], 2.0f);   // # gate terminals
  EXPECT_FLOAT_EQ(row[2], 2.0f);   // # source/drain terminals
  EXPECT_FLOAT_EQ(row[3], 0.0f);   // # base terminals
  // Total connected width in um: 0.14 + 0.1 + 0.28 + 0.2.
  EXPECT_NEAR(row[4], 0.72f, 1e-4);
  EXPECT_FLOAT_EQ(row[12], 0.0f);  // not a port
}

TEST(CircuitGraph, XcDeviceFeatures) {
  const Netlist nl = buffer_netlist();
  const CircuitGraph cg = build_circuit_graph(nl);
  const auto& row = cg.xc[static_cast<std::size_t>(cg.device_node(0))];  // MP1
  EXPECT_FLOAT_EQ(row[0], 1.0f);             // multiplier
  EXPECT_NEAR(row[1], 0.03f, 1e-5);          // L in um
  EXPECT_NEAR(row[2], 0.14f, 1e-5);          // W in um
  EXPECT_FLOAT_EQ(row[9], 4.0f);             // # pins
  EXPECT_FLOAT_EQ(row[10], 1.0f);            // type code (pmos)
}

TEST(CircuitGraph, XcPinRoleCodes) {
  const CircuitGraph cg = build_circuit_graph(buffer_netlist());
  // First device's pins: D, G, S, B -> role codes 1, 0, 2, 3.
  EXPECT_FLOAT_EQ(cg.xc[static_cast<std::size_t>(cg.pin_node(0))][0], 1.0f);
  EXPECT_FLOAT_EQ(cg.xc[static_cast<std::size_t>(cg.pin_node(1))][0], 0.0f);
  EXPECT_FLOAT_EQ(cg.xc[static_cast<std::size_t>(cg.pin_node(2))][0], 2.0f);
  EXPECT_FLOAT_EQ(cg.xc[static_cast<std::size_t>(cg.pin_node(3))][0], 3.0f);
}

TEST(CircuitGraph, PortFeatureSet) {
  Netlist nl("t");
  nl.add_net("clk", /*is_port=*/true);
  nl.add_mosfet("M1", DeviceKind::kNmos, "d", "clk", "s", "b", 100e-9, 30e-9);
  const CircuitGraph cg = build_circuit_graph(nl);
  EXPECT_FLOAT_EQ(cg.xc[static_cast<std::size_t>(nl.find_net("clk"))][12], 1.0f);
}

TEST(CircuitGraph, CapacitorAndResistorFeatures) {
  Netlist nl("t");
  nl.add_capacitor("C1", "a", "b", 5e-15, 2e-6, 8);
  nl.add_resistor("R1", "a", "c", 1e3, 0.4e-6, 12e-6);
  const CircuitGraph cg = build_circuit_graph(nl);
  const auto& net_a = cg.xc[static_cast<std::size_t>(nl.find_net("a"))];
  EXPECT_FLOAT_EQ(net_a[6], 1.0f);            // # caps
  EXPECT_NEAR(net_a[7], 2.0f, 1e-4);          // cap length um
  EXPECT_FLOAT_EQ(net_a[8], 8.0f);            // fingers
  EXPECT_FLOAT_EQ(net_a[9], 1.0f);            // # resistors
  EXPECT_NEAR(net_a[10], 0.4f, 1e-4);         // res width um
  EXPECT_NEAR(net_a[11], 12.0f, 1e-3);        // res length um
}

TEST(CircuitGraph, ScalesToFullTestDesign) {
  const Netlist flat = flatten(gen::make_design(gen::DatasetId::kArray128x32));
  const CircuitGraph cg = build_circuit_graph(flat);
  EXPECT_EQ(cg.graph.num_nodes(), flat.num_nets() + flat.num_devices() + flat.num_pins());
  EXPECT_EQ(cg.graph.num_edges(), 2 * flat.num_pins());
}

TEST(HeteroGraphBasics, AdjacencyErrors) {
  HeteroGraph g;
  const auto a = g.add_node(NodeType::kNet);
  const auto b = g.add_node(NodeType::kPin);
  EXPECT_THROW(g.add_edge(a, 5, kEdgeNetPin), std::invalid_argument);
  g.add_edge(a, b, kEdgeNetPin);
  g.build_adjacency();
  EXPECT_THROW(g.add_edge(a, b, kEdgeNetPin), std::logic_error);
  EXPECT_EQ(g.degree(a), 1);
  EXPECT_EQ(g.neighbor(a, 0).node, b);
}

// Subgraph extraction reads a node's edges from its neighbors' lists and
// sorts them by edge id, so every list must be in ascending edge id and a
// self-loop (invisible from the neighbor side) must be refused.
TEST(HeteroGraphBasics, SelfLoopThrowsAndParallelEdgesListInIdOrder) {
  HeteroGraph g;
  const auto a = g.add_node(NodeType::kNet);
  const auto b = g.add_node(NodeType::kPin);
  const auto c = g.add_node(NodeType::kPin);
  EXPECT_THROW(g.add_edge(a, a, kEdgeNetPin), std::invalid_argument);
  EXPECT_EQ(g.add_edge(a, b, kEdgeNetPin), 0);
  EXPECT_EQ(g.add_edge(c, a, kEdgeNetPin), 1);
  EXPECT_EQ(g.add_edge(b, a, kEdgeDevicePin), 2);
  EXPECT_THROW(g.add_edge(b, b, kEdgeNetPin), std::invalid_argument);
  EXPECT_EQ(g.add_edge(a, b, kEdgeNetPin), 3);
  EXPECT_EQ(g.add_edge(a, c, kEdgeNetPin), 4);
  g.build_adjacency();
  ASSERT_EQ(g.num_edges(), 5);

  const std::vector<std::int32_t> a_nodes = {b, c, b, b, c};
  ASSERT_EQ(g.degree(a), 5);
  for (std::int64_t k = 0; k < g.degree(a); ++k) {
    EXPECT_EQ(g.neighbor(a, k).edge, k);
    EXPECT_EQ(g.neighbor(a, k).node, a_nodes[static_cast<std::size_t>(k)]);
  }
  const std::vector<std::int64_t> b_edges = {0, 2, 3};
  ASSERT_EQ(g.degree(b), 3);
  for (std::int64_t k = 0; k < g.degree(b); ++k) {
    EXPECT_EQ(g.neighbor(b, k).edge, b_edges[static_cast<std::size_t>(k)]);
    EXPECT_EQ(g.neighbor(b, k).node, a);
  }
}

}  // namespace
}  // namespace cgps
