// Netlist -> heterogeneous graph conversion plus the circuit-statistics
// feature matrix X_C (paper Table I).
//
// Node id layout: nets first [0, N_net), then devices, then pins (flat pin
// order matches Placement::flat_pin_owner: devices in order, pins in order).
#pragma once

#include "graph/hetero_graph.hpp"
#include "netlist/netlist.hpp"

#include <array>
#include <vector>

namespace cgps {

// X_C is padded to the widest per-type layout (net nodes use 13 dims).
inline constexpr std::int32_t kXcDim = 13;

struct CircuitGraph {
  HeteroGraph graph;
  std::int32_t n_nets = 0;
  std::int32_t n_devices = 0;
  std::int32_t n_pins = 0;

  // Circuit statistics, row per graph node (raw units; normalized later).
  std::vector<std::array<float, kXcDim>> xc;

  std::int32_t net_node(std::int32_t net) const { return net; }
  std::int32_t device_node(std::int32_t device) const { return n_nets + device; }
  std::int32_t pin_node(std::int32_t flat_pin) const {
    return n_nets + n_devices + flat_pin;
  }

  std::int32_t node_to_net(std::int32_t v) const { return v; }
  std::int32_t node_to_pin(std::int32_t v) const { return v - n_nets - n_devices; }

  // flat pin -> owning (device, pin-slot)
  std::vector<std::pair<std::int32_t, std::int32_t>> pin_owner;
  // flat pin -> connected net
  std::vector<std::int32_t> pin_net;
};

// Convert a flat netlist. The adjacency is built; X_C is filled per Table I.
CircuitGraph build_circuit_graph(const Netlist& netlist);

}  // namespace cgps
