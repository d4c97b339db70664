// Geometric parasitic-coupling oracle.
//
// Substitute for the commercial post-layout extraction that produced the
// paper's ground truth (SPF files). Given a placed netlist it derives:
//   * coupling capacitances — pin-to-net, pin-to-pin and net-to-net links
//     (paper edge types 2/3/4) from route/pin proximity using a parallel-
//     plate + fringe model with distance decay;
//   * ground capacitances per net and per pin (node-regression targets).
//
// The capacitance values land in the paper's retained window
// [1e-21 F, 1e-15 F]; pairs that fall below the floor are dropped, which is
// what makes link existence a non-trivial prediction target.
#pragma once

#include "layout/placer.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <vector>

namespace cgps {

// Matches the paper's link/edge type codes (Fig. 1).
enum class CouplingKind : std::int8_t {
  kPinToNet = 2,
  kPinToPin = 3,
  kNetToNet = 4,
};

// Endpoints are type-dependent:
//  kPinToNet: a = flat pin index, b = net index
//  kPinToPin: a, b = flat pin indices (a < b)
//  kNetToNet: a, b = net indices (a < b)
// Flat pin indices follow Placement::flat_pin_owner order.
struct CouplingLink {
  CouplingKind kind;
  std::int32_t a = -1;
  std::int32_t b = -1;
  double cap = 0.0;  // farads
};

struct ExtractionResult {
  std::vector<CouplingLink> links;
  std::vector<double> net_ground_cap;  // per net (farads)
  std::vector<double> pin_ground_cap;  // per flat pin (farads)

  std::int64_t count(CouplingKind kind) const;
};

struct ExtractionOptions {
  // Candidate-search radii. Defaults pick up same-cell and adjacent-site
  // geometry (site pitch 0.5um, row pitch 1.2um), where the above-floor
  // couplings live.
  double net_window = 1.3e-6;   // max trunk-to-trunk vertical distance
  double pin_radius = 0.35e-6;  // max pin-to-pin / pin-to-trunk distance
  // Physical model constants. c_plate is the parallel-plate line capacitance
  // per metre of coupled run at the minimum spacing d0 (~eps0*eps_r*h/d for
  // h ~ d ~ 0.1um, eps_r ~ 3 -> tens of aF/um); it decays as d0/(d+d0).
  double c_plate = 2.6e-11;     // F/m at d0 spacing
  double c_fringe = 1.0e-11;    // F/m fringe term, decays as 1/(1+(d/d0)^2)
  double d0 = 0.1e-6;           // minimum spacing reference
  double cap_floor = 1e-21;     // links below this are not "extracted"
  double cap_ceiling = 1e-15;   // clamp (paper keeps 1e-21..1e-15 F)
  // Ground-capacitance model. The area/ground component dominates the
  // coupling component for a typical net (coupling is a significant but
  // minority share, as in real stacks).
  double c_gnd_per_m = 3.0e-11;  // F/m of estimated wire length
  double c_gnd_per_pin = 2e-17;  // contact/via stack
  double c_ox_per_m2 = 3e-2;     // gate-oxide F/m^2 (~30 fF/um^2 at 28nm)
  double c_junction_per_m = 0.4e-9;  // S/D junction F/m of width
  // Nets with more pins than this (power rails) are skipped as coupling
  // victims/aggressors; their capacitance is not a prediction target.
  std::int32_t global_net_pin_limit = 256;
};

ExtractionResult extract_parasitics(const Netlist& netlist, const Placement& placement,
                                    const ExtractionOptions& options = {});

}  // namespace cgps
