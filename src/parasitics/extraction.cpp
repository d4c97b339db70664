#include "parasitics/extraction.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace cgps {

std::int64_t ExtractionResult::count(CouplingKind kind) const {
  std::int64_t total = 0;
  for (const CouplingLink& link : links)
    if (link.kind == kind) ++total;
  return total;
}

namespace {

// Distance-decayed parallel-plate + fringe capacitance for a coupled run of
// length `overlap` at spacing `dist`.
double coupling_cap(double overlap, double dist, const ExtractionOptions& opt) {
  if (overlap <= 0.0) return 0.0;
  const double d = std::max(dist, 0.02e-6);
  const double ratio = opt.d0 / (d + opt.d0);
  const double plate = opt.c_plate * ratio;
  const double fringe = opt.c_fringe / (1.0 + (d / opt.d0) * (d / opt.d0));
  return overlap * (plate + fringe);
}

// Point-coupling (pin caps are localized): effective overlap ~ pin extent.
double point_cap(double dist, double extent, const ExtractionOptions& opt) {
  return coupling_cap(extent, dist, opt);
}

// Effective coupled length of a pin: base contact size plus the device's
// drawn metal (wider devices expose proportionally more pin geometry).
double pin_extent(const Device& dev) {
  return 0.05e-6 + dev.width * dev.multiplier + 0.5 * dev.length;
}

struct PinGrid {
  double cell = 1.0;
  std::unordered_map<std::int64_t, std::vector<std::int32_t>> buckets;

  std::int64_t key(double x, double y) const {
    const auto ix = static_cast<std::int64_t>(std::floor(x / cell));
    const auto iy = static_cast<std::int64_t>(std::floor(y / cell));
    // Exact packing (no collisions) so each pair is visited exactly once.
    return (ix << 32) | (iy & 0xffffffffLL);
  }
  void insert(std::int32_t id, const Point& p) { buckets[key(p.x, p.y)].push_back(id); }

  template <typename Fn>
  void for_neighbors(const Point& p, Fn&& fn) const {
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        const auto it = buckets.find(key(p.x + dx * cell, p.y + dy * cell));
        if (it == buckets.end()) continue;
        for (std::int32_t id : it->second) fn(id);
      }
    }
  }
};

}  // namespace

ExtractionResult extract_parasitics(const Netlist& netlist, const Placement& placement,
                                    const ExtractionOptions& opt) {
  ExtractionResult result;
  const auto n_nets = static_cast<std::size_t>(netlist.num_nets());
  const auto n_pins = placement.flat_pins.size();

  // ---- Ground capacitances -------------------------------------------------
  result.net_ground_cap.assign(n_nets, 0.0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    const NetRoute& route = placement.net_route[n];
    result.net_ground_cap[n] =
        opt.c_gnd_per_m * route.wire_length + opt.c_gnd_per_pin * route.n_pins;
  }
  result.pin_ground_cap.assign(n_pins, 0.0);
  for (std::size_t fp = 0; fp < n_pins; ++fp) {
    const auto [dev_idx, pin_idx] = placement.flat_pin_owner[fp];
    const Device& dev = netlist.devices()[static_cast<std::size_t>(dev_idx)];
    const Pin& pin = dev.pins[static_cast<std::size_t>(pin_idx)];
    double cap = 2e-18;  // via/contact floor
    switch (pin.role) {
      case PinRole::kGate:
        cap += opt.c_ox_per_m2 * dev.width * dev.length * dev.multiplier;
        break;
      case PinRole::kDrain:
      case PinRole::kSource:
        cap += opt.c_junction_per_m * dev.width * dev.multiplier;
        break;
      case PinRole::kBulk:
        cap += 0.5 * opt.c_junction_per_m * dev.width * dev.multiplier;
        break;
      case PinRole::kPositive:
      case PinRole::kNegative:
        cap += 0.2 * opt.c_gnd_per_m * (dev.length > 0 ? dev.length : 1e-6);
        break;
    }
    result.pin_ground_cap[fp] = cap;
  }

  // Victim eligibility: skip unplaced and global (power-rail) nets.
  auto net_eligible = [&](std::size_t n) {
    const NetRoute& r = placement.net_route[n];
    return r.n_pins > 0 && r.n_pins <= opt.global_net_pin_limit;
  };

  auto push_link = [&](CouplingKind kind, std::int32_t a, std::int32_t b, double cap) {
    if (cap < opt.cap_floor) return;
    cap = std::min(cap, opt.cap_ceiling);
    if (a > b && (kind == CouplingKind::kPinToPin || kind == CouplingKind::kNetToNet))
      std::swap(a, b);
    result.links.push_back(CouplingLink{kind, a, b, cap});
  };

  // ---- Net-to-net coupling: sweep trunks sorted by y -------------------------
  std::vector<std::int32_t> trunk_order;
  trunk_order.reserve(n_nets);
  for (std::size_t n = 0; n < n_nets; ++n)
    if (net_eligible(n)) trunk_order.push_back(static_cast<std::int32_t>(n));
  std::sort(trunk_order.begin(), trunk_order.end(), [&](std::int32_t a, std::int32_t b) {
    return placement.net_route[static_cast<std::size_t>(a)].trunk_y <
           placement.net_route[static_cast<std::size_t>(b)].trunk_y;
  });
  for (std::size_t i = 0; i < trunk_order.size(); ++i) {
    const auto na = static_cast<std::size_t>(trunk_order[i]);
    const NetRoute& ra = placement.net_route[na];
    for (std::size_t j = i + 1; j < trunk_order.size(); ++j) {
      const auto nb = static_cast<std::size_t>(trunk_order[j]);
      const NetRoute& rb = placement.net_route[nb];
      const double dy = rb.trunk_y - ra.trunk_y;
      if (dy > opt.net_window) break;  // sorted by y: no more candidates
      const double overlap = interval_overlap(ra.trunk_x0, ra.trunk_x1, rb.trunk_x0, rb.trunk_x1);
      if (overlap <= 0.0) continue;
      push_link(CouplingKind::kNetToNet, static_cast<std::int32_t>(na),
                static_cast<std::int32_t>(nb), coupling_cap(overlap, dy, opt));
    }
  }

  // ---- Pin grid for point couplings -----------------------------------------
  PinGrid grid;
  grid.cell = opt.pin_radius;
  for (std::size_t fp = 0; fp < n_pins; ++fp)
    grid.insert(static_cast<std::int32_t>(fp), placement.flat_pins[fp]);

  // Pin-to-pin: pins of different devices, different nets, within radius.
  // The coupled extent combines both pins' metal sizes (pin_extent above),
  // tying the capacitance magnitude to device geometry.
  for (std::size_t fp = 0; fp < n_pins; ++fp) {
    const Point& p = placement.flat_pins[fp];
    const auto [dev_a, pin_a] = placement.flat_pin_owner[fp];
    const Device& da = netlist.devices()[static_cast<std::size_t>(dev_a)];
    const Pin& pa = da.pins[static_cast<std::size_t>(pin_a)];
    grid.for_neighbors(p, [&](std::int32_t other) {
      if (other <= static_cast<std::int32_t>(fp)) return;  // each unordered pair once
      const auto [dev_b, pin_b] = placement.flat_pin_owner[static_cast<std::size_t>(other)];
      if (dev_b == dev_a) return;  // intra-device cap is part of the device model
      const Device& db = netlist.devices()[static_cast<std::size_t>(dev_b)];
      const Pin& pb = db.pins[static_cast<std::size_t>(pin_b)];
      if (pb.net == pa.net) return;  // same electrical node
      const Point& q = placement.flat_pins[static_cast<std::size_t>(other)];
      const double dist = std::hypot(q.x - p.x, q.y - p.y);
      if (dist > opt.pin_radius) return;
      const double extent = 0.5 * (pin_extent(da) + pin_extent(db));
      push_link(CouplingKind::kPinToPin, static_cast<std::int32_t>(fp), other,
                point_cap(dist, extent, opt));
    });
  }

  // Pin-to-net: pin within `pin_radius` of a net trunk it does not belong
  // to. Trunks are bucketed by y for the candidate search.
  const double bucket_h = opt.pin_radius;
  std::unordered_map<std::int64_t, std::vector<std::int32_t>> trunk_buckets;
  for (std::int32_t n : trunk_order) {
    const auto iy = static_cast<std::int64_t>(
        std::floor(placement.net_route[static_cast<std::size_t>(n)].trunk_y / bucket_h));
    trunk_buckets[iy].push_back(n);
  }
  for (std::size_t fp = 0; fp < n_pins; ++fp) {
    const Point& p = placement.flat_pins[fp];
    const auto [dev_idx, pin_idx] = placement.flat_pin_owner[fp];
    const Device& dev = netlist.devices()[static_cast<std::size_t>(dev_idx)];
    const Pin& pin = dev.pins[static_cast<std::size_t>(pin_idx)];
    const auto iy0 = static_cast<std::int64_t>(std::floor(p.y / bucket_h));
    for (std::int64_t iy = iy0 - 1; iy <= iy0 + 1; ++iy) {
      const auto it = trunk_buckets.find(iy);
      if (it == trunk_buckets.end()) continue;
      for (std::int32_t n : it->second) {
        if (n == pin.net) continue;
        const NetRoute& route = placement.net_route[static_cast<std::size_t>(n)];
        const double dy = std::fabs(route.trunk_y - p.y);
        if (dy > opt.pin_radius) continue;
        // Horizontal distance to the trunk span.
        double dx = 0.0;
        if (p.x < route.trunk_x0) {
          dx = route.trunk_x0 - p.x;
        } else if (p.x > route.trunk_x1) {
          dx = p.x - route.trunk_x1;
        }
        const double dist = std::hypot(dx, dy);
        if (dist > opt.pin_radius) continue;
        push_link(CouplingKind::kPinToNet, static_cast<std::int32_t>(fp), n,
                  point_cap(dist, 2.0 * pin_extent(dev), opt));
      }
    }
  }
  return result;
}

}  // namespace cgps
