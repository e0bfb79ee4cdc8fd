#include "dht/can.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace dprank {

namespace {

double axis_distance(double a, double b) {
  const double d = std::abs(a - b);
  return std::min(d, 1.0 - d);
}

/// Do [alo, ahi) and [blo, bhi) overlap on a torus axis with positive
/// length? Touching at a point does not count.
bool spans_overlap(double alo, double ahi, double blo, double bhi) {
  // All zone spans here are non-wrapping (splits never wrap), so plain
  // interval logic suffices.
  return alo < bhi && blo < ahi;
}

/// Do the spans touch (share an endpoint), including across the 0/1
/// seam of the torus?
bool spans_touch(double alo, double ahi, double blo, double bhi) {
  if (ahi == blo || bhi == alo) return true;
  // Torus seam: [x, 1) touches [0, y).
  if (ahi == 1.0 && blo == 0.0) return true;
  if (bhi == 1.0 && alo == 0.0) return true;
  return false;
}

}  // namespace

double torus_distance(const CanSpace::Point& a, const CanSpace::Point& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < CanSpace::kDims; ++i) {
    const double d = axis_distance(a[i], b[i]);
    sum += d * d;
  }
  return std::sqrt(sum);
}

bool CanSpace::Zone::contains(const Point& p) const {
  for (std::size_t i = 0; i < kDims; ++i) {
    if (p[i] < lo[i] || p[i] >= hi[i]) return false;
  }
  return true;
}

CanSpace::Point CanSpace::Zone::center() const {
  Point c{};
  for (std::size_t i = 0; i < kDims; ++i) c[i] = (lo[i] + hi[i]) / 2.0;
  return c;
}

double CanSpace::Zone::volume() const {
  double v = 1.0;
  for (std::size_t i = 0; i < kDims; ++i) v *= hi[i] - lo[i];
  return v;
}

CanSpace::CanSpace(PeerId num_peers) {
  if (num_peers == 0) {
    throw std::invalid_argument("CanSpace: need at least one peer");
  }
  Zone whole;
  whole.lo = {0.0, 0.0};
  whole.hi = {1.0, 1.0};
  whole.owner = 0;
  zones_.push_back(whole);
  for (PeerId p = 1; p < num_peers; ++p) join(p);
}

CanSpace::Point CanSpace::key_to_point(Guid key) {
  // Scale each 64-bit half into [0, 1).
  return {static_cast<double>(key.hi) * 0x1.0p-64,
          static_cast<double>(key.lo) * 0x1.0p-64};
}

CanSpace::Point CanSpace::peer_join_point(PeerId peer) {
  return key_to_point(peer_guid(peer));
}

std::size_t CanSpace::zone_of_point(const Point& p) const {
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (zones_[z].contains(p)) return z;
  }
  throw std::logic_error("CanSpace: point not covered (tiling broken)");
}

std::size_t CanSpace::first_zone_of_peer(PeerId peer) const {
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (zones_[z].owner == peer) return z;
  }
  throw std::out_of_range("CanSpace: unknown peer");
}

bool CanSpace::contains(PeerId peer) const {
  return std::any_of(zones_.begin(), zones_.end(),
                     [&](const Zone& z) { return z.owner == peer; });
}

std::size_t CanSpace::num_peers() const {
  std::vector<PeerId> owners;
  owners.reserve(zones_.size());
  for (const Zone& z : zones_) owners.push_back(z.owner);
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  return owners.size();
}

void CanSpace::join(PeerId peer) {
  if (contains(peer)) {
    throw std::invalid_argument("CanSpace::join: peer already present");
  }
  // CAN join: route to the zone holding the peer's random point and
  // split it in half along its longest side.
  const Point p = peer_join_point(peer);
  Zone& victim = zones_[zone_of_point(p)];
  std::size_t axis = 0;
  double longest = 0.0;
  for (std::size_t i = 0; i < kDims; ++i) {
    const double side = victim.hi[i] - victim.lo[i];
    if (side > longest) {
      longest = side;
      axis = i;
    }
  }
  const double mid = (victim.lo[axis] + victim.hi[axis]) / 2.0;
  Zone upper = victim;
  upper.lo[axis] = mid;
  victim.hi[axis] = mid;
  // The half containing the join point goes to the new peer (CAN's
  // convention: the joiner takes the half its point lands in).
  if (p[axis] >= mid) {
    upper.owner = peer;
  } else {
    upper.owner = victim.owner;
    victim.owner = peer;
  }
  zones_.push_back(upper);
}

void CanSpace::leave(PeerId peer) {
  if (!contains(peer)) return;
  if (num_peers() == 1) {
    throw std::logic_error("CanSpace::leave: cannot empty the space");
  }
  // Heir: among owners of zones adjacent to any departing zone, the one
  // holding the least total volume (CAN's takeover heuristic).
  std::vector<double> volume_of_owner;
  auto owner_volume = [&](PeerId q) {
    double v = 0.0;
    for (const Zone& z : zones_) {
      if (z.owner == q) v += z.volume();
    }
    return v;
  };
  PeerId heir = kInvalidPeer;
  double heir_volume = 2.0;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (zones_[z].owner != peer) continue;
    for (const std::size_t nb : neighbors_of_zone(z)) {
      const PeerId q = zones_[nb].owner;
      if (q == peer) continue;
      const double v = owner_volume(q);
      if (heir == kInvalidPeer || v < heir_volume ||
          (v == heir_volume && q < heir)) {
        heir = q;
        heir_volume = v;
      }
    }
  }
  if (heir == kInvalidPeer) {
    throw std::logic_error("CanSpace::leave: no adjacent heir (bug)");
  }
  for (Zone& z : zones_) {
    if (z.owner == peer) z.owner = heir;
  }
}

std::vector<std::size_t> CanSpace::neighbors_of_zone(std::size_t z) const {
  std::vector<std::size_t> out;
  const Zone& a = zones_[z];
  for (std::size_t o = 0; o < zones_.size(); ++o) {
    if (o == z) continue;
    const Zone& b = zones_[o];
    // Adjacent iff they touch on exactly one axis and overlap on the
    // other (for d = 2).
    for (std::size_t axis = 0; axis < kDims; ++axis) {
      const std::size_t other = 1 - axis;
      if (spans_touch(a.lo[axis], a.hi[axis], b.lo[axis], b.hi[axis]) &&
          spans_overlap(a.lo[other], a.hi[other], b.lo[other],
                        b.hi[other])) {
        out.push_back(o);
        break;
      }
    }
  }
  return out;
}

PeerId CanSpace::owner_of_point(const Point& p) const {
  return zones_[zone_of_point(p)].owner;
}

PeerId CanSpace::owner_of_key(Guid key) const {
  return owner_of_point(key_to_point(key));
}

CanSpace::Route CanSpace::route(PeerId from, Guid key) const {
  const Point target = key_to_point(key);
  const std::size_t target_zone = zone_of_point(target);
  Route r;
  r.destination = zones_[target_zone].owner;

  std::size_t current = first_zone_of_peer(from);
  // A peer owning several zones starts from whichever of its zones is
  // closest to the target.
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (zones_[z].owner == from &&
        torus_distance(zones_[z].center(), target) <
            torus_distance(zones_[current].center(), target)) {
      current = z;
    }
  }

  // Greedy by zone-center torus distance; a visited set breaks the rare
  // local-minimum ping-pong skewed zones can cause (real CAN recovers
  // the same way, by expanding-ring search over already-seen zones).
  std::vector<bool> visited(zones_.size(), false);
  visited[current] = true;
  while (current != target_zone) {
    const auto nbs = neighbors_of_zone(current);
    std::size_t best = zones_.size();
    double best_dist = 0.0;
    for (const std::size_t nb : nbs) {
      if (visited[nb] && nb != target_zone) continue;
      const double d = torus_distance(zones_[nb].center(), target);
      if (best == zones_.size() || d < best_dist) {
        best_dist = d;
        best = nb;
      }
    }
    if (best == zones_.size()) {
      throw std::logic_error("CanSpace::route: routing failed to converge");
    }
    current = best;
    visited[current] = true;
    const PeerId owner = zones_[current].owner;
    if (owner != from && (r.hops.empty() || r.hops.back() != owner)) {
      r.hops.push_back(owner);
    }
  }
  if (r.destination != from &&
      (r.hops.empty() || r.hops.back() != r.destination)) {
    r.hops.push_back(r.destination);
  }
  return r;
}

double CanSpace::total_volume() const {
  double v = 0.0;
  for (const Zone& z : zones_) v += z.volume();
  return v;
}

}  // namespace dprank
