#pragma once

// CAN-style DHT overlay (§2.1 lists CAN first among the DHT systems the
// scheme targets).
//
// CAN (Ratnasamy et al.) maps keys into a d-dimensional unit torus
// partitioned into axis-aligned zones, one owner per zone:
//   * a joining node picks a random point, routes to the zone holding
//     it, and splits that zone in half along its longest side;
//   * a leaving node's zones are taken over by the neighbor owning the
//     least volume (CAN's defragmentation is deferred, so an owner may
//     temporarily hold several zones — modelled here explicitly);
//   * routing is greedy: each hop crosses to the adjacent zone whose
//     center is torus-closest to the key's point, giving O(d * n^(1/d))
//     hops.
//
// As with the Chord and Pastry substrates, membership is global (the
// simulation plays an already-converged overlay); the *geometry* —
// zones, adjacency, hop counts — is the real CAN algorithm.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/guid.hpp"
#include "dht/ring.hpp"  // PeerId, kInvalidPeer

namespace dprank {

class CanSpace {
 public:
  static constexpr std::size_t kDims = 2;  // the CAN paper's default evaluation
  using Point = std::array<double, kDims>;

  struct Zone {
    Point lo{};  // inclusive
    Point hi{};  // exclusive
    PeerId owner = kInvalidPeer;

    [[nodiscard]] bool contains(const Point& p) const;
    [[nodiscard]] Point center() const;
    [[nodiscard]] double volume() const;
  };

  /// Bootstrap: peer 0 owns the whole torus, peers 1..n-1 join in order
  /// (each splitting the zone that holds its hashed join point).
  explicit CanSpace(PeerId num_peers);
  CanSpace() : CanSpace(1) {}

  /// Join: split the zone containing the peer's hashed point.
  void join(PeerId peer);

  /// Leave: the departing peer's zones are absorbed by the neighbor
  /// owning the least total volume (multi-zone takeover).
  void leave(PeerId peer);

  [[nodiscard]] bool contains(PeerId peer) const;
  [[nodiscard]] std::size_t num_zones() const { return zones_.size(); }
  [[nodiscard]] std::size_t num_peers() const;

  /// Deterministic key -> point mapping.
  [[nodiscard]] static Point key_to_point(Guid key);
  [[nodiscard]] static Point peer_join_point(PeerId peer);

  [[nodiscard]] PeerId owner_of_key(Guid key) const;
  [[nodiscard]] PeerId owner_of_point(const Point& p) const;

  struct Route {
    PeerId destination = kInvalidPeer;
    std::vector<PeerId> hops;  // per-zone-crossing owner sequence,
                               // consecutive duplicates collapsed;
                               // excludes origin; empty if local
    [[nodiscard]] std::size_t hop_count() const { return hops.size(); }
  };

  /// Greedy geographic routing from `from`'s first zone to the key.
  [[nodiscard]] Route route(PeerId from, Guid key) const;

  /// Total volume must always be 1 and zones must tile the torus; used
  /// by tests and asserted cheaply after each membership change.
  [[nodiscard]] double total_volume() const;

  /// Zones adjacent to zone `z` (sharing a (d-1)-dimensional face,
  /// torus-aware).
  [[nodiscard]] std::vector<std::size_t> neighbors_of_zone(
      std::size_t z) const;

  [[nodiscard]] const std::vector<Zone>& zones() const { return zones_; }

 private:
  [[nodiscard]] std::size_t zone_of_point(const Point& p) const;
  [[nodiscard]] std::size_t first_zone_of_peer(PeerId peer) const;

  std::vector<Zone> zones_;
};

/// Torus distance between two points in [0,1)^d.
[[nodiscard]] double torus_distance(const CanSpace::Point& a,
                                    const CanSpace::Point& b);

}  // namespace dprank
