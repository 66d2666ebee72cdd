#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "p2p/packet.h"

namespace wow::p2p {

class Node;

/// Ring-census agent: the explicit partitioned-ring detection and merge
/// protocol (self-stabilization à la the Chord/Brunet ring-unification
/// literature).
///
/// Periodically (config.census_interval; 0 = off, the default — a
/// census costs O(ring size) frames) a routable node launches a census
/// probe that walks the successor chain: each hop increments the count
/// and forwards to its own live successor, so a healthy ring returns
/// the probe to its origin with hops == ring size.  The launch also
/// injects a copy through every leaf link, because a leaf into a
/// well-known bootstrap endpoint is exactly the bridge that can land in
/// a DIFFERENT, independently-formed ring.
///
/// Merge rule: a node that receives a census whose origin falls inside
/// its own successor arc — i.e. *it* should be the origin's
/// predecessor — yet has no connection to the origin, has discovered a
/// foreign ring segment.  It stops forwarding and instead starts a
/// structured-near link to the origin using the URIs the probe carries;
/// the resulting connection is the bridge across which ordinary CTM
/// ring repair pulls the two rings into one.  A TTL bounds probes that
/// stray into much larger foreign rings.
class CensusAgent {
 public:
  /// Reads the node's table, config, stats and edges, and starts merge
  /// links through its linking engine.
  explicit CensusAgent(Node& node) : node_(node) {}

  CensusAgent(const CensusAgent&) = delete;
  CensusAgent& operator=(const CensusAgent&) = delete;

  /// start(): the census clock anchors to now (first probe one full
  /// interval later — never a launch storm at boot).
  void on_start();
  void reset() { pending_merges_.clear(); }

  /// Periodic tick from the owner's maintenance loop.
  void maintain();

  /// A census frame arrived (already parsed by the dispatch layer).
  void handle(const CensusFrame& frame);

  /// A connection to `peer` landed; completes a pending merge.
  void note_established(const Address& peer);

  [[nodiscard]] std::size_t state_bytes() const {
    return pending_merges_.capacity() * sizeof(Address);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + state_bytes();
  }

 private:
  void forward(const CensusFrame& frame, std::uint16_t hops);

  Node& node_;

  SimTime last_census_ = 0;
  /// Foreign origins whose merge link is in flight (bounded, deduped).
  std::vector<Address> pending_merges_;
};

}  // namespace wow::p2p
