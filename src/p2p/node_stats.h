#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace wow::p2p {

/// Why a connection was removed from the table.  `connections_lost` is
/// broken down by this cause in NodeStats and the metrics registry.
enum class DisconnectCause : std::uint8_t {
  kKeepaliveTimeout = 0,  // kPingRetries unanswered probes
  kCloseFrame,            // peer sent kClose (graceful stop, or §V-E
                          // stale-ping rejection)
  kLinkError,             // re-link to a held peer exhausted every URI
  kRelayDown,             // relay agent died; the tunnel dies with it
  kTrimmed,               // stale near link outside the near set (§14)
  kMisbehavior,           // misbehavior ledger crossed its threshold
  kCount,                 // sentinel, keep last
};

[[nodiscard]] const char* to_string(DisconnectCause cause);

/// One node's protocol counters.  Owned by the Node (the composition
/// root) and shared by reference with the protocol services, so hot
/// paths keep their plain ++stats increments wherever they live.
struct NodeStats {
  std::uint64_t data_sent = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t dropped_no_connection = 0;  // sender had no links at all
  std::uint64_t dropped_no_route = 0;       // exact packet died mid-ring
  std::uint64_t dropped_ttl = 0;
  std::uint64_t ctm_sent = 0;
  std::uint64_t ctm_received = 0;
  std::uint64_t connections_added = 0;
  std::uint64_t connections_lost = 0;
  /// connections_lost broken down by why, indexed by DisconnectCause.
  std::array<std::uint64_t,
             static_cast<std::size_t>(DisconnectCause::kCount)>
      lost_by_cause{};
  std::uint64_t pings_sent = 0;
  /// Clean (Karn-filtered) RTT samples folded into per-peer SRTT.
  std::uint64_t rtt_samples = 0;
  /// CTM requests retransmitted after an adaptive timeout.
  std::uint64_t ctm_retries = 0;
  /// CTM requests abandoned after the retry budget ran out.
  std::uint64_t ctm_timeouts = 0;
  /// Quarantine episodes begun after repeated flaps.
  std::uint64_t quarantines = 0;
  /// Relay tunnels established (either side).
  std::uint64_t relays_established = 0;
  /// Relay tunnels replaced by a direct link via an upgrade probe.
  std::uint64_t relays_upgraded = 0;
  /// Relay frames forwarded on behalf of a tunneled pair.
  std::uint64_t relay_forwarded = 0;
  /// Sum of hop counts over delivered data packets (avg = /delivered).
  std::uint64_t delivered_hops = 0;
  /// Frames/payloads that failed to parse (truncated or corrupted).
  std::uint64_t parse_rejects = 0;
  /// Bootstrap probes launched (leaf attempts + in-ring re-probes).
  std::uint64_t bootstrap_probes = 0;
  /// Bootstrap endpoint probe failures (each starts/extends a backoff).
  std::uint64_t bootstrap_endpoint_failures = 0;
  /// Rejoins completed through a cached peer, no bootstrap endpoint
  /// touched.
  std::uint64_t bootstrap_cache_rejoins = 0;
  /// Peers learned from gossip samples in CTM join replies.
  std::uint64_t gossip_peers_learned = 0;
  /// Ring-census probes launched / returned to their origin.
  std::uint64_t census_launched = 0;
  std::uint64_t census_completed = 0;
  /// Foreign-segment merges initiated (census discovery) / completed
  /// (the merge link established).
  std::uint64_t merges_initiated = 0;
  std::uint64_t merges_completed = 0;
  /// Self-defense (DESIGN §16).  Replayed CTM requests caught by the
  /// replay window.
  std::uint64_t replays_detected = 0;
  /// CTM replies whose token matched nothing pending (late duplicates
  /// count here too; a flood of them is forged-token spray).
  std::uint64_t unsolicited_replies = 0;
  /// Link replies rejected because the claimed sender did not match the
  /// attempt's target (or a bootstrap probe's reply came from the wrong
  /// endpoint) — the forged-identity install path.
  std::uint64_t forged_replies_rejected = 0;
  /// Relay frames rejected by header sanity checks (forged src/relay
  /// fields, endpoint inconsistency, no mutual link interest).
  std::uint64_t forged_relay_rejects = 0;
  /// Gossip samples refused by peer-cache poison resistance (per-source
  /// unverified cap).
  std::uint64_t gossip_poison_rejects = 0;
  /// Inbound control frames shed by the per-endpoint token bucket.
  std::uint64_t rate_limit_sheds = 0;
  /// Peers quarantined + dropped because their misbehavior score
  /// crossed the threshold.
  std::uint64_t misbehavior_quarantines = 0;
};

}  // namespace wow::p2p
