#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/counters.h"

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

/// One node's protocol counters, one `X(field)` each (common/counters.h).
/// The node registers each as a `node_<field>` counter and wowd's status
/// reply carries each under its field name.
#define WOW_NODE_COUNTERS(X)                                              \
  X(data_sent)                                                            \
  X(data_delivered)                                                       \
  X(data_forwarded)                                                       \
  /* Sender had no links at all. */                                       \
  X(dropped_no_connection)                                                \
  /* Exact packet died mid-ring. */                                       \
  X(dropped_no_route)                                                     \
  X(dropped_ttl)                                                          \
  X(ctm_sent)                                                             \
  X(ctm_received)                                                         \
  X(connections_added)                                                    \
  X(connections_lost)                                                     \
  X(pings_sent)                                                           \
  /* Clean (Karn-filtered) RTT samples folded into per-peer SRTT. */      \
  X(rtt_samples)                                                          \
  /* CTM requests retransmitted after an adaptive timeout. */             \
  X(ctm_retries)                                                          \
  /* CTM requests abandoned after the retry budget ran out. */            \
  X(ctm_timeouts)                                                         \
  /* Quarantine episodes begun after repeated flaps. */                   \
  X(quarantines)                                                          \
  /* Relay tunnels established (either side). */                          \
  X(relays_established)                                                   \
  /* Relay tunnels replaced by a direct link via an upgrade probe. */     \
  X(relays_upgraded)                                                      \
  /* Relay frames forwarded on behalf of a tunneled pair. */              \
  X(relay_forwarded)                                                      \
  /* Sum of hop counts over delivered data packets (avg = /delivered). */ \
  X(delivered_hops)                                                       \
  /* Frames/payloads that failed to parse (truncated or corrupted). */    \
  X(parse_rejects)                                                        \
  /* Bootstrap probes launched (leaf attempts + in-ring re-probes). */    \
  X(bootstrap_probes)                                                     \
  /* Bootstrap endpoint probe failures (each starts/extends a             \
     backoff). */                                                         \
  X(bootstrap_endpoint_failures)                                          \
  /* Rejoins completed through a cached peer, no bootstrap endpoint       \
     touched. */                                                          \
  X(bootstrap_cache_rejoins)                                              \
  /* Peers learned from gossip samples in CTM join replies. */            \
  X(gossip_peers_learned)                                                 \
  /* Ring-census probes launched / returned to their origin. */           \
  X(census_launched)                                                      \
  X(census_completed)                                                     \
  /* Foreign-segment merges initiated (census discovery) / completed      \
     (the merge link established). */                                     \
  X(merges_initiated)                                                     \
  X(merges_completed)                                                     \
  /* Self-defense (DESIGN §16).  Replayed CTM requests caught by the      \
     replay window. */                                                    \
  X(replays_detected)                                                     \
  /* CTM replies whose token matched nothing pending (late duplicates     \
     count here too; a flood of them is forged-token spray). */           \
  X(unsolicited_replies)                                                  \
  /* Link replies rejected because the claimed sender did not match       \
     the attempt's target (or a bootstrap probe's reply came from the     \
     wrong endpoint) — the forged-identity install path. */               \
  X(forged_replies_rejected)                                              \
  /* Relay frames rejected by header sanity checks (forged src/relay      \
     fields, endpoint inconsistency, no mutual link interest). */         \
  X(forged_relay_rejects)                                                 \
  /* Gossip samples refused by peer-cache poison resistance               \
     (per-source unverified cap). */                                      \
  X(gossip_poison_rejects)                                                \
  /* Inbound control frames shed by the per-endpoint token bucket. */     \
  X(rate_limit_sheds)                                                     \
  /* Peers quarantined + dropped because their misbehavior score          \
     crossed the threshold. */                                            \
  X(misbehavior_quarantines)

/// Owned by the Node (the composition root) and shared by reference
/// with the protocol services, so hot paths keep their plain ++stats
/// increments wherever they live.
struct NodeStats {
  WOW_COUNTERS(NodeStats, WOW_NODE_COUNTERS)
  /// connections_lost broken down by why, indexed by DisconnectCause.
  std::array<std::uint64_t,
             static_cast<std::size_t>(DisconnectCause::kCount)>
      lost_by_cause{};
};

#undef WOW_NODE_COUNTERS

}  // namespace wow::p2p
