#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/counters.h"
#include "common/metrics.h"
#include "common/time.h"
#include "net/host.h"
#include "sim/simulator.h"

namespace wow::net {

class Network;

/// Fault primitives the fabric can inject, each modelling a class of
/// real-world adversity the paper's deployment met (§V-E):
///  - kPartition      a site-set bisection (BGP incident, campus uplink cut)
///  - kLinkFlap       one site-pair path goes dark and comes back
///  - kStorm          WAN-wide latency spike + background loss (congestion)
///  - kDuplicate      datagram duplication at delivery (retransmitting
///                    middleboxes, route flaps replaying queues)
///  - kReorder        extra per-datagram delay, i.e. reordering
///  - kCorrupt        in-flight bit corruption; some frames die to the UDP
///                    checksum, the rest reach the parser corrupted
///  - kNatReboot      a NAT box forgets every mapping (ISP renumbering —
///                    the paper's home-node incident)
///  - kIsolateDomain  a NAT domain's uplink is cut (and later restored)
///  - kFreezeHost     host answers nothing but keeps state (VM suspend)
///  - kCrashHost      the overlay process dies abruptly and is restarted
///                    at window end (kill -9 + supervisor)
enum class FaultKind : std::uint8_t {
  kPartition = 1,
  kLinkFlap,
  kStorm,
  kDuplicate,
  kReorder,
  kCorrupt,
  kNatReboot,
  kIsolateDomain,
  kFreezeHost,
  kCrashHost,
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled fault.  Which fields matter depends on `kind`; unused
/// fields stay at their defaults and are omitted from the compact form.
struct FaultSpec {
  FaultKind kind = FaultKind::kStorm;
  SimTime at = 0;
  /// Active window; 0 means instantaneous (kNatReboot).
  SimDuration duration = 0;
  /// kPartition: the sites forming group A (the rest form group B).
  /// kLinkFlap: exactly two sites naming the flapping path.
  std::vector<SiteId> sites;
  DomainId domain = -1;  // kNatReboot / kIsolateDomain
  HostId host = -1;      // kFreezeHost / kCrashHost
  /// kDuplicate/kReorder/kCorrupt: per-delivery probability;
  /// kStorm: extra loss probability per WAN traversal.
  double rate = 0.0;
  /// kStorm: extra one-way WAN latency; kReorder: max extra delay.
  SimDuration magnitude = 0;

  /// Compact form, e.g. "part@120+60:0,2" — see FaultPlan::parse.
  [[nodiscard]] std::string describe() const;
};

/// A deterministic fault schedule.  Plans are data: generate one from a
/// seed, print it, parse it back — the chaos harness's failure reproducer
/// is the (seed, schedule) pair.
struct FaultPlan {
  std::vector<FaultSpec> events;

  /// Topology/horizon inputs for random plan generation.
  struct RandomParams {
    int events = 8;
    SimTime start = 0;
    SimTime horizon = 10 * kMinute;
    SimDuration max_duration = kMinute;
    std::vector<SiteId> sites;          // partition/flap candidates
    std::vector<DomainId> nat_domains;  // reboot/isolate candidates
    std::vector<HostId> hosts;          // freeze/crash candidates
  };

  /// Seeded generation: same (seed, params) ⇒ identical plan.  Uses its
  /// own engine so plan generation never perturbs the simulation RNG.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        const RandomParams& params);

  /// One-line schedule: ';'-joined FaultSpec::describe() forms, sorted
  /// by start time.  Grammar per event: kind@start[+dur][:args] with
  /// times in integer milliseconds (exact round-trip with parse()).
  [[nodiscard]] std::string describe() const;

  /// Inverse of describe().  Returns nullopt on any malformed event,
  /// including a time, duration, latency or delay outside [0, a
  /// simulated century] and an id outside int's range.
  [[nodiscard]] static std::optional<FaultPlan> parse(std::string_view spec);
};

/// Runtime that applies a FaultPlan to the simulated network.
///
/// Owned by Network; the data plane consults it on every routed datagram.
/// When no fault is active every hook is a trivial test of empty state —
/// and, critically, draws nothing from the RNG — so a fault-free run is
/// bit-identical to one on a build without the fabric.  Per-packet
/// randomness (duplication, reordering, corruption) comes from the
/// simulation RNG, keeping the whole faulted run a pure function of the
/// seed and the plan.
class FaultInjector {
 public:
  /// Fault counters, one `X(field)` each (common/counters.h), each
  /// registered as a `fault_<field>` counter.
#define WOW_FAULT_COUNTERS(X)         \
  X(faults_begun)                     \
  X(faults_healed)                    \
  X(duplicated)                       \
  X(reordered)                        \
  /* Killed by the UDP checksum. */   \
  X(corrupted_dropped)                \
  /* Reached the parser corrupted. */ \
  X(corrupted_delivered)
  struct Stats {
    WOW_COUNTERS(Stats, WOW_FAULT_COUNTERS)
  };
#undef WOW_FAULT_COUNTERS

  /// Hook for kCrashHost: `down=true` at window start (kill the overlay
  /// process), false at window end (restart it).  Without a handler a
  /// crash degrades to a network-level freeze.
  using CrashHandler = std::function<void(HostId host, bool down)>;

  FaultInjector(sim::Simulator& simulator, Network& network);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arm every event of `plan` (begin and heal) on the simulator clock.
  /// Events whose `at` is in the past begin immediately.
  void schedule(const FaultPlan& plan);

  /// Begin one fault now; its heal (if any) is scheduled `duration` out.
  void inject(const FaultSpec& spec);

  void set_crash_handler(CrashHandler handler) {
    crash_handler_ = std::move(handler);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Number of currently-open fault windows (instantaneous faults never
  /// count).  The soak harness checks invariants only while this is 0.
  [[nodiscard]] std::size_t active_faults() const { return active_.size(); }

  // --- hooks consumed by Network's data plane ----------------------------

  [[nodiscard]] bool host_blocked(HostId host) const {
    return !blocked_hosts_.empty() && blocked_hosts_.count(host) != 0;
  }
  /// An active partition separates the two sites.
  [[nodiscard]] bool partitioned(SiteId a, SiteId b) const;
  /// An active flap has taken the a<->b path down.
  [[nodiscard]] bool link_down(SiteId a, SiteId b) const {
    return !down_links_.empty() &&
           down_links_.count(ordered_pair(a, b)) != 0;
  }
  [[nodiscard]] bool domain_isolated(DomainId domain) const {
    return !isolated_domains_.empty() &&
           isolated_domains_.count(domain) != 0;
  }
  /// Storm adders applied to every WAN traversal while active.
  [[nodiscard]] SimDuration wan_extra_latency() const {
    return storm_extra_latency_;
  }
  [[nodiscard]] double wan_extra_loss() const { return storm_extra_loss_; }

  /// Per-delivery decisions.  Each draws from the simulation RNG only
  /// while the corresponding fault is active.
  [[nodiscard]] bool roll_duplicate();
  [[nodiscard]] SimDuration roll_reorder_delay();
  enum class CorruptAction { kNone, kDrop, kDeliverCorrupted };
  [[nodiscard]] CorruptAction roll_corruption();
  /// Flip 1..4 random bits of `frame` in place (copy-on-write protects
  /// other holders of the buffer).  No-op on an empty frame.
  void corrupt(SharedBytes& frame);

 private:
  struct ActiveWindow {
    FaultSpec spec;
    std::uint64_t token;  // distinguishes identical overlapping windows
  };

  [[nodiscard]] static std::pair<SiteId, SiteId> ordered_pair(SiteId a,
                                                              SiteId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  void begin(const FaultSpec& spec, std::uint64_t token);
  void end(const FaultSpec& spec, std::uint64_t token);
  /// Recompute the aggregate per-packet state from active_ (rare path).
  void recompute();
  void trace_fault(const char* event, const FaultSpec& spec) const;

  sim::Simulator& sim_;
  Network& network_;
  CrashHandler crash_handler_;
  Stats stats_;

  std::vector<ActiveWindow> active_;
  std::uint64_t next_token_ = 1;

  // Aggregated active state, rebuilt by recompute().
  std::vector<std::set<SiteId>> partitions_;
  std::set<std::pair<SiteId, SiteId>> down_links_;
  std::set<DomainId> isolated_domains_;
  std::set<HostId> blocked_hosts_;
  SimDuration storm_extra_latency_ = 0;
  double storm_extra_loss_ = 0.0;
  double dup_rate_ = 0.0;
  double reorder_rate_ = 0.0;
  SimDuration reorder_max_ = 0;
  double corrupt_rate_ = 0.0;

  std::vector<MetricId> metric_ids_;
};

}  // namespace wow::net
