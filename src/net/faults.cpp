#include "net/faults.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <random>

#include "net/nat.h"
#include "net/network.h"

namespace wow::net {

namespace {

/// Fraction of corrupted datagrams the (16-bit) UDP checksum catches in
/// the kernel; the rest reach the application corrupted and must be
/// rejected by the frame parsers.
constexpr double kChecksumCatch = 0.5;

/// DSL keyword per kind (describe/parse round-trip).
[[nodiscard]] const char* keyword(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition: return "part";
    case FaultKind::kLinkFlap: return "flap";
    case FaultKind::kStorm: return "storm";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kNatReboot: return "natreboot";
    case FaultKind::kIsolateDomain: return "isolate";
    case FaultKind::kFreezeHost: return "freeze";
    case FaultKind::kCrashHost: return "crash";
  }
  return "?";
}

[[nodiscard]] std::optional<FaultKind> kind_of(std::string_view word) {
  for (int k = static_cast<int>(FaultKind::kPartition);
       k <= static_cast<int>(FaultKind::kCrashHost); ++k) {
    auto kind = static_cast<FaultKind>(k);
    if (word == keyword(kind)) return kind;
  }
  return std::nullopt;
}

void append_ms(std::string& out, SimDuration d) {
  out += std::to_string(d / kMillisecond);
}

/// A whole decimal string as a T; nullopt when it is not one or T cannot
/// hold it, so an id past int's range is refused, never wrapped onto a
/// real one.
template <typename T>
[[nodiscard]] std::optional<T> parse_int(std::string_view s) {
  T v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// The longest time a schedule may name: a simulated century.  Every
/// parsed time and duration is bounded by it, so neither the conversion
/// to SimTime nor a start-plus-duration sum can overflow.
constexpr std::int64_t kMaxScheduleMs = 100LL * 365 * 24 * 60 * 60 * 1000;

/// A millisecond count in [0, kMaxScheduleMs], as a SimDuration.
[[nodiscard]] std::optional<SimDuration> parse_ms(std::string_view s) {
  auto ms = parse_int<std::int64_t>(s);
  if (!ms || *ms < 0 || *ms > kMaxScheduleMs) return std::nullopt;
  return *ms * kMillisecond;
}

[[nodiscard]] std::optional<double> parse_rate(std::string_view s) {
  // strtod needs a terminated buffer; rates are short.
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  // The negated range test also rejects NaN (every comparison false).
  if (end != buf.c_str() + buf.size() || !(v >= 0.0 && v <= 1.0)) {
    return std::nullopt;
  }
  return v;
}

/// Split `s` on `sep`, preserving empty pieces.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                 char sep) {
  std::vector<std::string_view> out;
  while (true) {
    std::size_t pos = s.find(sep);
    if (pos == std::string_view::npos) {
      out.push_back(s);
      return out;
    }
    out.push_back(s.substr(0, pos));
    s.remove_prefix(pos + 1);
  }
}

/// Format a rate with enough digits to round-trip the two-decimal
/// granularity the generator uses (and most hand-written specs).
void append_rate(std::string& out, double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", rate);
  out += buf;
}

}  // namespace

const char* to_string(FaultKind kind) { return keyword(kind); }

std::string FaultSpec::describe() const {
  std::string out = keyword(kind);
  out += '@';
  append_ms(out, at);
  if (duration > 0) {
    out += '+';
    append_ms(out, duration);
  }
  switch (kind) {
    case FaultKind::kPartition:
      out += ':';
      for (std::size_t i = 0; i < sites.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(sites[i]);
      }
      break;
    case FaultKind::kLinkFlap:
      out += ':';
      out += std::to_string(sites.size() > 0 ? sites[0] : 0);
      out += '-';
      out += std::to_string(sites.size() > 1 ? sites[1] : 0);
      break;
    case FaultKind::kStorm:
      out += ':';
      append_ms(out, magnitude);
      out += ',';
      append_rate(out, rate);
      break;
    case FaultKind::kDuplicate:
    case FaultKind::kCorrupt:
      out += ':';
      append_rate(out, rate);
      break;
    case FaultKind::kReorder:
      out += ':';
      append_rate(out, rate);
      out += ',';
      append_ms(out, magnitude);
      break;
    case FaultKind::kNatReboot:
    case FaultKind::kIsolateDomain:
      out += ':';
      out += std::to_string(domain);
      break;
    case FaultKind::kFreezeHost:
    case FaultKind::kCrashHost:
      out += ':';
      out += std::to_string(host);
      break;
  }
  return out;
}

std::string FaultPlan::describe() const {
  std::vector<const FaultSpec*> ordered;
  ordered.reserve(events.size());
  for (const FaultSpec& e : events) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultSpec* a, const FaultSpec* b) {
                     return a->at < b->at;
                   });
  std::string out;
  for (const FaultSpec* e : ordered) {
    if (!out.empty()) out += ';';
    out += e->describe();
  }
  return out;
}

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  for (std::string_view item : split(spec, ';')) {
    if (item.empty()) return std::nullopt;
    std::size_t at_pos = item.find('@');
    if (at_pos == std::string_view::npos) return std::nullopt;
    auto kind = kind_of(item.substr(0, at_pos));
    if (!kind) return std::nullopt;
    FaultSpec e;
    e.kind = *kind;
    std::string_view rest = item.substr(at_pos + 1);
    std::string_view times = rest;
    std::string_view args;
    if (std::size_t colon = rest.find(':');
        colon != std::string_view::npos) {
      times = rest.substr(0, colon);
      args = rest.substr(colon + 1);
    }
    std::string_view at_ms = times;
    if (std::size_t plus = times.find('+');
        plus != std::string_view::npos) {
      at_ms = times.substr(0, plus);
      auto dur = parse_ms(times.substr(plus + 1));
      if (!dur) return std::nullopt;
      e.duration = *dur;
    }
    auto at = parse_ms(at_ms);
    if (!at) return std::nullopt;
    e.at = *at;

    switch (e.kind) {
      case FaultKind::kPartition: {
        for (std::string_view s : split(args, ',')) {
          auto site = parse_int<SiteId>(s);
          if (!site) return std::nullopt;
          e.sites.push_back(*site);
        }
        if (e.sites.empty()) return std::nullopt;
        break;
      }
      case FaultKind::kLinkFlap: {
        auto ends = split(args, '-');
        if (ends.size() != 2) return std::nullopt;
        auto a = parse_int<SiteId>(ends[0]);
        auto b = parse_int<SiteId>(ends[1]);
        if (!a || !b) return std::nullopt;
        e.sites = {*a, *b};
        break;
      }
      case FaultKind::kStorm: {
        auto parts = split(args, ',');
        if (parts.size() != 2) return std::nullopt;
        auto lat = parse_ms(parts[0]);
        auto loss = parse_rate(parts[1]);
        if (!lat || !loss) return std::nullopt;
        e.magnitude = *lat;
        e.rate = *loss;
        break;
      }
      case FaultKind::kDuplicate:
      case FaultKind::kCorrupt: {
        auto rate = parse_rate(args);
        if (!rate) return std::nullopt;
        e.rate = *rate;
        break;
      }
      case FaultKind::kReorder: {
        auto parts = split(args, ',');
        if (parts.size() != 2) return std::nullopt;
        auto rate = parse_rate(parts[0]);
        auto max = parse_ms(parts[1]);
        if (!rate || !max) return std::nullopt;
        e.rate = *rate;
        e.magnitude = *max;
        break;
      }
      case FaultKind::kNatReboot:
      case FaultKind::kIsolateDomain: {
        auto domain = parse_int<DomainId>(args);
        if (!domain) return std::nullopt;
        e.domain = *domain;
        break;
      }
      case FaultKind::kFreezeHost:
      case FaultKind::kCrashHost: {
        auto host = parse_int<HostId>(args);
        if (!host) return std::nullopt;
        e.host = *host;
        break;
      }
    }
    plan.events.push_back(std::move(e));
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomParams& params) {
  // Dedicated engine: plan generation must not touch the simulation RNG
  // (the plan is printable data, computed before the run).
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };

  // Which kinds the topology supports.
  std::vector<FaultKind> kinds = {FaultKind::kStorm, FaultKind::kDuplicate,
                                  FaultKind::kReorder, FaultKind::kCorrupt};
  if (params.sites.size() >= 2) {
    kinds.push_back(FaultKind::kPartition);
    kinds.push_back(FaultKind::kLinkFlap);
  }
  if (!params.nat_domains.empty()) {
    kinds.push_back(FaultKind::kNatReboot);
    kinds.push_back(FaultKind::kIsolateDomain);
  }
  if (!params.hosts.empty()) {
    kinds.push_back(FaultKind::kFreezeHost);
    kinds.push_back(FaultKind::kCrashHost);
  }

  FaultPlan plan;
  SimDuration span = std::max<SimDuration>(params.horizon - params.start,
                                           kSecond);
  SimDuration max_dur =
      std::clamp<SimDuration>(params.max_duration, 5 * kSecond, span);
  for (int i = 0; i < params.events; ++i) {
    FaultSpec e;
    e.kind = kinds[static_cast<std::size_t>(
        uniform(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    // Millisecond granularity so describe()/parse() round-trip exactly.
    e.at = params.start +
           uniform(0, span / kMillisecond - 1) * kMillisecond;
    e.duration =
        uniform(5 * kSecond / kMillisecond, max_dur / kMillisecond) *
        kMillisecond;
    switch (e.kind) {
      case FaultKind::kPartition: {
        // Random non-trivial bisection: each site joins group A with
        // p=1/2; degenerate draws fall back to {first site}.
        for (SiteId s : params.sites) {
          if (uniform(0, 1) == 1) e.sites.push_back(s);
        }
        if (e.sites.empty() || e.sites.size() == params.sites.size()) {
          e.sites = {params.sites.front()};
        }
        break;
      }
      case FaultKind::kLinkFlap: {
        auto n = static_cast<std::int64_t>(params.sites.size());
        std::int64_t a = uniform(0, n - 1);
        std::int64_t b = uniform(0, n - 2);
        if (b >= a) ++b;
        e.sites = {params.sites[static_cast<std::size_t>(a)],
                   params.sites[static_cast<std::size_t>(b)]};
        break;
      }
      case FaultKind::kStorm:
        e.magnitude = uniform(10, 100) * kMillisecond;
        e.rate = static_cast<double>(uniform(5, 30)) / 100.0;
        break;
      case FaultKind::kDuplicate:
        e.rate = static_cast<double>(uniform(10, 60)) / 100.0;
        break;
      case FaultKind::kReorder:
        e.rate = static_cast<double>(uniform(10, 50)) / 100.0;
        e.magnitude = uniform(10, 200) * kMillisecond;
        break;
      case FaultKind::kCorrupt:
        e.rate = static_cast<double>(uniform(5, 40)) / 100.0;
        break;
      case FaultKind::kNatReboot:
        e.domain = params.nat_domains[static_cast<std::size_t>(uniform(
            0, static_cast<std::int64_t>(params.nat_domains.size()) - 1))];
        e.duration = 0;
        break;
      case FaultKind::kIsolateDomain:
        e.domain = params.nat_domains[static_cast<std::size_t>(uniform(
            0, static_cast<std::int64_t>(params.nat_domains.size()) - 1))];
        break;
      case FaultKind::kFreezeHost:
      case FaultKind::kCrashHost:
        e.host = params.hosts[static_cast<std::size_t>(uniform(
            0, static_cast<std::int64_t>(params.hosts.size()) - 1))];
        break;
    }
    plan.events.push_back(std::move(e));
  }
  return plan;
}

// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(sim::Simulator& simulator, Network& network)
    : sim_(simulator), network_(network) {
  add_counters(sim_.metrics(), "fault_", MetricLabels{"", "fault"},
               [this] { return &stats_; }, metric_ids_);
}

FaultInjector::~FaultInjector() {
  for (MetricId id : metric_ids_) sim_.metrics().remove(id);
}

void FaultInjector::schedule(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.events) {
    SimTime at = std::max(spec.at, sim_.now());
    sim_.schedule_at(at, [this, spec] { inject(spec); });
  }
}

void FaultInjector::inject(const FaultSpec& spec) {
  std::uint64_t token = next_token_++;
  begin(spec, token);
  if (spec.duration > 0 && spec.kind != FaultKind::kNatReboot) {
    sim_.schedule(spec.duration, [this, spec, token] { end(spec, token); });
  }
}

void FaultInjector::trace_fault(const char* event,
                                const FaultSpec& spec) const {
  // Faults are never sampled away: a handful of records per scenario,
  // and any post-mortem starts from them.
  if (!sim_.trace().enabled(TraceClass::kFault)) return;
  sim_.trace().event(sim_.now(), "fault", "", event,
                     {{"kind", to_string(spec.kind)},
                      {"spec", spec.describe()},
                      {"dur_s", to_seconds(spec.duration)}});
}

void FaultInjector::begin(const FaultSpec& spec, std::uint64_t token) {
  ++stats_.faults_begun;
  trace_fault("fault.begin", spec);

  switch (spec.kind) {
    case FaultKind::kNatReboot:
      if (NatBox* nat = network_.nat_of_domain(spec.domain)) {
        nat->flush_mappings();
      }
      return;  // instantaneous: never an active window
    case FaultKind::kCrashHost:
      if (crash_handler_) crash_handler_(spec.host, /*down=*/true);
      break;
    default:
      break;
  }
  active_.push_back(ActiveWindow{spec, token});
  recompute();
}

void FaultInjector::end(const FaultSpec& spec, std::uint64_t token) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [token](const ActiveWindow& w) {
                           return w.token == token;
                         });
  if (it != active_.end()) active_.erase(it);
  recompute();
  ++stats_.faults_healed;
  if (spec.kind == FaultKind::kCrashHost && crash_handler_) {
    crash_handler_(spec.host, /*down=*/false);
  }
  trace_fault("fault.end", spec);
}

void FaultInjector::recompute() {
  partitions_.clear();
  down_links_.clear();
  isolated_domains_.clear();
  blocked_hosts_.clear();
  storm_extra_latency_ = 0;
  storm_extra_loss_ = 0.0;
  dup_rate_ = 0.0;
  reorder_rate_ = 0.0;
  reorder_max_ = 0;
  corrupt_rate_ = 0.0;

  // Independent overlapping windows compose: probabilities combine as
  // 1-(1-a)(1-b), latencies add, reorder magnitude takes the max.
  auto combine = [](double acc, double p) {
    return 1.0 - (1.0 - acc) * (1.0 - p);
  };
  for (const ActiveWindow& w : active_) {
    const FaultSpec& s = w.spec;
    switch (s.kind) {
      case FaultKind::kPartition:
        partitions_.emplace_back(s.sites.begin(), s.sites.end());
        break;
      case FaultKind::kLinkFlap:
        if (s.sites.size() >= 2) {
          down_links_.insert(ordered_pair(s.sites[0], s.sites[1]));
        }
        break;
      case FaultKind::kStorm:
        storm_extra_latency_ += s.magnitude;
        storm_extra_loss_ = combine(storm_extra_loss_, s.rate);
        break;
      case FaultKind::kDuplicate:
        dup_rate_ = combine(dup_rate_, s.rate);
        break;
      case FaultKind::kReorder:
        reorder_rate_ = combine(reorder_rate_, s.rate);
        reorder_max_ = std::max(reorder_max_, s.magnitude);
        break;
      case FaultKind::kCorrupt:
        corrupt_rate_ = combine(corrupt_rate_, s.rate);
        break;
      case FaultKind::kIsolateDomain:
        isolated_domains_.insert(s.domain);
        break;
      case FaultKind::kFreezeHost:
        blocked_hosts_.insert(s.host);
        break;
      case FaultKind::kCrashHost:
        // With a handler the crash is a process kill (node stopped);
        // without one it degrades to a network-level freeze.
        if (!crash_handler_) blocked_hosts_.insert(s.host);
        break;
      case FaultKind::kNatReboot:
        break;  // never in active_
    }
  }
}

bool FaultInjector::partitioned(SiteId a, SiteId b) const {
  if (partitions_.empty() || a == b) return false;
  for (const auto& group : partitions_) {
    if ((group.count(a) != 0) != (group.count(b) != 0)) return true;
  }
  return false;
}

bool FaultInjector::roll_duplicate() {
  if (dup_rate_ <= 0.0) return false;
  if (!sim_.rng().bernoulli(dup_rate_)) return false;
  ++stats_.duplicated;
  return true;
}

SimDuration FaultInjector::roll_reorder_delay() {
  if (reorder_rate_ <= 0.0) return 0;
  if (!sim_.rng().bernoulli(reorder_rate_)) return 0;
  ++stats_.reordered;
  return sim_.rng().jitter(std::max<SimDuration>(reorder_max_, 1));
}

FaultInjector::CorruptAction FaultInjector::roll_corruption() {
  if (corrupt_rate_ <= 0.0) return CorruptAction::kNone;
  if (!sim_.rng().bernoulli(corrupt_rate_)) return CorruptAction::kNone;
  if (sim_.rng().bernoulli(kChecksumCatch)) {
    ++stats_.corrupted_dropped;
    return CorruptAction::kDrop;
  }
  ++stats_.corrupted_delivered;
  return CorruptAction::kDeliverCorrupted;
}

void FaultInjector::corrupt(SharedBytes& frame) {
  if (frame.empty()) return;
  std::uint8_t* data = frame.mutable_data();
  auto bits = static_cast<std::int64_t>(frame.size()) * 8;
  std::int64_t flips = sim_.rng().uniform(1, 4);
  for (std::int64_t i = 0; i < flips; ++i) {
    std::int64_t bit = sim_.rng().uniform(0, bits - 1);
    data[bit >> 3] ^= static_cast<std::uint8_t>(1u << (bit & 7));
  }
}

}  // namespace wow::net
