#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace wow {

/// Append `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// newline, carriage return and tab by name, every other byte below 0x20
/// as \u00XX.  The one JSON string escaper (traces, metrics, wowd).
void append_escaped(std::string& out, std::string_view s);

/// Append `v` as a JSON number: integral values exactly, any other with
/// %.17g so it round-trips.  The one number writer for exports (metrics
/// reports and series, fleet snapshots).
void append_number(std::string& out, double v);

/// Receives one JSON record per trace event (no trailing newline).
/// Implementations must not call back into the simulation: the tracer is
/// a pure observer and attaching a sink may not perturb event order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void line(std::string_view json) = 0;
};

/// Appends JSONL records to a file.
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path)
      : file_(std::fopen(path.c_str(), "w")) {}
  ~FileTraceSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  void line(std::string_view json) override {
    if (file_ == nullptr) return;
    std::fwrite(json.data(), 1, json.size(), file_);
    std::fputc('\n', file_);
  }

 private:
  std::FILE* file_;
};

/// Buffers records in memory (tests, in-process analysis).
class StringTraceSink final : public TraceSink {
 public:
  void line(std::string_view json) override { lines_.emplace_back(json); }
  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }
  void clear() { lines_.clear(); }

 private:
  std::vector<std::string> lines_;
};

/// One key/value pair of a trace record.  Strings are JSON-escaped at
/// emission time; numbers are written verbatim.
class TraceField {
 public:
  TraceField(std::string_view key, std::uint64_t v)
      : key_(key), kind_(Kind::kUint), u_(v) {}
  TraceField(std::string_view key, std::int64_t v)
      : key_(key), kind_(Kind::kInt), i_(v) {}
  TraceField(std::string_view key, int v)
      : TraceField(key, static_cast<std::int64_t>(v)) {}
  TraceField(std::string_view key, unsigned v)
      : TraceField(key, static_cast<std::uint64_t>(v)) {}
  TraceField(std::string_view key, double v)
      : key_(key), kind_(Kind::kDouble), d_(v) {}
  TraceField(std::string_view key, std::string_view v)
      : key_(key), kind_(Kind::kString), s_(v) {}
  TraceField(std::string_view key, const char* v)
      : TraceField(key, std::string_view(v)) {}
  TraceField(std::string_view key, const std::string& v)
      : TraceField(key, std::string_view(v)) {}

  /// Append `"key":value` (no separators) to `out`.
  void append_to(std::string& out) const;

 private:
  enum class Kind { kUint, kInt, kDouble, kString };

  std::string_view key_;
  Kind kind_;
  std::uint64_t u_ = 0;
  std::int64_t i_ = 0;
  double d_ = 0.0;
  std::string_view s_;
};

/// Coarse event taxonomy for sampling and selective capture.  Every
/// trace call site belongs to exactly one class:
///   kPacket     per-datagram data-plane records (packet.*, net.drop,
///               conn.rtt) — the only class whose volume grows with
///               traffic, and the only one the sampling rate applies to
///   kProtocol   control-plane spans and events (link.*, ctm.*,
///               relay.*) — volume grows with node count and churn
///   kLifecycle  node/connection state transitions (node.*, conn.added,
///               conn.lost, quarantine.*, bootstrap.*) — always on
///   kFault      fault-fabric windows (fault.begin/end) — always on
///   kOracle     invariant-oracle verdicts — always on
enum class TraceClass : std::uint8_t {
  kPacket = 0,
  kProtocol,
  kLifecycle,
  kFault,
  kOracle,
  kCount,  // sentinel, keep last
};

[[nodiscard]] const char* to_string(TraceClass cls);

/// Structured event tracer: emits sim-timestamped JSONL records and
/// correlates related records through span ids.
///
/// Record schema (DESIGN.md "Observability"):
///   {"t":<sim seconds>,"ev":"<name>","c":"<component>","node":"<id>",
///    ["span":<id>,] <fields...>}
///
/// Disabled (no sink attached) the tracer is a null object: every call
/// reduces to one pointer test, and span ids come back 0.  Call sites
/// that build fields should guard on enabled() so formatting work is
/// skipped too.  Nothing here consults the RNG or schedules events, so
/// tracing can never perturb a deterministic run.
///
/// Sampling (DESIGN.md "Telemetry plane"): data-plane call sites guard
/// on sample(kPacket, key) instead of enabled().  The decision is a
/// pure function of (key, rate) — a splitmix64 hash of the key against
/// the configured rate — so which packets are captured is identical
/// across runs, machines and re-runs, and all records of one packet
/// (keyed by its trace id) are kept or dropped together.  At rate 1.0
/// the hash is never computed and the output is byte-identical to an
/// unsampled trace.  Suppressed records are counted
/// (dropped_by_sampling), exported by the simulator as the
/// trace_dropped_by_sampling counter.  Whole classes can be switched off
/// (set_class_enabled) for megascale runs that only need lifecycle +
/// fault forensics.  All of this is observer state: it can change what
/// is written, never what the simulation does.
class Tracer {
 public:
  /// Attach a sink (non-owning).  Pass nullptr to detach.
  void attach(TraceSink* sink) { sink_ = sink; }
  void detach() { sink_ = nullptr; }
  [[nodiscard]] bool enabled() const { return sink_ != nullptr; }

  /// Class-gated guard for non-packet call sites: true when a sink is
  /// attached and the class is enabled.
  [[nodiscard]] bool enabled(TraceClass cls) const {
    return sink_ != nullptr &&
           class_enabled_[static_cast<std::size_t>(cls)];
  }

  /// Sampled guard for data-plane call sites.  Returns enabled(cls)
  /// AND the deterministic per-key sampling verdict; a record refused
  /// only by the rate (sink attached, class on) is counted as dropped.
  [[nodiscard]] bool sample(TraceClass cls, std::uint64_t key) {
    if (!enabled(cls)) return false;
    if (sample_rate_ >= 1.0) return true;
    if (should_sample(key)) return true;
    ++dropped_by_sampling_;
    return false;
  }

  /// Fraction of sampleable records to keep, in [0, 1].  Applies only
  /// to call sites that guard with sample(); classed event() calls are
  /// unaffected.
  void set_sample_rate(double rate) {
    sample_rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  }
  [[nodiscard]] double sample_rate() const { return sample_rate_; }

  /// Selective capture: disable a whole class (observer output only).
  void set_class_enabled(TraceClass cls, bool on) {
    class_enabled_[static_cast<std::size_t>(cls)] = on;
  }

  /// Records suppressed by the sampling rate since construction.
  [[nodiscard]] std::uint64_t dropped_by_sampling() const {
    return dropped_by_sampling_;
  }

  /// Emit one event record.  `span` of 0 means "not part of a span".
  void event(SimTime now, std::string_view component, std::string_view node,
             std::string_view name,
             std::initializer_list<TraceField> fields = {},
             std::uint64_t span = 0);

  /// Open a span: emits the begin record and returns the correlation id
  /// (0 when disabled).  Later events and the end record quote the id.
  /// Spans are control-plane by construction and belong to kProtocol;
  /// disabling that class silences them.
  [[nodiscard]] std::uint64_t begin_span(
      SimTime now, std::string_view component, std::string_view node,
      std::string_view name, std::initializer_list<TraceField> fields = {});

  /// Close a span opened with begin_span.  A span id of 0 is ignored.
  void end_span(SimTime now, std::string_view component,
                std::string_view node, std::string_view name,
                std::uint64_t span,
                std::initializer_list<TraceField> fields = {});

  /// Monotonic id for packet-level tracing.  Consumed unconditionally by
  /// the data plane (it is one increment) so that enabling a trace sink
  /// cannot change any id and therefore any wire byte.
  [[nodiscard]] std::uint64_t next_trace_id() { return next_trace_id_++; }

 private:
  /// splitmix64(key) mapped to [0,1) compared against the rate: stable
  /// across platforms, no RNG state, uniform even for sequential keys.
  [[nodiscard]] bool should_sample(std::uint64_t key) const {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53 < sample_rate_;
  }

  TraceSink* sink_ = nullptr;
  double sample_rate_ = 1.0;
  bool class_enabled_[static_cast<std::size_t>(TraceClass::kCount)] = {
      true, true, true, true, true};
  std::uint64_t dropped_by_sampling_ = 0;
  /// Packet trace ids; unlike span ids these advance unconditionally so
  /// sink attachment never changes wire bytes.
  std::uint64_t next_trace_id_ = 1;
  /// Span ids live only in trace output; consuming them lazily (only
  /// while a sink is attached) cannot affect the simulation.
  std::uint64_t next_span_ = 1;
};

}  // namespace wow
