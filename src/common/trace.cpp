#include "common/trace.h"

#include <cinttypes>
#include <cmath>

namespace wow {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[40];
  // The range test keeps the cast defined (and sends NaN to %.17g).
  if (std::abs(v) < 9.2e18 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

namespace {

void append_record_head(std::string& out, SimTime now,
                        std::string_view component, std::string_view node,
                        std::string_view name, std::uint64_t span) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"t\":%.6f,\"ev\":", to_seconds(now));
  out += buf;
  append_escaped(out, name);
  out += ",\"c\":";
  append_escaped(out, component);
  if (!node.empty()) {
    out += ",\"node\":";
    append_escaped(out, node);
  }
  if (span != 0) {
    std::snprintf(buf, sizeof buf, ",\"span\":%" PRIu64, span);
    out += buf;
  }
}

}  // namespace

const char* to_string(TraceClass cls) {
  switch (cls) {
    case TraceClass::kPacket: return "packet";
    case TraceClass::kProtocol: return "protocol";
    case TraceClass::kLifecycle: return "lifecycle";
    case TraceClass::kFault: return "fault";
    case TraceClass::kOracle: return "oracle";
    case TraceClass::kCount: break;
  }
  return "unknown";
}

void TraceField::append_to(std::string& out) const {
  append_escaped(out, key_);
  out += ':';
  char buf[48];
  switch (kind_) {
    case Kind::kUint:
      std::snprintf(buf, sizeof buf, "%" PRIu64, u_);
      out += buf;
      break;
    case Kind::kInt:
      std::snprintf(buf, sizeof buf, "%" PRId64, i_);
      out += buf;
      break;
    case Kind::kDouble:
      std::snprintf(buf, sizeof buf, "%.6g", d_);
      out += buf;
      break;
    case Kind::kString:
      append_escaped(out, s_);
      break;
  }
}

void Tracer::event(SimTime now, std::string_view component,
                   std::string_view node, std::string_view name,
                   std::initializer_list<TraceField> fields,
                   std::uint64_t span) {
  if (sink_ == nullptr) return;
  std::string out;
  out.reserve(96);
  append_record_head(out, now, component, node, name, span);
  for (const TraceField& f : fields) {
    out += ',';
    f.append_to(out);
  }
  out += '}';
  sink_->line(out);
}

std::uint64_t Tracer::begin_span(SimTime now, std::string_view component,
                                 std::string_view node, std::string_view name,
                                 std::initializer_list<TraceField> fields) {
  if (!enabled(TraceClass::kProtocol)) return 0;
  std::uint64_t span = next_span_++;
  event(now, component, node, name, fields, span);
  return span;
}

void Tracer::end_span(SimTime now, std::string_view component,
                      std::string_view node, std::string_view name,
                      std::uint64_t span,
                      std::initializer_list<TraceField> fields) {
  if (!enabled(TraceClass::kProtocol) || span == 0) return;
  event(now, component, node, name, fields, span);
}

}  // namespace wow
