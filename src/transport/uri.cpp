#include "transport/uri.h"

namespace wow::transport {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kUdp: return "brunet.udp";
    case TransportKind::kTcp: return "brunet.tcp";
  }
  return "?";
}

std::string Uri::to_string() const {
  return std::string(wow::transport::to_string(kind)) + "://" +
         endpoint.to_string();
}

std::optional<Uri> Uri::parse(std::string_view text) {
  constexpr std::string_view kSep = "://";
  auto sep = text.find(kSep);
  if (sep == std::string_view::npos) return std::nullopt;
  std::string_view scheme = text.substr(0, sep);
  std::string_view rest = text.substr(sep + kSep.size());

  TransportKind kind;
  if (scheme == "brunet.udp") {
    kind = TransportKind::kUdp;
  } else if (scheme == "brunet.tcp") {
    kind = TransportKind::kTcp;
  } else {
    return std::nullopt;
  }

  // Bracketed IPv6 literals ("[::1]:17001") are recognized and
  // DELIBERATELY rejected rather than mis-parsed: the overlay's wire
  // format carries endpoints as a u32 IPv4 address (write_uri), so an
  // IPv6 URI could be parsed but never advertised, linked, or routed.
  // Growing the wire format is the prerequisite, not the parser.
  if (!rest.empty() && rest.front() == '[') return std::nullopt;

  auto colon = rest.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  auto ip = net::Ipv4Addr::parse(rest.substr(0, colon));
  if (!ip) return std::nullopt;

  // Strict port: 1-65535, decimal, no leading zeros (":017001" is as
  // ambiguous as a leading-zero octet), no empty, no trailing junk.
  // Port 0 means "kernel, pick one" on a bind — it can never name a
  // peer, so a URI carrying it is garbage, not a wildcard.
  std::string_view port_text = rest.substr(colon + 1);
  if (port_text.empty() || port_text.size() > 5) return std::nullopt;
  if (port_text.size() > 1 && port_text.front() == '0') return std::nullopt;
  std::uint32_t port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (port == 0 || port > 65535) return std::nullopt;
  return Uri{kind, net::Endpoint{*ip, static_cast<std::uint16_t>(port)}};
}

void write_uri(ByteWriter& w, const Uri& uri) {
  w.u8(static_cast<std::uint8_t>(uri.kind));
  w.u32(uri.endpoint.ip.value());
  w.u16(uri.endpoint.port);
}

Uri read_uri(ByteReader& r) {
  Uri uri;
  uri.kind = static_cast<TransportKind>(r.u8());
  uri.endpoint.ip = net::Ipv4Addr{r.u32()};
  uri.endpoint.port = r.u16();
  if (uri.kind != TransportKind::kUdp && uri.kind != TransportKind::kTcp) {
    r.fail();
  }
  return uri;
}

void write_uri_list(ByteWriter& w, const std::vector<Uri>& uris) {
  w.u8(static_cast<std::uint8_t>(uris.size()));
  for (const Uri& u : uris) write_uri(w, u);
}

std::vector<Uri> read_uri_list(ByteReader& r) {
  const std::uint8_t count = r.u8();
  std::vector<Uri> out;
  out.reserve(count);
  for (int i = 0; i < count && r.ok(); ++i) out.push_back(read_uri(r));
  return out;
}

}  // namespace wow::transport
