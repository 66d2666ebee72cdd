#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/addr.h"

namespace wow::transport {

/// Transport protocol selector inside a URI.  The paper's experiments use
/// UDP tunnelling; TCP is part of the URI design space (§IV-A).
enum class TransportKind : std::uint8_t { kUdp = 1, kTcp = 2 };

[[nodiscard]] const char* to_string(TransportKind kind);

/// A Brunet Uniform Resource Indicator naming one way to reach a node,
/// e.g. `brunet.udp://192.0.1.1:1024` (§IV-A).  A NATed node owns several
/// URIs at once: its private endpoint plus every NAT-assigned public
/// endpoint it has learnt; the linking protocol tries them in order.
struct Uri {
  TransportKind kind = TransportKind::kUdp;
  net::Endpoint endpoint;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Uri> parse(std::string_view text);

  constexpr auto operator<=>(const Uri&) const = default;
};

/// Fixed-capacity inline URI set — the flyweight storage form of "the
/// URIs a peer advertised" (megascale profile, DESIGN §14).
///
/// A peer advertises at most its primary endpoint plus the
/// p2p::EdgeFactory::kMaxLearntUris learnt public endpoints (asserted
/// in p2p/edge.h), so four inline slots hold every honest advertisement
/// with zero heap — versus 24 bytes of std::vector header plus an
/// allocation per connection.  The slots are stored structure-of-arrays
/// (ips / ports / kinds) so the four entries pack into 29 bytes instead
/// of 4 × 12-byte padded Uris; elements are materialized by value on
/// read.  Oversized (hostile/fuzzed) lists are truncated to the first
/// kCapacity entries; the linking protocol orders candidates
/// best-first, so the retained prefix is the useful one.  Wire
/// serialization keeps using std::vector — only long-lived
/// per-connection storage compacts.
class UriList {
 public:
  static constexpr std::size_t kCapacity = 4;

  UriList() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): storage form of the
  // wire vector; implicit both ways keeps call sites natural.
  UriList(const std::vector<Uri>& v) {
    for (const Uri& u : v) push_back(u);
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  [[nodiscard]] operator std::vector<Uri>() const {
    return {begin(), end()};
  }

  /// Append; silently drops past capacity (see class comment).
  void push_back(const Uri& u) {
    if (n_ == kCapacity) return;
    ips_[n_] = u.endpoint.ip.value();
    ports_[n_] = u.endpoint.port;
    kinds_[n_] = static_cast<std::uint8_t>(u.kind);
    ++n_;
  }
  void clear() { n_ = 0; }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] Uri operator[](std::size_t i) const {
    Uri u;
    u.kind = static_cast<TransportKind>(kinds_[i]);
    u.endpoint = net::Endpoint{net::Ipv4Addr{ips_[i]}, ports_[i]};
    return u;
  }

  /// Value-yielding iterator (the packed slots have no Uri lvalues to
  /// point at).  Input-category is enough for range-for and the
  /// vector conversion above.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Uri;
    using difference_type = std::ptrdiff_t;
    using pointer = const Uri*;
    using reference = Uri;

    const_iterator(const UriList* list, std::size_t i)
        : list_(list), i_(i) {}
    [[nodiscard]] Uri operator*() const { return (*list_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    [[nodiscard]] bool operator==(const const_iterator& o) const {
      return i_ == o.i_;
    }
    [[nodiscard]] bool operator!=(const const_iterator& o) const {
      return i_ != o.i_;
    }

   private:
    const UriList* list_;
    std::size_t i_;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, n_}; }

 private:
  std::uint32_t ips_[kCapacity] = {};
  std::uint16_t ports_[kCapacity] = {};
  std::uint8_t kinds_[kCapacity] = {};
  std::uint8_t n_ = 0;
};

/// Wire form of a URI: kind (1), IPv4 (4), port (2).  read_uri fails
/// the reader on an unknown transport kind.
void write_uri(ByteWriter& w, const Uri& uri);
[[nodiscard]] Uri read_uri(ByteReader& r);

/// A count byte, then that many URIs.
void write_uri_list(ByteWriter& w, const std::vector<Uri>& uris);
[[nodiscard]] std::vector<Uri> read_uri_list(ByteReader& r);

}  // namespace wow::transport
