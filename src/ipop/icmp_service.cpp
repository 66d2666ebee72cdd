#include "ipop/icmp_service.h"

namespace wow::ipop {

void IcmpService::ping(net::Ipv4Addr dst, std::uint16_t ident,
                       std::uint16_t seq, std::uint16_t padding) {
  IcmpEcho echo;
  echo.type = IcmpEcho::kEchoRequest;
  echo.ident = ident;
  echo.seq = seq;
  echo.timestamp = clock_.now();
  echo.padding = padding;

  Bytes body = echo.serialize();
  IpPacket packet;
  packet.dst = dst;
  packet.proto = IpProto::kIcmp;
  packet.payload = body;
  ++stats_.requests_sent;
  node_.send_ip(packet);
}

void IcmpService::on_packet(const IpPacket& packet) {
  auto echo = IcmpEcho::parse(packet.payload);
  if (!echo) return;
  if (echo->type == IcmpEcho::kEchoRequest) {
    IcmpEcho reply = *echo;
    reply.type = IcmpEcho::kEchoReply;
    Bytes body = reply.serialize();
    IpPacket out;
    out.dst = packet.src;
    out.proto = IpProto::kIcmp;
    out.payload = body;
    ++stats_.requests_answered;
    node_.send_ip(out);
    return;
  }
  ++stats_.replies_received;
  if (reply_handler_) {
    reply_handler_(packet.src, echo->ident, echo->seq,
                   clock_.now() - echo->timestamp);
  }
}

}  // namespace wow::ipop
