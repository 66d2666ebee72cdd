#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace wow::p2p {

/// Kind-byte → handler registry: the dispatch layer between the raw
/// datagram plane and the protocol services (Brunet's announce table).
///
/// Replaces the hand-rolled switch statements in the frame demux: a
/// service registers a handler for the kinds it owns, dispatch() routes
/// an inbound frame to it, and an unregistered kind simply reports
/// false so the caller can count a parse_reject and drop — an unknown
/// kind byte can never crash the node.
///
/// Kinds are dense small integers (FrameKind, RoutedType), so the table
/// is a flat vector indexed by kind.
template <typename... Args>
class HandlerRegistry {
 public:
  using Handler = std::function<void(Args...)>;

  /// `kinds` is the table size: valid kinds are [0, kinds).
  explicit HandlerRegistry(std::size_t kinds)
      : handlers_(kinds), kinds_(static_cast<std::uint32_t>(kinds)) {}

  /// Estimated object + heap bytes (bytes/node accounting; the
  /// handler functions themselves are small capturing lambdas within
  /// std::function's inline buffer).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + handlers_.capacity() * sizeof(Handler);
  }

  /// Register `handler` for `kind`.  Returns false — and changes
  /// nothing — when the kind is out of range or already registered:
  /// two services silently fighting over a frame kind is a wiring bug
  /// the composition root must surface, not resolve by last-wins.
  bool add(std::uint8_t kind, Handler handler) {
    if (kind >= kinds_ || handlers_[kind] || !handler) {
      return false;
    }
    handlers_[kind] = std::move(handler);
    ++registered_;
    return true;
  }

  /// Remove the handler for `kind`; false if none was registered.
  bool remove(std::uint8_t kind) {
    if (kind >= kinds_ || !handlers_[kind]) return false;
    handlers_[kind] = nullptr;
    --registered_;
    return true;
  }

  /// Route to the handler for `kind`.  Returns false when no handler is
  /// registered (unknown or unregistered kind) — the caller counts the
  /// reject and drops the frame.
  bool dispatch(std::uint8_t kind, Args... args) const {
    if (kind >= kinds_ || !handlers_[kind]) return false;
    handlers_[kind](std::forward<Args>(args)...);
    return true;
  }

  [[nodiscard]] bool contains(std::uint8_t kind) const {
    return kind < kinds_ && bool(handlers_[kind]);
  }
  [[nodiscard]] std::size_t size() const { return registered_; }

 private:
  std::vector<Handler> handlers_;
  /// handlers_.size(), kept apart: once add() or dispatch() is inlined
  /// at a call site with a constant out-of-range kind, GCC loses a
  /// bound read back through the vector and warns (-Warray-bounds) on
  /// the access the bound check already rules out.
  std::uint32_t kinds_;
  std::uint32_t registered_ = 0;
};

}  // namespace wow::p2p
