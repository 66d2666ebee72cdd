#pragma once

#include <cstdint>

/// One list per counter set.  A `Stats` struct names its counters once,
/// in an X-macro `LIST(X)` that calls `X(field)` for each counter, and
/// `WOW_COUNTERS(Self, LIST)` in the struct body expands that list into
///   - one `std::uint64_t field = 0;` member per entry, in list order;
///   - `static void for_each_counter(fn)`, which calls
///     `fn("field", &Self::field)` for each entry, in the same order.
/// Exporters (the registry's add_counters(), wowd's status JSON,
/// chaos_runner's adversary totals) walk the visitor instead of naming
/// fields, so a new counter is one line in its list.
/// Doc comments inside a list are `/* */`: a `//` comment would swallow
/// the line continuation.
#define WOW_COUNTERS(Self, LIST)          \
  LIST(WOW_COUNTER_FIELD_)                \
  using CounterSet = Self;                \
  template <class Fn>                     \
  static void for_each_counter(Fn&& fn) { \
    LIST(WOW_COUNTER_VISIT_)              \
  }

#define WOW_COUNTER_FIELD_(name) std::uint64_t name = 0;
#define WOW_COUNTER_VISIT_(name) fn(#name, &CounterSet::name);
