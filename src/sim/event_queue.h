#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/time.h"
#include "sim/event_fn.h"
#include "sim/timer_service.h"

namespace wow::sim {

/// The one cancellable timer queue: EventFn callbacks ordered by
/// (deadline, FIFO seq).  Both clocks hold one — sim::Simulator over
/// virtual time and transport::RealtimeEventLoop over the monotonic
/// clock — and each keeps its own notion of "now": the queue stores
/// deadlines and fires callbacks, nothing else.
///
/// An indexed 4-ary min-heap over a slot arena: each slot stores its
/// callback inline (EventFn small-buffer storage), so the steady state
/// pushes and fires events with zero heap allocation.  cancel() is
/// O(1): it disarms the slot and leaves the heap entry behind as a
/// tombstone, which is dropped the one time it surfaces at the top —
/// or earlier, when tombstones outnumber live events and the heap is
/// compacted in one O(n) pass.
///
/// Handles pack the slot (low 32 bits, offset by one so a valid handle
/// is never 0) and the slot's generation at push time (high 32 bits).
/// A stale handle — kept across its event firing and the slot's reuse —
/// is a no-op, not a cancel of an unrelated event.
///
/// The draining path (next_deadline, fire_next) is defined inline below
/// so a clock's run loop compiles into one tight loop.
class EventQueue {
 public:
  /// next_deadline() when no event is pending.  Never a live deadline.
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Queue `fn` to fire at `when`.  Takes the event by rvalue so a
  /// lambda converts straight into the queue slot with a single move of
  /// its (size-bounded) captures.
  TimerHandle push(SimTime when, EventFn&& fn);

  /// Cancel a pending event.  Cancelling an already-fired (or firing),
  /// cancelled or invalid handle is a no-op; returns whether something
  /// was cancelled.
  bool cancel(TimerHandle handle);

  /// Deadline of the earliest pending event, or kNever.  Drops the
  /// cancelled entries sitting on top of the heap on the way.
  [[nodiscard]] SimTime next_deadline();

  /// Fire the earliest event; next_deadline() must have just returned
  /// its deadline.  The caller sets its clock first.  The callback runs
  /// in place with its slot disarmed, so anything it pushes lands in
  /// other slots and a cancel() of its own handle returns false.
  void fire_next();

  [[nodiscard]] std::size_t live() const { return live_; }

  /// Cancelled-event tombstones still sitting in the heap (the O(1)
  /// cancel trade-off); queue memory is live + this.  Bounded:
  /// compaction runs once tombstones outnumber live events (and exceed a
  /// floor that keeps tiny queues from compacting constantly).
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Compaction floor: below this many tombstones the O(n) rebuild is
  /// not worth running regardless of the live/dead ratio.
  static constexpr std::size_t kCompactionFloor = 64;

  struct Slot {
    std::uint32_t generation;  // bumped on every (re)allocation
    std::uint32_t next_free;
    bool armed;  // callback pending (not fired/cancelled)
    EventFn fn;
  };

  /// Slots per arena chunk.  Chunked (rather than one growable vector)
  /// for two reasons: growing never relocates live slots (EventFn moves
  /// are indirect calls, and 100k-slot growth would do ~2n of them),
  /// and each chunk is small enough that the allocator recycles it from
  /// its ordinary bins — a fresh queue reuses warm pages instead of
  /// faulting in megabytes of zero pages.
  ///
  /// Chunks are raw uninitialized storage: slots are only ever born via
  /// the fresh-allocation path in push(), which writes every field
  /// (placement-new for fn), so default-constructing ~100 bytes per
  /// slot up front would be a second full pass over the arena for
  /// nothing.  Only slots below allocated_ are ever read.  The
  /// destructor walks the heap and resets the armed slots' callbacks;
  /// everything else has already been reset by fire/cancel.
  static constexpr std::uint32_t kChunkShift = 9;  // 512 slots (~48 KiB)
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;

  /// Heap entries carry the full sort key so sifting stays inside the
  /// contiguous heap array: comparisons during sift_up/sift_down never
  /// chase the slot index into the (much larger, cache-hostile) arena.
  /// The slot is only touched at push, pop, and fire.
  ///
  /// 16 bytes, deliberately: pop cost on a large queue is bound by cache
  /// misses walking the heap, so entry size is the constant that
  /// matters.  The FIFO tiebreak therefore uses a 32-bit sequence
  /// number; when it would wrap (every ~4.3 billion pushes) the heap is
  /// renumbered in one sort pass that preserves the (when, seq) total
  /// order exactly.
  struct HeapEntry {
    SimTime when = 0;
    std::uint32_t seq = 0;  // FIFO tiebreak: lower = pushed earlier
    std::uint32_t slot = 0;
  };

  /// Written branch-free on purpose: which of two pending events fires
  /// first is close to a coin flip, so a branchy compare mispredicts
  /// constantly inside the sift loops — the single biggest cost of an
  /// in-cache pop.  This form compiles to flag arithmetic + cmov.
  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    const bool lt = a.when < b.when;
    const bool eq = a.when == b.when;
    const bool sq = a.seq < b.seq;
    return lt | (eq & sq);
  }

  [[nodiscard]] Slot& slot_ref(std::uint32_t s) {
    return reinterpret_cast<Slot*>(
        chunks_[s >> kChunkShift].get())[s & kChunkMask];
  }

  // The heap is 4-ary: half the levels of a binary heap, so a pop's
  // sift_down touches half as many (usually cache-missing) rows of a
  // large queue at the cost of a couple extra in-cache comparisons per
  // level — a consistent win once the heap outgrows L2.  The pop path
  // is defined here, in the header, with the draining path below.
  void sift_up(std::size_t i) {
    HeapEntry moving = heap_[i];
    while (i > 0) {
      std::size_t parent = (i - 1) / 4;
      if (!before(moving, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = moving;
  }

  void pop_heap_top() {
    HeapEntry displaced = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    // Bottom-up extraction: walk the hole left by the root down to a leaf
    // by promoting the smallest child — no "is the displaced element
    // smaller?" test per level, because the displaced element (the
    // youngest leaf) nearly always belongs at the bottom anyway — then
    // drop it in and let sift_up fix the rare exception.
    std::size_t i = 0;
    for (;;) {
      std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        best = before(heap_[c], heap_[best]) ? c : best;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = displaced;
    sift_up(i);
  }

  void free_slot(std::uint32_t s) {
    Slot& slot = slot_ref(s);
    slot.next_free = free_head_;
    free_head_ = s;
  }

  /// Pop tombstones off the heap top until a live entry (or nothing)
  /// is left there.
  void drop_cancelled_top() {
    while (!heap_.empty()) {
      std::uint32_t s = heap_[0].slot;
      if (slot_ref(s).armed) return;
      // Each tombstone is popped exactly once, here: every reader of the
      // heap top goes through next_deadline(), the single drain point.
      pop_heap_top();
      free_slot(s);
      --tombstones_;
    }
  }

  void sift_down(std::size_t i);
  /// Reassign dense sequence numbers (ahead of 32-bit wrap) without
  /// disturbing the (when, seq) total order.
  void renumber_seqs();
  void compact();

  std::uint32_t next_seq_ = 1;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::uint32_t allocated_ = 0;  // slots ever handed out (high-water mark)
  std::vector<HeapEntry> heap_;  // min-heap ordered by (when, seq)
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;        // armed events
  std::size_t tombstones_ = 0;  // heap entries whose slot was cancelled
};

// --- the draining path, inline ------------------------------------------

inline SimTime EventQueue::next_deadline() {
  // With no tombstones outstanding every heap entry is armed, so the
  // common case skips the dependent (random-index, usually cache-cold)
  // slot load entirely.
  if (tombstones_ != 0) drop_cancelled_top();
  return heap_.empty() ? kNever : heap_[0].when;
}

inline void EventQueue::fire_next() {
  const std::uint32_t s = heap_[0].slot;
  Slot& slot = slot_ref(s);
  // The slot index comes off the heap in (when, seq) order — effectively
  // a random walk over the arena, so this line is usually cold.  Start
  // the fetch now and do the heap sift (a few hundred cycles of mostly
  // in-cache work) while it is in flight.
  __builtin_prefetch(&slot, 1);
  __builtin_prefetch(reinterpret_cast<const char*>(&slot) + 64, 1);
  pop_heap_top();
  // Also start fetching the NEXT event's slot: by the time the next
  // fire_next needs it — after this callback plus a whole heap pop — it
  // has had the full memory round-trip to arrive, so steady-state
  // draining pipelines the slot misses instead of serializing them.
  if (!heap_.empty()) __builtin_prefetch(&slot_ref(heap_[0].slot), 1);
  slot.armed = false;
  --live_;
  // The callback runs in place: chunked slot storage never relocates,
  // and `s` is not returned to the free list until afterwards, so
  // anything the callback pushes lands in other slots and a stale
  // cancel() of this slot sees armed == false.
  slot.fn();
  slot.fn.reset();
  free_slot(s);
}

}  // namespace wow::sim
