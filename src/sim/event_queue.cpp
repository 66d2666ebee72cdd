#include "sim/event_queue.h"

#include <utility>

namespace wow::sim {

EventQueue::~EventQueue() {
  // Chunks are raw storage, so no Slot destructor runs on its own.  The
  // only callables still alive are the armed ones, and the heap knows
  // exactly where they are.
  for (const HeapEntry& e : heap_) {
    Slot& slot = slot_ref(e.slot);
    if (slot.armed) slot.fn.reset();
  }
}

TimerHandle EventQueue::push(SimTime when, EventFn&& fn) {
  if (next_seq_ == 0xffffffffu) renumber_seqs();
  std::uint32_t s;
  if (free_head_ != kNil) {
    s = free_head_;
    Slot& slot = slot_ref(s);
    free_head_ = slot.next_free;
    ++slot.generation;
    slot.fn = std::move(fn);
  } else {
    if ((allocated_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          (kChunkMask + 1) * sizeof(Slot)));
    }
    s = allocated_++;
    // Birth of a slot: its chunk memory is uninitialized, so write
    // every field instead of reading any.
    Slot& slot = slot_ref(s);
    slot.generation = 1;
    slot.next_free = kNil;
    ::new (static_cast<void*>(&slot.fn)) EventFn(std::move(fn));
  }
  Slot& slot = slot_ref(s);
  slot.armed = true;
  ++live_;
  heap_.push_back(HeapEntry{when, next_seq_++, s});
  sift_up(heap_.size() - 1);
  return TimerHandle{(static_cast<std::uint64_t>(slot.generation) << 32) |
                     (s + 1)};
}

bool EventQueue::cancel(TimerHandle handle) {
  if (!handle.valid()) return false;
  std::uint32_t low = static_cast<std::uint32_t>(handle.id & 0xffffffffu);
  if (low == 0 || low > allocated_) return false;
  std::uint32_t s = low - 1;
  Slot& slot = slot_ref(s);
  if (!slot.armed ||
      slot.generation != static_cast<std::uint32_t>(handle.id >> 32)) {
    return false;
  }
  // O(1): disarm the slot and leave its heap entry behind as a tombstone.
  // The slot is recycled when the tombstone surfaces at the heap top (or
  // at the next compaction) — not before, since the heap still points at
  // it.
  slot.fn.reset();
  slot.armed = false;
  --live_;
  ++tombstones_;
  if (tombstones_ >= kCompactionFloor && tombstones_ > live_) compact();
  return true;
}

void EventQueue::sift_down(std::size_t i) {
  HeapEntry moving = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    // Conditional select, not an if: which child is smallest is
    // data-random, and a mispredict here costs more than the compare.
    for (std::size_t c = first + 1; c < last; ++c) {
      best = before(heap_[c], heap_[best]) ? c : best;
    }
    if (!before(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void EventQueue::renumber_seqs() {
  // Sorting by the current (when, seq) key and handing out dense fresh
  // seqs preserves the total order bit-for-bit; a sorted array is a
  // valid heap, so no rebuild is needed.  Runs once per ~4.3 billion
  // pushes.
  std::sort(heap_.begin(), heap_.end(),
            [](const HeapEntry& a, const HeapEntry& b) { return before(a, b); });
  std::uint32_t seq = 1;
  for (HeapEntry& e : heap_) e.seq = seq++;
  next_seq_ = seq;
}

void EventQueue::compact() {
  // One O(n) pass: keep only armed slots, recycle the dead ones, and
  // rebuild the heap bottom-up.  Ordering is unaffected — the (when, seq)
  // key is a total order, so any valid heap pops identically.
  std::size_t keep = 0;
  for (const HeapEntry& e : heap_) {
    if (slot_ref(e.slot).armed) {
      heap_[keep++] = e;
    } else {
      free_slot(e.slot);
    }
  }
  heap_.resize(keep);
  tombstones_ = 0;
  for (std::size_t i = keep / 2; i-- > 0;) sift_down(i);
}

}  // namespace wow::sim
