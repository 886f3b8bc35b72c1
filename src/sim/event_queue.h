// A cancellable min-heap event queue for discrete-event simulation.
//
// Events scheduled for the same instant fire in scheduling order (a strict
// FIFO tie-break on an insertion sequence number), which keeps simulations
// deterministic regardless of heap internals. The pop order is therefore a
// pure function of the Schedule/Cancel history -- heap arity and slab layout
// cannot change results.
//
// Internals: callbacks live in reusable slots in fixed-size chunks that never
// move; the heap itself is a 4-ary implicit heap of small POD entries (time,
// seq, slot, generation). EventIds embed the slot index and a per-slot
// generation stamp, so Cancel() is a bounds check plus a generation compare
// -- O(1), no hashing -- and a stale id (already fired, already cancelled, or
// recycled) simply fails the compare. Cancellation is lazy: the dead heap
// entry is skimmed when it reaches the top. A callback (EventCallback:
// small-buffer, move-only) is built in its slot and runs there, never moved
// and, for ordinary captures, never heap-allocated.

#ifndef AFRAID_SIM_EVENT_QUEUE_H_
#define AFRAID_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace afraid {

// Opaque handle identifying a scheduled event: generation stamp in the high
// 32 bits, slot index in the low 32. Zero is never a valid id (generation
// stamps start at 1).
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = EventCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when`, constructing it in its
  // slot. Returns a handle usable with Cancel(). `when` may be in the past
  // relative to other queued events; ordering is purely by (time, insertion
  // sequence).
  template <typename F>
  EventId Schedule(SimTime when, F&& fn) {
    const uint32_t s = AcquireSlot();
    Slot& slot = SlotAt(s);
    slot.fn.Emplace(std::forward<F>(fn));
    Push(when, next_seq_++, s, slot.gen);
    ++live_;
    return (static_cast<uint64_t>(slot.gen) << 32) | s;
  }

  // Cancels a pending event. Returns true if the event was pending (and is
  // now cancelled), false if it already fired, was already cancelled, or the
  // id is invalid.
  bool Cancel(EventId id);

  // True if no live (non-cancelled) events remain.
  bool Empty() const { return live_ == 0; }

  // Number of live events.
  size_t Size() const { return live_; }

  // Time of the earliest live event; kSimTimeNever when empty. Logically
  // const: it may skim dead heap entries, which never changes the sequence
  // of events observed.
  SimTime NextTime() const;

  // Fires the earliest live event. It leaves the queue first: its id stops
  // matching (a callback cancelling itself gets false), and an event it
  // schedules at its own instant runs after the peers already queued there.
  // Then `*now` is set to its scheduled time and its callback runs in its
  // slot, which is recycled only after the callback returns.
  // Precondition: !Empty().
  void FireNext(SimTime* now);

  // Drops every pending event, destroying its callback, and invalidates all
  // outstanding EventIds (their slots' generations are bumped, so a
  // post-Clear Cancel of a pre-Clear id fails). The queue is immediately
  // reusable; slot storage is retained for reuse.
  void Clear();

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;
  // Chunks, not a std::deque<Slot>: deque indexing cost 10% of the
  // reconstruction sweep's throughput (DESIGN section 9).
  static constexpr uint32_t kChunkBits = 8;  // 256 slots, 16 KiB, per chunk.
  static constexpr uint32_t kChunkSlots = 1u << kChunkBits;

  // Callback storage, reused across events. `gen` must match the heap
  // entry's stamp for the event to be live; it is bumped when the event
  // fires, is cancelled, or the queue is cleared.
  struct Slot {
    Callback fn;
    uint32_t gen = 1;
    uint32_t next_free = kNoSlot;
  };

  // One 4-ary-heap element. 24 bytes, trivially copyable: sifting moves
  // these, never the callbacks.
  struct HeapEntry {
    HeapEntry() {}  // Left unset: Push opens the hole and fills it once.
    SimTime time;
    uint64_t seq;   // Insertion order; the FIFO tie-break at equal times.
    uint32_t slot;
    uint32_t gen;
  };

  // The heap order (time, then insertion seq) packed into one signed 128-bit
  // key: a single-flag comparison the sift loops can turn into conditional
  // moves instead of data-dependent branches. Identical ordering to
  // lexicographic (time, seq) -- the high half compares signed times, and at
  // equal times the low half compares seqs as unsigned.
  using OrderKey = __int128;
  static OrderKey Key(SimTime time, uint64_t seq) {
    return (static_cast<OrderKey>(time) << 64) | static_cast<unsigned __int128>(seq);
  }
  static OrderKey Key(const HeapEntry& e) { return Key(e.time, e.seq); }

  Slot& SlotAt(uint32_t s) const {
    return chunks_[s >> kChunkBits][s & (kChunkSlots - 1)];
  }

  bool Live(const HeapEntry& e) const { return SlotAt(e.slot).gen == e.gen; }

  // Pops a free slot, adding a chunk when none is left.
  uint32_t AcquireSlot() {
    if (free_head_ == kNoSlot) {
      AddChunk();
    }
    const uint32_t s = free_head_;
    free_head_ = SlotAt(s).next_free;
    return s;
  }
  void AddChunk();

  // Bumps the slot's generation, invalidating its id; 0 is never valid.
  static void Invalidate(Slot& s) { s.gen = s.gen == UINT32_MAX ? 1 : s.gen + 1; }

  // Destroys the (invalidated) slot's callback and returns the slot to the
  // free list.
  void Recycle(uint32_t s);

  // Removes dead entries from the top of the heap.
  void SkimDead() const;

  // Hole insertion: the key is computed once, and the fields (scalars, not
  // an entry in memory to read back) are written once, at their final place.
  void Push(SimTime time, uint64_t seq, uint32_t slot, uint32_t gen);
  void SiftDown(size_t i) const;
  void PopRoot() const;  // Removes heap_[0], restoring the heap property.

  // Filters every dead entry out of the heap and Floyd-rebuilds it: O(n)
  // once, versus one O(log n) sift per dead entry skimmed at the top.
  // Triggered from Cancel() when dead entries outnumber live ones.
  void Compact() const;

  // Mutable so NextTime() can skim lazily-cancelled entries; skimming is
  // invisible to callers (it only discards entries that can never fire).
  mutable std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t free_head_ = kNoSlot;
  mutable size_t dead_ = 0;  // Stale entries still physically in the heap.
  size_t live_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace afraid

#endif  // AFRAID_SIM_EVENT_QUEUE_H_
