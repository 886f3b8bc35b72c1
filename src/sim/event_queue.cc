#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace afraid {

void EventQueue::AddChunk() {
  // The free list is empty here, so the new slots become the whole list, in
  // ascending order: slot numbers are handed out exactly as by a growing
  // array.
  const auto first = static_cast<uint32_t>(chunks_.size() * kChunkSlots);
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  Slot* chunk = chunks_.back().get();
  for (uint32_t i = 0; i + 1 < kChunkSlots; ++i) {
    chunk[i].next_free = first + i + 1;
  }
  free_head_ = first;
}

bool EventQueue::Cancel(EventId id) {
  const uint32_t s = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (gen == 0 || s >= chunks_.size() * kChunkSlots || SlotAt(s).gen != gen) {
    return false;  // Never scheduled, already fired/cancelled, or recycled.
  }
  // The heap entry goes stale (its stamp no longer matches) and is removed
  // lazily; the slot is immediately reusable because a recycled slot gets a
  // fresh generation.
  Invalidate(SlotAt(s));
  Recycle(s);
  --live_;
  // Under cancel-heavy churn the heap would otherwise fill with stale
  // entries, each costing a full sift when it reaches the top. Once they
  // outnumber live events, one linear compaction removes them all.
  if (++dead_ > live_ && heap_.size() >= 64) {
    Compact();
  }
  return true;
}

void EventQueue::Recycle(uint32_t s) {
  Slot& slot = SlotAt(s);
  slot.fn.Reset();
  slot.next_free = free_head_;
  free_head_ = s;
}

void EventQueue::SkimDead() const {
  while (!heap_.empty() && !Live(heap_.front())) {
    PopRoot();
    --dead_;
  }
}

SimTime EventQueue::NextTime() const {
  SkimDead();
  if (heap_.empty()) {
    return kSimTimeNever;
  }
  return heap_.front().time;
}

void EventQueue::FireNext(SimTime* now) {
  SkimDead();
  assert(!heap_.empty());
  const HeapEntry top = heap_.front();
  PopRoot();
  --live_;
  Slot& slot = SlotAt(top.slot);
  Invalidate(slot);
  *now = top.time;
  // Slots never move and this one is off the free list, so the callback may
  // schedule (and add chunks) freely while it runs.
  slot.fn();
  Recycle(top.slot);
}

void EventQueue::Clear() {
  // Release every live slot so outstanding ids stop matching and captured
  // state is destroyed now, not at queue destruction.
  for (const HeapEntry& e : heap_) {
    if (Live(e)) {
      Invalidate(SlotAt(e.slot));
      Recycle(e.slot);
    }
  }
  heap_.clear();
  dead_ = 0;
  live_ = 0;
}

void EventQueue::Push(SimTime time, uint64_t seq, uint32_t slot, uint32_t gen) {
  const OrderKey k = Key(time, seq);
  size_t i = heap_.size();
  heap_.emplace_back();  // The hole; HeapEntry's default constructor writes nothing.
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (k >= Key(heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  HeapEntry& hole = heap_[i];
  hole.time = time;
  hole.seq = seq;
  hole.slot = slot;
  hole.gen = gen;
}

void EventQueue::SiftDown(size_t i) const {
  const HeapEntry e = heap_[i];
  const size_t n = heap_.size();
  const OrderKey k = Key(e);
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    // Branchless best-of-children: child times are effectively random, so a
    // compare-and-branch here mispredicts constantly; conditional moves on
    // the packed key don't.
    size_t best = first_child;
    OrderKey bestk = Key(heap_[first_child]);
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      const OrderKey ck = Key(heap_[c]);
      const bool lt = ck < bestk;
      best = lt ? c : best;
      bestk = lt ? ck : bestk;
    }
    if (bestk >= k) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::PopRoot() const {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  const OrderKey lastk = Key(last);
  size_t i = 0;
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) {
      break;
    }
    size_t best = first_child;
    OrderKey bestk = Key(heap_[first_child]);
    const size_t end = std::min(first_child + 4, n);
    for (size_t c = first_child + 1; c < end; ++c) {
      const OrderKey ck = Key(heap_[c]);
      const bool lt = ck < bestk;
      best = lt ? c : best;
      bestk = lt ? ck : bestk;
    }
    if (bestk >= lastk) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::Compact() const {
  size_t out = 0;
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (Live(heap_[i])) {
      heap_[out++] = heap_[i];
    }
  }
  heap_.resize(out);
  dead_ = 0;
  if (out > 1) {
    for (size_t i = (out - 2) / 4 + 1; i-- > 0;) {
      SiftDown(i);
    }
  }
}

}  // namespace afraid
