// Per-stripe reader/writer locks for parity consistency.
//
// The paper: "Multiple writes to the same stripe were allowed to proceed in
// parallel, but would block if a parity-rebuild on that stripe was in
// progress." We generalise slightly: any operation that *recomputes* parity
// (an AFRAID background rebuild, or a RAID 5 read-modify-write /
// reconstruct-write group) takes the stripe exclusively; plain AFRAID data
// writes take the stripe shared. Reads take no lock at all (they never touch
// parity).
//
// Grants are FIFO within a stripe to avoid starvation; everything is
// single-threaded simulation code, so "lock" here means deferred-callback
// admission control, not a mutex.
//
// Storage is pooled for the allocation-free request path: stripe states are
// recycled through a free list (keeping their waiter-queue capacity), the
// stripe -> state map is one open-addressed table (power-of-two capacity,
// multiplicative hash, linear probing, backward-shift erase) that grows
// only during warm-up, and Pump's to-run scratch is a reused stack.

#ifndef AFRAID_ARRAY_STRIPE_LOCK_H_
#define AFRAID_ARRAY_STRIPE_LOCK_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"

namespace afraid {

enum class LockMode { kShared, kExclusive };

class StripeLockTable {
 public:
  // Sized for the controllers' lock-grant continuations (request id, stripe,
  // segment span, join pointer).
  using Grant = SmallCallback<void(), 64>;

  StripeLockTable() : table_(16) {}

  // Requests the stripe in `mode`; `granted` runs immediately (re-entrantly)
  // if the lock is free, otherwise when predecessors release.
  void Acquire(int64_t stripe, LockMode mode, Grant granted);

  // Releases one previously granted hold (shared holds release once each).
  void Release(int64_t stripe, LockMode mode);

  // True if anyone holds or awaits the stripe (used by tests).
  bool Busy(int64_t stripe) const { return Find(stripe) != kNone; }

  // True if an exclusive hold is active on the stripe.
  bool HeldExclusive(int64_t stripe) const {
    const size_t i = Find(stripe);
    return i != kNone && table_[i].state->exclusive_held;
  }

  // The entry `stripe` probes first at a power-of-two `capacity` (the top
  // bits of a multiplicative hash, so stripes that share it at a capacity
  // share it at every smaller one), and the current capacity; tests use
  // them to build colliding stripes.
  static size_t HomeSlot(int64_t stripe, size_t capacity) {
    return (static_cast<uint64_t>(stripe) * 0x9e3779b97f4a7c15ull) >>
           (64 - std::countr_zero(capacity));
  }
  size_t capacity() const { return table_.size(); }

 private:
  static constexpr size_t kNone = ~size_t{0};

  struct Waiter {
    LockMode mode = LockMode::kShared;
    Grant granted;
  };
  struct State {
    int32_t shared_held = 0;
    bool exclusive_held = false;
    RingQueue<Waiter> waiters;
  };
  struct Entry {
    int64_t stripe = 0;
    State* state = nullptr;  // Null: the entry is empty.
  };

  // The entry holding `stripe`, or kNone.
  size_t Find(int64_t stripe) const;
  // Stores `e` in the first empty entry of its probe run; returns where.
  size_t Place(const Entry& e);
  // Empties entry `i`, moving later members of its probe run back.
  void Erase(size_t i);

  // Admits as many of entry `i`'s waiters as compatible; erases the entry
  // when idle.
  void Pump(size_t i);

  State* AcquireState();

  std::vector<std::unique_ptr<State>> state_storage_;
  std::vector<State*> state_free_;  // Recycled states keep waiter capacity.
  std::vector<Entry> table_;        // Power-of-two size, at most half full.
  size_t used_ = 0;
  // Reused grant scratch, used as a stack so re-entrant Pumps nest: each call
  // runs only the entries it pushed, then truncates back to its base.
  std::vector<Grant> pump_run_;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_STRIPE_LOCK_H_
