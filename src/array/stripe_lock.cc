#include "array/stripe_lock.h"

#include <utility>

namespace afraid {

StripeLockTable::State* StripeLockTable::AcquireState() {
  if (state_free_.empty()) {
    state_storage_.push_back(std::make_unique<State>());
    state_free_.push_back(state_storage_.back().get());
  }
  State* st = state_free_.back();
  state_free_.pop_back();
  assert(st->shared_held == 0 && !st->exclusive_held && st->waiters.empty());
  return st;
}

size_t StripeLockTable::Find(int64_t stripe) const {
  const size_t mask = table_.size() - 1;
  for (size_t i = HomeSlot(stripe, table_.size());; i = (i + 1) & mask) {
    if (table_[i].state == nullptr) {
      return kNone;
    }
    if (table_[i].stripe == stripe) {
      return i;
    }
  }
}

size_t StripeLockTable::Place(const Entry& e) {
  const size_t mask = table_.size() - 1;
  size_t i = HomeSlot(e.stripe, table_.size());
  while (table_[i].state != nullptr) {
    i = (i + 1) & mask;
  }
  table_[i] = e;
  return i;
}

void StripeLockTable::Erase(size_t i) {
  // Backward-shift deletion: walk the probe run after the hole and move back
  // every entry whose home does not lie after the hole (cyclically), so no
  // run has a gap and no tombstones are needed.
  const size_t mask = table_.size() - 1;
  for (size_t j = (i + 1) & mask; table_[j].state != nullptr; j = (j + 1) & mask) {
    const size_t home = HomeSlot(table_[j].stripe, table_.size());
    if (((j - home) & mask) >= ((j - i) & mask)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = Entry{};
  --used_;
}

void StripeLockTable::Acquire(int64_t stripe, LockMode mode, Grant granted) {
  size_t i = Find(stripe);
  if (i == kNone) {
    if (2 * ++used_ > table_.size()) {
      std::vector<Entry> old(2 * table_.size());
      old.swap(table_);
      for (const Entry& e : old) {
        if (e.state != nullptr) {
          Place(e);
        }
      }
    }
    i = Place(Entry{stripe, AcquireState()});
  }
  State& st = *table_[i].state;
  const bool free_for_shared =
      !st.exclusive_held && st.waiters.empty() && mode == LockMode::kShared;
  const bool free_for_exclusive = !st.exclusive_held && st.shared_held == 0 &&
                                  st.waiters.empty() && mode == LockMode::kExclusive;
  if (free_for_shared) {
    ++st.shared_held;
    granted();
    return;
  }
  if (free_for_exclusive) {
    st.exclusive_held = true;
    granted();
    return;
  }
  st.waiters.push_back(Waiter{mode, std::move(granted)});
}

void StripeLockTable::Release(int64_t stripe, LockMode mode) {
  const size_t i = Find(stripe);
  assert(i != kNone);
  State* st = table_[i].state;
  if (mode == LockMode::kShared) {
    assert(st->shared_held > 0);
    --st->shared_held;
  } else {
    assert(st->exclusive_held);
    st->exclusive_held = false;
  }
  Pump(i);
}

void StripeLockTable::Pump(size_t i) {
  // Collect the grants to run *after* mutating state: a grant callback may
  // re-enter Acquire/Release on this same stripe. The scratch vector is
  // shared across nested Pumps stack-wise, so steady state never allocates.
  State* st = table_[i].state;
  const size_t base = pump_run_.size();
  while (!st->waiters.empty()) {
    Waiter& w = st->waiters.front();
    if (w.mode == LockMode::kShared) {
      if (st->exclusive_held) {
        break;
      }
      ++st->shared_held;
      pump_run_.push_back(std::move(w.granted));
      st->waiters.pop_front();
    } else {
      if (st->exclusive_held || st->shared_held > 0) {
        break;
      }
      st->exclusive_held = true;
      pump_run_.push_back(std::move(w.granted));
      st->waiters.pop_front();
      break;  // Exclusive admits exactly one.
    }
  }
  if (st->shared_held == 0 && !st->exclusive_held && st->waiters.empty()) {
    Erase(i);
    state_free_.push_back(st);
  }
  const size_t admitted = pump_run_.size() - base;
  for (size_t k = 0; k < admitted; ++k) {
    // Move out before invoking: a re-entrant Pump may push into (and grow)
    // pump_run_ while this grant runs.
    Grant g = std::move(pump_run_[base + k]);
    g();
  }
  pump_run_.resize(base);
}

}  // namespace afraid
