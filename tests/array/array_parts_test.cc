// Unit tests for the smaller array-substrate pieces: NVRAM bitmap, LRU
// caches, stripe locks, idle detector, content model.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "array/cache.h"
#include "array/content.h"
#include "array/idle_detector.h"
#include "array/nvram.h"
#include "array/stripe_lock.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

// --- NvramBitmap -------------------------------------------------------------

TEST(Nvram, MarkClearCount) {
  NvramBitmap nv(100);
  EXPECT_EQ(nv.DirtyCount(), 0);
  EXPECT_TRUE(nv.Mark(5));
  EXPECT_FALSE(nv.Mark(5));  // Re-marking is a no-op.
  EXPECT_TRUE(nv.Mark(17));
  EXPECT_EQ(nv.DirtyCount(), 2);
  EXPECT_TRUE(nv.IsDirty(5));
  EXPECT_FALSE(nv.IsDirty(6));
  EXPECT_TRUE(nv.Clear(5));
  EXPECT_FALSE(nv.Clear(5));
  EXPECT_EQ(nv.DirtyCount(), 1);
}

TEST(Nvram, NextDirtySweepsAscendingAndWraps) {
  NvramBitmap nv(100);
  nv.Mark(10);
  nv.Mark(50);
  nv.Mark(90);
  EXPECT_EQ(nv.NextDirty(0), 10);
  EXPECT_EQ(nv.NextDirty(11), 50);
  EXPECT_EQ(nv.NextDirty(91), 10);  // Wraps.
  EXPECT_EQ(nv.NextDirty(50), 50);  // Inclusive.
  nv.Clear(10);
  nv.Clear(50);
  nv.Clear(90);
  EXPECT_EQ(nv.NextDirty(0), -1);
}

TEST(Nvram, FailLosesAllKnowledge) {
  NvramBitmap nv(100);
  nv.Mark(1);
  nv.Mark(2);
  nv.Fail();
  EXPECT_TRUE(nv.failed());
  EXPECT_EQ(nv.DirtyCount(), 0);
  nv.Repair();
  EXPECT_FALSE(nv.failed());
}

TEST(Nvram, HardwareCostIsOneBitPerStripe) {
  // The paper: ~3 KB of NVRAM per GB of data for a 5-wide, 8 KB-unit array.
  const int64_t stripes_per_gb_of_data = (1LL << 30) / (4 * 8192);
  NvramBitmap nv(stripes_per_gb_of_data);
  EXPECT_EQ(nv.HardwareBits(), stripes_per_gb_of_data);
  EXPECT_NEAR(static_cast<double>(nv.HardwareBits()) / 8.0 / 1024.0, 4.0, 0.1);
}

// --- BlockLruCache -----------------------------------------------------------

TEST(Cache, HitAndMissAccounting) {
  BlockLruCache c(4 * 8192, 8192);
  EXPECT_EQ(c.Capacity(), 4);
  EXPECT_FALSE(c.Lookup(1));
  c.Insert(1);
  EXPECT_TRUE(c.Lookup(1));
  EXPECT_EQ(c.Hits(), 1u);
  EXPECT_EQ(c.Misses(), 1u);
}

TEST(Cache, EvictsLeastRecentlyUsed) {
  BlockLruCache c(3 * 8192, 8192);
  c.Insert(1);
  c.Insert(2);
  c.Insert(3);
  EXPECT_TRUE(c.Lookup(1));  // 1 becomes most recent; 2 is now LRU.
  c.Insert(4);               // Evicts 2.
  EXPECT_FALSE(c.Contains(2));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_TRUE(c.Contains(3));
  EXPECT_TRUE(c.Contains(4));
  EXPECT_EQ(c.Size(), 3);
}

TEST(Cache, InsertExistingRefreshesWithoutGrowth) {
  BlockLruCache c(2 * 8192, 8192);
  c.Insert(1);
  c.Insert(2);
  c.Insert(1);  // Refresh, not duplicate: now 2 is LRU.
  c.Insert(3);
  EXPECT_FALSE(c.Contains(2));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_EQ(c.Size(), 2);
}

TEST(Cache, InvalidateRemoves) {
  BlockLruCache c(2 * 8192, 8192);
  c.Insert(7);
  c.Invalidate(7);
  EXPECT_FALSE(c.Contains(7));
  c.Invalidate(7);  // Idempotent.
}

TEST(Cache, ZeroCapacityNeverStores) {
  BlockLruCache c(0, 8192);
  c.Insert(1);
  EXPECT_FALSE(c.Contains(1));
}

// --- StripeLockTable ---------------------------------------------------------

TEST(StripeLock, SharedHoldersCoexist) {
  StripeLockTable locks;
  int granted = 0;
  locks.Acquire(1, LockMode::kShared, [&] { ++granted; });
  locks.Acquire(1, LockMode::kShared, [&] { ++granted; });
  EXPECT_EQ(granted, 2);
  locks.Release(1, LockMode::kShared);
  locks.Release(1, LockMode::kShared);
  EXPECT_FALSE(locks.Busy(1));
}

TEST(StripeLock, ExclusiveWaitsForShared) {
  StripeLockTable locks;
  bool excl = false;
  locks.Acquire(1, LockMode::kShared, [] {});
  locks.Acquire(1, LockMode::kExclusive, [&] { excl = true; });
  EXPECT_FALSE(excl);
  locks.Release(1, LockMode::kShared);
  EXPECT_TRUE(excl);
  EXPECT_TRUE(locks.HeldExclusive(1));
  locks.Release(1, LockMode::kExclusive);
  EXPECT_FALSE(locks.Busy(1));
}

TEST(StripeLock, SharedWaitsBehindQueuedExclusive) {
  // FIFO fairness: a shared request arriving after a waiting exclusive must
  // not starve it.
  StripeLockTable locks;
  std::vector<int> order;
  locks.Acquire(1, LockMode::kShared, [&] { order.push_back(1); });
  locks.Acquire(1, LockMode::kExclusive, [&] { order.push_back(2); });
  locks.Acquire(1, LockMode::kShared, [&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1}));
  locks.Release(1, LockMode::kShared);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  locks.Release(1, LockMode::kExclusive);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  locks.Release(1, LockMode::kShared);
  EXPECT_FALSE(locks.Busy(1));
}

TEST(StripeLock, IndependentStripesDoNotInterfere) {
  StripeLockTable locks;
  bool a = false;
  bool b = false;
  locks.Acquire(1, LockMode::kExclusive, [&] { a = true; });
  locks.Acquire(2, LockMode::kExclusive, [&] { b = true; });
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
}

TEST(StripeLock, BatchedSharedAdmissionAfterExclusive) {
  StripeLockTable locks;
  int shared = 0;
  locks.Acquire(9, LockMode::kExclusive, [] {});
  locks.Acquire(9, LockMode::kShared, [&] { ++shared; });
  locks.Acquire(9, LockMode::kShared, [&] { ++shared; });
  EXPECT_EQ(shared, 0);
  locks.Release(9, LockMode::kExclusive);
  EXPECT_EQ(shared, 2);  // Both shared admitted together.
}

// A std::map model of the lock table's holders and waiters, granting in the
// same order: FIFO per stripe, compatible waiters admitted together after
// the state change, each admitted grant run (and its re-entrant releases
// served) in turn.
class LockModel {
 public:
  struct Hold {
    int64_t stripe;
    LockMode mode;
  };
  // Runs when a grant is delivered; may call Release re-entrantly.
  std::function<void(int, const Hold&)> on_grant;

  void Acquire(int id, const Hold& h) {
    Stripe& st = stripes_[h.stripe];
    const bool free_now = !st.exclusive && st.waiters.empty() &&
                          (h.mode == LockMode::kShared || st.shared == 0);
    if (!free_now) {
      st.waiters.push_back({id, h});
      return;
    }
    Take(&st, h.mode);
    on_grant(id, h);
  }

  void Release(const Hold& h) {
    Stripe& st = stripes_.at(h.stripe);
    if (h.mode == LockMode::kShared) {
      --st.shared;
    } else {
      st.exclusive = false;
    }
    std::vector<std::pair<int, Hold>> admitted;
    while (!st.waiters.empty()) {
      const LockMode mode = st.waiters.front().second.mode;
      if (st.exclusive || (mode == LockMode::kExclusive && st.shared > 0)) {
        break;
      }
      Take(&st, mode);
      admitted.push_back(st.waiters.front());
      st.waiters.pop_front();
      if (mode == LockMode::kExclusive) {
        break;
      }
    }
    if (st.shared == 0 && !st.exclusive && st.waiters.empty()) {
      stripes_.erase(h.stripe);
    }
    for (const auto& [id, w] : admitted) {
      on_grant(id, w);
    }
  }

  bool Busy(int64_t stripe) const { return stripes_.count(stripe) != 0; }
  bool HeldExclusive(int64_t stripe) const {
    auto it = stripes_.find(stripe);
    return it != stripes_.end() && it->second.exclusive;
  }

 private:
  struct Stripe {
    int shared = 0;
    bool exclusive = false;
    std::deque<std::pair<int, Hold>> waiters;
  };
  static void Take(Stripe* st, LockMode mode) {
    if (mode == LockMode::kShared) {
      ++st->shared;
    } else {
      st->exclusive = true;
    }
  }
  std::map<int64_t, Stripe> stripes_;
};

// Stripes that share one home slot at `capacity` entries, hence at every
// smaller capacity too.
std::vector<int64_t> CollidingStripes(size_t capacity, size_t count) {
  std::vector<int64_t> out;
  const size_t home = StripeLockTable::HomeSlot(0, capacity);
  for (int64_t s = 0; out.size() < count; ++s) {
    if (StripeLockTable::HomeSlot(s, capacity) == home) {
      out.push_back(s);
    }
  }
  return out;
}

TEST(StripeLock, ReleasingTheHeadOfAProbeRunKeepsTheRestFindable) {
  const std::vector<int64_t> run = CollidingStripes(1024, 4);
  StripeLockTable locks;
  for (const int64_t s : run) {
    locks.Acquire(s, LockMode::kExclusive, [] {});
  }
  locks.Release(run[0], LockMode::kExclusive);  // The run's head.
  EXPECT_FALSE(locks.Busy(run[0]));
  for (size_t i = 1; i < run.size(); ++i) {
    EXPECT_TRUE(locks.HeldExclusive(run[i])) << "stripe " << run[i];
  }
  locks.Release(run[2], LockMode::kExclusive);  // Mid-run.
  EXPECT_TRUE(locks.HeldExclusive(run[1]));
  EXPECT_TRUE(locks.HeldExclusive(run[3]));
  locks.Release(run[1], LockMode::kExclusive);
  locks.Release(run[3], LockMode::kExclusive);
  for (const int64_t s : run) {
    EXPECT_FALSE(locks.Busy(s));
  }
}

TEST(StripeLock, MatchesAMapModelUnderRandomTraffic) {
  // Half the stripes collide (one probe run at every capacity the table
  // reaches), half spread out; enough are held at once for the table to
  // grow several times. Every 5th grant releases its own hold from inside
  // the grant, re-entering Release and Pump.
  std::vector<int64_t> universe = CollidingStripes(1024, 48);
  for (int64_t s = 1'000'000; universe.size() < 96; s += 7919) {
    universe.push_back(s);
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    StripeLockTable locks;
    LockModel model;
    std::vector<int> table_log;
    std::vector<int> model_log;
    std::vector<LockModel::Hold> holds;  // Granted, not self-released.
    const auto self_releasing = [](int id) { return id % 5 == 0; };
    model.on_grant = [&](int id, const LockModel::Hold& h) {
      model_log.push_back(id);
      if (self_releasing(id)) {
        model.Release(h);
      } else {
        holds.push_back(h);
      }
    };
    int next_id = 0;
    size_t max_capacity = locks.capacity();
    for (int step = 0; step < 6000; ++step) {
      const bool acquire = holds.empty() || rng.Bernoulli(step < 3000 ? 0.6 : 0.4);
      if (acquire) {
        const int id = next_id++;
        const LockModel::Hold h{
            universe[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(universe.size()) - 1))],
            rng.Bernoulli(0.5) ? LockMode::kShared : LockMode::kExclusive};
        locks.Acquire(h.stripe, h.mode, [&, id, h] {
          table_log.push_back(id);
          if (self_releasing(id)) {
            locks.Release(h.stripe, h.mode);
          }
        });
        model.Acquire(id, h);
      } else {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(holds.size()) - 1));
        const LockModel::Hold h = holds[k];
        holds[k] = holds.back();
        holds.pop_back();
        locks.Release(h.stripe, h.mode);
        model.Release(h);
      }
      ASSERT_EQ(table_log, model_log) << "seed " << seed << " step " << step;
      for (const int64_t s : universe) {
        ASSERT_EQ(locks.Busy(s), model.Busy(s)) << "stripe " << s;
        ASSERT_EQ(locks.HeldExclusive(s), model.HeldExclusive(s)) << "stripe " << s;
      }
      max_capacity = std::max(max_capacity, locks.capacity());
    }
    EXPECT_GE(max_capacity, 64u);  // The table grew at least twice.
    while (!holds.empty()) {  // Drain: every stripe ends idle.
      const LockModel::Hold h = holds.back();
      holds.pop_back();
      locks.Release(h.stripe, h.mode);
      model.Release(h);
    }
    EXPECT_EQ(table_log, model_log);
    for (const int64_t s : universe) {
      EXPECT_FALSE(locks.Busy(s));
    }
  }
}

// --- IdleDetector ------------------------------------------------------------

TEST(IdleDetector, FiresAfterDelayFromStart) {
  Simulator sim;
  int fires = 0;
  IdleDetector det(&sim, Milliseconds(100), [&] { ++fires; });
  sim.RunUntil(Milliseconds(99));
  EXPECT_EQ(fires, 0);
  sim.RunUntil(Milliseconds(101));
  EXPECT_EQ(fires, 1);
}

TEST(IdleDetector, BusyCancelsAndIdleRearms) {
  Simulator sim;
  int fires = 0;
  IdleDetector det(&sim, Milliseconds(100), [&] { ++fires; });
  sim.RunUntil(Milliseconds(50));
  det.NoteBusy();
  sim.RunUntil(Milliseconds(300));
  EXPECT_EQ(fires, 0);  // Still busy: never fires.
  det.NoteIdle();
  sim.RunUntil(Milliseconds(399));
  EXPECT_EQ(fires, 0);
  sim.RunUntil(Milliseconds(401));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(det.Firings(), 1u);
}

TEST(IdleDetector, FiresOncePerIdlePeriod) {
  Simulator sim;
  int fires = 0;
  IdleDetector det(&sim, Milliseconds(100), [&] { ++fires; });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 1);  // Not repeatedly during one long idle period.
}

// --- ContentModel ------------------------------------------------------------

TEST(Content, FreshStripesAreConsistent) {
  ContentModel m(4, 1, 16);
  EXPECT_TRUE(m.StripeConsistent(0));
  EXPECT_TRUE(m.StripeConsistent(12345));
}

TEST(Content, ParityAlgebra) {
  ContentModel m(4, 1, 4);
  m.SetData(7, 0, 2, 0xAAAA);
  m.SetData(7, 3, 2, 0x5555);
  EXPECT_FALSE(m.StripeConsistent(7));
  m.SetParity(7, 2, m.XorOfData(7, 2));
  // Sectors 0, 1, 3 are all-zero data with zero parity -- consistent; sector
  // 2 was just fixed, so the whole stripe is now consistent.
  EXPECT_TRUE(m.StripeConsistent(7));
  EXPECT_EQ(m.GetParity(7, 2), 0xAAAAu ^ 0x5555u);
}

TEST(Content, ReconstructRecoversData) {
  ContentModel m(4, 1, 2);
  for (int32_t j = 0; j < 4; ++j) {
    m.SetData(3, j, 0, ContentModel::MixTag(42, j));
  }
  m.SetParity(3, 0, m.XorOfData(3, 0));
  for (int32_t j = 0; j < 4; ++j) {
    EXPECT_EQ(m.ReconstructData(3, j, 0), ContentModel::MixTag(42, j));
  }
}

TEST(Content, ReconstructWrongWhenParityStale) {
  ContentModel m(4, 1, 2);
  m.SetData(3, 0, 0, 111);
  m.SetParity(3, 0, m.XorOfData(3, 0));
  m.SetData(3, 0, 0, 222);  // Deferred parity: not refreshed.
  EXPECT_NE(m.ReconstructData(3, 0, 0), 222u);
  EXPECT_EQ(m.ReconstructData(3, 0, 0), 111u);  // Xor returns the stale view.
}

TEST(Content, MixTagNonZeroAndSpread) {
  Rng rng(1);
  int collisions = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t a = ContentModel::MixTag(rng.UniformInt(1, 1000),
                                            rng.UniformInt(0, 100000));
    EXPECT_NE(a, 0u);
    if (a == ContentModel::MixTag(rng.UniformInt(1, 1000),
                                  rng.UniformInt(0, 100000))) {
      ++collisions;
    }
  }
  EXPECT_LT(collisions, 3);
}

}  // namespace
}  // namespace afraid
