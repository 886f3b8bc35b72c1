#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/random.h"

namespace afraid {
namespace {

// Fires the earliest event in place and returns its scheduled time.
SimTime Fire(EventQueue& q) {
  SimTime t = -1;
  q.FireNext(&t);
  return t;
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.NextTime(), kSimTimeNever);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(30, [&] { order.push_back(3); });
  q.Schedule(10, [&] { order.push_back(1); });
  q.Schedule(20, [&] { order.push_back(2); });
  while (!q.Empty()) {
    Fire(q);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    Fire(q);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, PopReturnsScheduledTime) {
  EventQueue q;
  q.Schedule(1234, [] {});
  EXPECT_EQ(q.NextTime(), 1234);
  EXPECT_EQ(Fire(q), 1234);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.Schedule(10, [&] { ++fired; });
  q.Schedule(20, [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.NextTime(), 20);
  while (!q.Empty()) {
    Fire(q);
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId a = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(a));
}

TEST(EventQueue, CancelFiredEventFails) {
  EventQueue q;
  const EventId a = q.Schedule(10, [] {});
  Fire(q);
  EXPECT_FALSE(q.Cancel(a));
}

TEST(EventQueue, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(999));
}

TEST(EventQueue, CancelHeadThenNextTimeSkips) {
  EventQueue q;
  const EventId a = q.Schedule(5, [] {});
  q.Schedule(10, [] {});
  q.Cancel(a);
  EXPECT_EQ(q.NextTime(), 10);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Clear();
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.NextTime(), kSimTimeNever);
}

TEST(EventQueue, MoveOnlyCaptureFires) {
  // std::function could not hold this callback at all; the slab queue's
  // SBO callback type must both store and fire a move-only capture.
  EventQueue q;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  q.Schedule(5, [owned = std::move(owned), &seen] { seen = *owned; });
  Fire(q);
  EXPECT_EQ(seen, 7);
}

TEST(EventQueue, MoveOnlyCaptureSurvivesCancelAndClear) {
  // Cancel/Clear must destroy move-only captures exactly once (ASan-checked).
  EventQueue q;
  auto shared = std::make_shared<int>(1);
  const EventId a = q.Schedule(5, [p = shared] { (void)p; });
  q.Schedule(6, [p = shared] { (void)p; });
  EXPECT_EQ(shared.use_count(), 3);
  EXPECT_TRUE(q.Cancel(a));
  EXPECT_EQ(shared.use_count(), 2);
  q.Clear();
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(EventQueue, LargeCaptureFallsBackToHeapBox) {
  EventQueue q;
  struct Big {
    uint64_t pad[16];  // 128 bytes: beyond any reasonable inline buffer.
  };
  Big big{};
  big.pad[15] = 99;
  uint64_t seen = 0;
  q.Schedule(1, [big, &seen] { seen = big.pad[15]; });
  Fire(q);
  EXPECT_EQ(seen, 99u);
}

TEST(EventQueue, CancelAfterFireOnRecycledSlotFails) {
  // After event A fires, its slab slot may be reused by event B. A's stale
  // id must fail the generation check rather than cancelling B.
  EventQueue q;
  const EventId a = q.Schedule(10, [] {});
  Fire(q);
  const EventId b = q.Schedule(20, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_TRUE(q.Cancel(b));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, ClearThenReschedule) {
  EventQueue q;
  const EventId old_id = q.Schedule(10, [] { FAIL() << "cleared event fired"; });
  q.Clear();
  // Old ids are invalidated even though their slots will be recycled.
  EXPECT_FALSE(q.Cancel(old_id));
  int fired = 0;
  q.Schedule(3, [&] { ++fired; });
  const EventId c = q.Schedule(1, [&] { ++fired; });
  EXPECT_EQ(q.Size(), 2u);
  EXPECT_EQ(q.NextTime(), 1);
  EXPECT_TRUE(q.Cancel(c));
  while (!q.Empty()) {
    Fire(q);
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SameInstantFifoSurvivesCancellations) {
  // FIFO among same-time survivors must hold even when earlier-scheduled
  // neighbours are cancelled around them.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(q.Schedule(7, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 32; i += 2) {
    q.Cancel(ids[static_cast<size_t>(i)]);
  }
  while (!q.Empty()) {
    Fire(q);
  }
  std::vector<int> expected;
  for (int i = 1; i < 32; i += 2) {
    expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, NextTimeIsConstCorrect) {
  EventQueue q;
  const EventId a = q.Schedule(5, [] {});
  q.Schedule(9, [] {});
  q.Cancel(a);
  const EventQueue& cq = q;  // NextTime must be callable on a const queue.
  EXPECT_EQ(cq.NextTime(), 9);
  EXPECT_EQ(cq.Size(), 1u);
}

TEST(EventQueue, IdsStayUniqueAcrossSlotReuse) {
  EventQueue q;
  std::vector<EventId> seen;
  for (int round = 0; round < 100; ++round) {
    const EventId id = q.Schedule(round, [] {});
    for (EventId prior : seen) {
      EXPECT_NE(id, prior);
    }
    seen.push_back(id);
    Fire(q);  // Frees the slot for reuse next round.
  }
}

// --- In-place firing ----------------------------------------------------------

TEST(EventQueue, CallbackOutlivesSlotGrowthItCauses) {
  // The callback runs in its slot. Scheduling thousands of events from
  // inside it adds slot chunks; its captures must stay where they are (ASan
  // reports a slot that moved or was recycled while it ran).
  EventQueue q;
  int seen = 0;
  q.Schedule(1, [&q, &seen, owned = std::make_unique<int>(41)] {
    for (int i = 0; i < 3000; ++i) {
      q.Schedule(2 + i, [] {});
    }
    seen = *owned + 1;
  });
  EXPECT_EQ(Fire(q), 1);
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(q.Size(), 3000u);
  while (!q.Empty()) {
    Fire(q);
  }
}

TEST(EventQueue, CallbackCancellingItselfGetsFalse) {
  EventQueue q;
  EventId self = kInvalidEventId;
  bool cancelled = true;
  self = q.Schedule(5, [&] { cancelled = q.Cancel(self); });
  Fire(q);
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, EventScheduledAtItsOwnInstantRunsAfterQueuedPeers) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(10, [&] {
    order.push_back(1);
    q.Schedule(10, [&] { order.push_back(4); });
  });
  q.Schedule(10, [&] { order.push_back(2); });
  q.Schedule(10, [&] { order.push_back(3); });
  while (!q.Empty()) {
    EXPECT_EQ(Fire(q), 10);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, FiredSlotIsReusedOnlyAfterItsCallbackReturns) {
  // The event scheduled from inside a callback draws a fresh slot; the
  // firing one rejoins the free list afterwards and is handed out next.
  EventQueue q;
  EventId inner = kInvalidEventId;
  const EventId outer = q.Schedule(1, [&] { inner = q.Schedule(2, [] {}); });
  Fire(q);
  EXPECT_NE(static_cast<uint32_t>(inner), static_cast<uint32_t>(outer));
  const EventId next = q.Schedule(3, [] {});
  EXPECT_EQ(static_cast<uint32_t>(next), static_cast<uint32_t>(outer));
}

// --- SmallCallback::Emplace and JoinPool -----------------------------------

TEST(SmallCallback, EmplaceDestroysTheReplacedCapturesOnce) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  SmallCallback<int(), 48> cb([p = first] { return *p; });
  EXPECT_EQ(first.use_count(), 2);
  cb.Emplace([p = second] { return *p; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
  EXPECT_EQ(cb(), 2);
  cb.Reset();
  EXPECT_EQ(second.use_count(), 1);
}

TEST(SmallCallback, EmplacingTheSameTypeMovesInsteadOfBoxing) {
  using Cb = SmallCallback<int(), 48>;
  auto owned = std::make_shared<int>(7);
  Cb src([p = owned] { return *p; });
  Cb dst;
  dst.Emplace(std::move(src));
  EXPECT_FALSE(src);  // Moved from, not wrapped: a box would leave it set.
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_EQ(dst(), 7);
  dst.Emplace(std::move(dst));  // Self-emplace keeps the callable.
  EXPECT_EQ(dst(), 7);
  EXPECT_EQ(owned.use_count(), 2);
}

TEST(JoinPool, DoneCallbackDrawsAndCompletesANewJoin) {
  // The done callback runs inside its block; the block is recycled only
  // after it returns, so a join drawn from inside is a different block and
  // may complete synchronously.
  JoinPool pool;
  std::vector<int> order;
  JoinBlock* inner = nullptr;
  JoinBlock* outer = pool.Make(2, [&, owned = std::make_unique<int>(5)](bool ok) {
    EXPECT_TRUE(ok);
    inner = pool.Make(1, [&](bool inner_ok) {
      EXPECT_FALSE(inner_ok);
      order.push_back(2);
    });
    inner->Dec(false);
    order.push_back(*owned);
  });
  outer->Dec(true);
  EXPECT_TRUE(order.empty());
  outer->Dec(true);
  EXPECT_EQ(order, (std::vector<int>{2, 5}));
  EXPECT_NE(inner, outer);
  // Both blocks are back in the pool; the next two draws reuse them.
  JoinBlock* a = pool.Make(1, [](bool) {});
  JoinBlock* b = pool.Make(1, [](bool) {});
  EXPECT_TRUE((a == inner && b == outer) || (a == outer && b == inner));
  a->Dec(true);
  b->Dec(true);
}

// Property: against a shadow model, random schedule/cancel/pop sequences
// always pop live events in (time, seq) order.
TEST(EventQueueProperty, RandomizedAgainstShadowModel) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    struct Shadow {
      SimTime time;
      EventId id;
      bool cancelled = false;
      std::shared_ptr<bool> fired = std::make_shared<bool>(false);
    };
    std::vector<Shadow> shadow;

    for (int step = 0; step < 2000; ++step) {
      const double roll = rng.UniformDouble(0, 1);
      if (roll < 0.55) {
        const SimTime t = rng.UniformInt(0, 1000);
        Shadow s;
        s.time = t;
        s.id = q.Schedule(t, [flag = s.fired] { *flag = true; });
        shadow.push_back(std::move(s));
      } else if (roll < 0.75 && !shadow.empty()) {
        auto& s = shadow[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1))];
        EXPECT_EQ(q.Cancel(s.id), !s.cancelled && !*s.fired);
        s.cancelled = true;
      } else if (!q.Empty()) {
        Fire(q);
      }
    }
    // Whatever is left must drain in non-decreasing time order.
    SimTime prev = -1;
    while (!q.Empty()) {
      const SimTime t = Fire(q);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
}

}  // namespace
}  // namespace afraid
