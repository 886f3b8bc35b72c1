// TraceReplayer: chained open-loop arrivals through HostDriver::Submit, and
// the pause/resume rebase faultsim's drills rely on.

#include "array/replayer.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace afraid {
namespace {

// Completes every request 1 ms after dispatch and records when each one
// arrived at the driver, in milliseconds.
class ArrivalLog : public ArrayController {
 public:
  explicit ArrivalLog(Simulator* sim) : sim_(sim) {}

  void Submit(const ClientRequest& request, RequestDone done) override {
    arrivals_ms.push_back(request.arrival / Milliseconds(1));
    sim_->After(Milliseconds(1), [done = std::move(done)]() mutable { done(); });
  }
  int64_t DataCapacityBytes() const override { return 1LL << 30; }

  std::vector<int64_t> arrivals_ms;

 private:
  Simulator* sim_;
};

std::vector<TraceRecord> RecordsAtMs(const std::vector<int64_t>& ms) {
  std::vector<TraceRecord> recs;
  for (size_t i = 0; i < ms.size(); ++i) {
    recs.push_back({Milliseconds(ms[i]), static_cast<int64_t>(i) * 4096, 4096,
                    i % 2 == 1});
  }
  return recs;
}

struct Rig {
  Simulator sim;
  ArrivalLog array{&sim};
  HostDriver driver{&sim, &array, /*max_active=*/0};
  TraceReplayer replayer{&sim, &driver};
};

TEST(TraceReplayer, SubmitsEachRecordAtItsTimeOrAtOnceWhenOverdue) {
  Rig rig;
  const std::vector<TraceRecord> first = RecordsAtMs({10, 20, 20});
  rig.replayer.Feed(first.data(), first.size());
  EXPECT_FALSE(rig.replayer.starved());
  rig.sim.RunToEnd();
  EXPECT_TRUE(rig.replayer.starved());

  // The next span starts in the past: its first record is overdue and
  // arrives at once, the rest on time.
  rig.sim.RunUntil(Milliseconds(100));
  const std::vector<TraceRecord> second = RecordsAtMs({50, 120});
  rig.replayer.Feed(second.data(), second.size());
  rig.sim.RunToEnd();

  EXPECT_EQ(rig.array.arrivals_ms, (std::vector<int64_t>{10, 20, 20, 100, 120}));
  EXPECT_EQ(rig.replayer.submitted(), 5u);
  EXPECT_EQ(rig.replayer.dropped(), 0u);
  EXPECT_EQ(rig.replayer.submitted_read_bytes(), 3 * 4096);
  EXPECT_EQ(rig.replayer.submitted_write_bytes(), 2 * 4096);
  EXPECT_TRUE(rig.driver.Drained());
}

// Two pause/resume cycles in one span: after each resume the next record
// keeps its gap from the last submitted record, measured from the resume
// instant, and the records behind it keep theirs.
TEST(TraceReplayer, ResumeKeepsGapFromLastSubmittedRecord) {
  Rig rig;
  const std::vector<TraceRecord> recs = RecordsAtMs({10, 30, 60, 100, 150});
  rig.replayer.Feed(recs.data(), recs.size());

  rig.sim.RunUntil(Milliseconds(35));  // 10 and 30 submitted.
  rig.replayer.Pause();
  rig.sim.RunUntil(Milliseconds(500));  // Nothing arrives while paused.
  EXPECT_EQ(rig.array.arrivals_ms, (std::vector<int64_t>{10, 30}));
  rig.replayer.Resume();  // 60 is due 30 ms after 30: at 530.

  rig.sim.RunUntil(Milliseconds(540));  // 60 submitted at 530.
  rig.replayer.Pause();
  rig.sim.RunUntil(Milliseconds(1000));
  rig.replayer.Resume();  // 100 is due 40 ms after 60: at 1040; 150 at 1090.
  rig.sim.RunToEnd();

  EXPECT_EQ(rig.array.arrivals_ms,
            (std::vector<int64_t>{10, 30, 530, 1040, 1090}));
  EXPECT_EQ(rig.replayer.submitted(), 5u);
  EXPECT_TRUE(rig.replayer.starved());
}

// Paused before any record of the span was submitted: the first record
// keeps its gap from the instant the span was fed.
TEST(TraceReplayer, ResumeKeepsGapFromFeedInstant) {
  Rig rig;
  rig.sim.RunUntil(Milliseconds(200));
  const std::vector<TraceRecord> recs = RecordsAtMs({250, 280});
  rig.replayer.Feed(recs.data(), recs.size());  // Fed at 200.
  rig.replayer.Pause();
  rig.sim.RunUntil(Milliseconds(1000));
  rig.replayer.Resume();  // 250 is due 50 ms after the feed: at 1050.
  rig.sim.RunToEnd();

  EXPECT_EQ(rig.array.arrivals_ms, (std::vector<int64_t>{1050, 1080}));
}

TEST(TraceReplayer, DestroyWhilePausedDropsTheRest) {
  Rig rig;
  const std::vector<TraceRecord> recs = RecordsAtMs({10, 30, 60, 100});
  rig.replayer.Feed(recs.data(), recs.size());
  rig.sim.RunUntil(Milliseconds(35));
  rig.replayer.Pause();
  rig.replayer.Destroy();
  EXPECT_TRUE(rig.replayer.destroyed());
  EXPECT_EQ(rig.replayer.submitted(), 2u);
  EXPECT_EQ(rig.replayer.dropped(), 2u);

  // Later spans are dropped whole; in-flight requests still complete.
  rig.replayer.Feed(recs.data(), recs.size());
  rig.sim.RunToEnd();
  EXPECT_EQ(rig.replayer.dropped(), 6u);
  EXPECT_EQ(rig.array.arrivals_ms, (std::vector<int64_t>{10, 30}));
  EXPECT_TRUE(rig.driver.Drained());
}

}  // namespace
}  // namespace afraid
