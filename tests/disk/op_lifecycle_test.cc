// The lifecycle of a disk op from Submit to its completion callback, on the
// two paths where the op's record is most exposed:
//
//  * a completion callback that re-enters Submit on the same disk -- the
//    RAID 5 read-modify-write pattern, where the join of the pre-reads
//    issues the writes -- including the double dispatch that re-entry
//    triggers today when more ops are queued (see ROADMAP);
//  * Fail() with ops both queued and in flight.
//
// Every callback must fire exactly once, with the timings pinned below.
// Each callback owns a heap allocation and reads it back after its own
// re-entrant Submits: a record recycled while its callback is still running
// would have had those captures destroyed and overwritten (ASan reports the
// former, the value check the latter).

#include "disk/disk_model.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "disk/disk_spec.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

struct Fired {
  int id = 0;
  bool ok = false;
  SimTime submitted = 0;
  SimTime service_start = 0;
  SimTime finish = 0;

  bool operator==(const Fired&) const = default;
};

void PrintTo(const Fired& f, std::ostream* os) {
  *os << "{" << f.id << ", " << (f.ok ? "true" : "false") << ", " << f.submitted
      << ", " << f.service_start << ", " << f.finish << "}";
}

// Issues scripted ops against one disk. Op `id` runs `steps[id].op`; when
// it completes, its callback logs the result and then submits every op
// listed in `steps[id].then` from inside the callback.
class Script {
 public:
  struct Step {
    DiskOp op;
    std::vector<int> then;
  };

  explicit Script(std::vector<Step> steps)
      : steps_(std::move(steps)),
        disk_(&sim_, DiskMechanics::Compile(DiskSpec::HpC3325Like()), 0),
        fire_count_(steps_.size(), 0) {}

  void Issue(int id) {
    disk_.Submit(steps_[static_cast<size_t>(id)].op,
                 [this, id, owned = std::make_unique<int>(id)](const DiskOpResult& r) {
                   const int me = id;
                   ++fire_count_[static_cast<size_t>(me)];
                   log_.push_back(Fired{me, r.ok, r.submitted, r.service_start, r.finish});
                   for (const int next : steps_[static_cast<size_t>(me)].then) {
                     Issue(next);
                   }
                   EXPECT_EQ(*owned, me) << "record reused while its callback ran";
                 });
  }

  Simulator& sim() { return sim_; }
  DiskModel& disk() { return disk_; }
  const std::vector<Fired>& log() const { return log_; }

  // Every scripted op fired exactly once.
  void ExpectEachFiredOnce() const {
    for (size_t i = 0; i < fire_count_.size(); ++i) {
      EXPECT_EQ(fire_count_[i], 1) << "op " << i;
    }
  }

 private:
  std::vector<Step> steps_;
  Simulator sim_;
  DiskModel disk_;
  std::vector<int> fire_count_;
  std::vector<Fired> log_;
};

// Read-modify-write on one disk: each read's completion issues its write
// from inside the callback. Op 0's re-entry finds two reads queued, so the
// re-entrant Submit starts op 1 and the trailing dispatch starts op 2 while
// op 1 is still in service; op 5 re-enters an idle disk.
TEST(DiskOpLifecycle, ReentrantSubmitOnSameDisk) {
  Script s({
      {DiskOp{5000, 16, false}, {3}},      // 0: old data; issues its write.
      {DiskOp{2'000'000, 32, false}, {}},  // 1
      {DiskOp{100, 8, false}, {4}},        // 2: old parity; issues its write.
      {DiskOp{5000, 16, true}, {}},        // 3
      {DiskOp{100, 8, true}, {}},          // 4
      {DiskOp{3'500'000, 16, false}, {6}},  // 5: submitted to an idle disk.
      {DiskOp{3'500'000, 16, true}, {}},   // 6
  });
  s.Issue(0);
  s.Issue(1);
  s.Issue(2);
  s.sim().RunToEnd();
  s.sim().After(Seconds(1), [&s] { s.Issue(5); });
  s.sim().RunToEnd();

  const std::vector<Fired> want = {
      {0, true, 0, 0, 7671958},
      {2, true, 0, 7671958, 20634920},
      {1, true, 0, 7671958, 23456790},
      {3, true, 7671958, 20634920, 29894180},
      {4, true, 20634920, 20634920, 31746031},
      {5, true, 1031746031, 1031746031, 1060740730},
      {6, true, 1060740730, 1060740730, 1071851841},
  };
  EXPECT_EQ(s.log(), want);
  s.ExpectEachFiredOnce();
  EXPECT_TRUE(s.disk().Idle());
}

// Fail() while op 0 is in service and ops 1-2 are queued: the queued ops
// fail at the failure time, the in-flight op at its scheduled finish. Op 0's
// callback re-enters Submit on the failed disk, which fails at submit time.
// After Replace() the disk serves again.
TEST(DiskOpLifecycle, FailWithQueuedAndInFlightOps) {
  Script s({
      {DiskOp{3'000'000, 64, false}, {3}},  // 0: in flight at Fail().
      {DiskOp{10, 8, false}, {}},           // 1: queued.
      {DiskOp{1'000'000, 8, true}, {}},     // 2: queued.
      {DiskOp{20, 8, true}, {}},            // 3: re-entrant, disk failed.
      {DiskOp{4000, 8, false}, {}},         // 4: after Replace().
  });
  s.Issue(0);
  s.Issue(1);
  s.Issue(2);
  s.sim().After(Milliseconds(1), [&s] { s.disk().Fail(); });
  s.sim().RunToEnd();
  s.disk().Replace();
  s.Issue(4);
  s.sim().RunToEnd();

  const std::vector<Fired> want = {
      {1, false, 0, 1000000, 1000000},
      {2, false, 0, 1000000, 1000000},
      {0, false, 0, 0, 27983539},
      {3, false, 27983539, 27983539, 27983539},
      {4, true, 27983539, 27983539, 38712521},
  };
  EXPECT_EQ(s.log(), want);
  s.ExpectEachFiredOnce();
  EXPECT_EQ(s.disk().OpsCompleted(), 1u);
}

// Fail() while the double dispatch has two ops in service and one queued:
// both in-flight ops complete at their own finish times with ok=false.
TEST(DiskOpLifecycle, FailDuringDoubleDispatch) {
  Script s({
      {DiskOp{5000, 16, false}, {3}},      // 0
      {DiskOp{2'000'000, 32, false}, {}},  // 1: started by the re-entry.
      {DiskOp{4'000'000, 64, false}, {}},  // 2: started by the trailing dispatch.
      {DiskOp{5000, 16, true}, {}},        // 3: queued at Fail().
  });
  s.Issue(0);
  s.Issue(1);
  s.Issue(2);
  // Op 0 finishes at 7.7 ms and starts ops 1 and 2 together; fail at 14 ms,
  // before either of them finishes.
  s.sim().RunUntil(Milliseconds(14));
  s.disk().Fail();
  s.sim().RunToEnd();

  const std::vector<Fired> want = {
      {0, true, 0, 0, 7671958},
      {3, false, 7671958, 14000000, 14000000},
      {1, false, 0, 7671958, 23456790},
      {2, false, 0, 7671958, 31358024},
  };
  EXPECT_EQ(s.log(), want);
  s.ExpectEachFiredOnce();
}

}  // namespace
}  // namespace afraid
