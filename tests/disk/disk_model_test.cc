#include "disk/disk_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "disk/geometry.h"
#include "disk/seek_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

TEST(SeekModel, ZeroDistanceIsFree) {
  SeekModel m(DiskSpec::HpC3325Like().seek);
  EXPECT_EQ(m.SeekTime(0), 0);
}

TEST(SeekModel, SingleCylinderCost) {
  SeekModel m(DiskSpec::HpC3325Like().seek);
  EXPECT_EQ(m.SeekTime(1), MillisecondsF(1.0));
  EXPECT_EQ(m.SeekTime(-1), m.SeekTime(1));
}

TEST(SeekModel, MonotoneNonDecreasing) {
  SeekModel m(DiskSpec::HpC3325Like().seek);
  SimDuration prev = 0;
  for (int64_t d = 0; d < 4315; d += 7) {
    const SimDuration t = m.SeekTime(d);
    EXPECT_GE(t, prev) << "at distance " << d;
    prev = t;
  }
}

TEST(SeekModel, ContinuousAtBoundary) {
  const SeekModelParams p = DiskSpec::HpC3325Like().seek;
  SeekModel m(p);
  const SimDuration before = m.SeekTime(p.boundary_cylinders - 1);
  const SimDuration after = m.SeekTime(p.boundary_cylinders);
  EXPECT_LT(std::abs(after - before), MillisecondsF(0.2));
}

TEST(SeekModel, FullStrokeUnder20ms) {
  SeekModel m(DiskSpec::HpC3325Like().seek);
  EXPECT_LT(m.SeekTime(4314), MillisecondsF(20.0));
  EXPECT_GT(m.SeekTime(4314), MillisecondsF(10.0));
}

// The lookup table must be indistinguishable from the analytic curve: exact
// equality at every representable distance, for both in-tree disk specs.
TEST(SeekModel, TableExactAtEveryDistance) {
  for (const DiskSpec& spec :
       {DiskSpec::HpC3325Like(), DiskSpec::TinyTestDisk()}) {
    const DiskGeometry geom(spec.zones, spec.heads, spec.sector_bytes);
    const int64_t max_distance = geom.TotalCylinders() - 1;
    SeekModel m(spec.seek);
    m.PrecomputeTable(static_cast<int32_t>(max_distance));
    ASSERT_EQ(m.TableSize(), max_distance + 1);
    for (int64_t d = 0; d <= max_distance; ++d) {
      ASSERT_EQ(m.SeekTime(d), m.AnalyticSeekTime(d))
          << spec.name << " at distance " << d;
      ASSERT_EQ(m.SeekTime(-d), m.AnalyticSeekTime(d))
          << spec.name << " at distance -" << d;
    }
    // Past the table: falls back to the analytic curve, still exact.
    EXPECT_EQ(m.SeekTime(max_distance + 5),
              m.AnalyticSeekTime(max_distance + 5));
  }
}

class DiskModelTest : public ::testing::Test {
 protected:
  DiskModelTest() : disk_(&sim_, DiskMechanics::Compile(DiskSpec::HpC3325Like()), 0) {}

  DiskOpResult RunOne(int64_t lba, int32_t sectors, bool is_write) {
    DiskOpResult out;
    disk_.Submit(DiskOp{lba, sectors, is_write},
                 [&out](const DiskOpResult& r) { out = r; });
    sim_.RunToEnd();
    return out;
  }

  Simulator sim_;
  DiskModel disk_;
};

TEST_F(DiskModelTest, SingleSectorReadTiming) {
  const DiskOpResult r = RunOne(1000, 1, /*is_write=*/false);
  EXPECT_TRUE(r.ok);
  const SimDuration total = r.breakdown.Total();
  // Overhead (0.5) + seek (0 cylinders -> 0... lba 1000 is cylinder 0) +
  // rotation (0..11.1ms) + one sector transfer (~0.088ms).
  EXPECT_GE(total, MillisecondsF(0.5));
  EXPECT_LE(total, MillisecondsF(0.5 + 11.2 + 0.1));
  EXPECT_EQ(r.breakdown.seek, 0);  // Same cylinder as the arm's start.
}

TEST_F(DiskModelTest, WriteAddsSettle) {
  // Use a 1-cylinder seek so the settle applies on a real seek.
  const DiskSpec spec = DiskSpec::HpC3325Like();
  const int64_t cyl_sectors = 126LL * 9;
  const DiskOpResult w = RunOne(cyl_sectors, 4, /*is_write=*/true);
  EXPECT_TRUE(w.ok);
  EXPECT_EQ(w.breakdown.seek, MillisecondsF(1.0) + spec.write_settle);
}

TEST_F(DiskModelTest, SequentialTransferApproachesMediaRate) {
  // 1 MB sequential read from sector 0: media rate in zone 0 is
  // 126 sectors per 11.111 ms rev = 5.8 MB/s.
  const int32_t sectors = 2048;  // 1 MiB.
  const DiskOpResult r = RunOne(0, sectors, /*is_write=*/false);
  EXPECT_TRUE(r.ok);
  const double secs = ToSeconds(r.finish - r.service_start);
  const double mbps = 1.0 / secs;
  EXPECT_GT(mbps, 4.0);
  EXPECT_LT(mbps, 6.0);
}

TEST_F(DiskModelTest, FcfsQueueing) {
  std::vector<int> completions;
  disk_.Submit(DiskOp{0, 8, false}, [&](const DiskOpResult&) {
    completions.push_back(1);
  });
  disk_.Submit(DiskOp{500000, 8, false}, [&](const DiskOpResult&) {
    completions.push_back(2);
  });
  disk_.Submit(DiskOp{100, 8, false}, [&](const DiskOpResult&) {
    completions.push_back(3);
  });
  sim_.RunToEnd();
  EXPECT_EQ(completions, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(disk_.OpsCompleted(), 3u);
}

TEST_F(DiskModelTest, BackToBackSameSectorCostsAboutOneRevolution) {
  // Read then write the same sector: the write must wait for the platter to
  // come around again -- the core of the RAID 5 small-update penalty.
  SimTime first_done = 0;
  SimTime second_done = 0;
  disk_.Submit(DiskOp{5000, 16, false},
               [&](const DiskOpResult& r) { first_done = r.finish; });
  disk_.Submit(DiskOp{5000, 16, true},
               [&](const DiskOpResult& r) { second_done = r.finish; });
  sim_.RunToEnd();
  const SimDuration gap = second_done - first_done;
  const SimDuration rev = DiskSpec::HpC3325Like().RevolutionTime();
  // Between 0.8 and 1.3 revolutions (overheads shift the exact phase).
  EXPECT_GT(gap, rev * 8 / 10);
  EXPECT_LT(gap, rev * 13 / 10);
}

TEST_F(DiskModelTest, TrackBoundaryCrossingDoesNotLoseARevolution) {
  // 126 + 10 sectors starting at sector 0: crosses one track boundary. With
  // skew, the post-switch realign should be far less than a revolution.
  const DiskOpResult r = RunOne(0, 136, /*is_write=*/false);
  const SimDuration rev = DiskSpec::HpC3325Like().RevolutionTime();
  // Pure media time is (136/126) revs; allow < 1.6 revs total after rotation.
  EXPECT_LT(r.breakdown.transfer, rev * 16 / 10);
}

TEST_F(DiskModelTest, UtilizationTracksBusyTime) {
  disk_.Submit(DiskOp{0, 64, false}, [](const DiskOpResult&) {});
  sim_.RunToEnd();
  const SimTime busy_end = sim_.Now();
  // Let it idle as long again: utilization should be ~50%.
  sim_.RunUntil(busy_end * 2);
  EXPECT_NEAR(disk_.UtilizationTo(sim_.Now()), 0.5, 0.01);
}

TEST_F(DiskModelTest, FailFailsInFlightAndQueued) {
  std::vector<bool> oks;
  disk_.Submit(DiskOp{0, 8, false}, [&](const DiskOpResult& r) { oks.push_back(r.ok); });
  disk_.Submit(DiskOp{90, 8, false}, [&](const DiskOpResult& r) { oks.push_back(r.ok); });
  sim_.After(MicrosecondsF(100), [&] { disk_.Fail(); });
  sim_.RunToEnd();
  ASSERT_EQ(oks.size(), 2u);
  EXPECT_FALSE(oks[0]);
  EXPECT_FALSE(oks[1]);
  EXPECT_TRUE(disk_.failed());
  EXPECT_EQ(disk_.OpsCompleted(), 0u);
}

TEST_F(DiskModelTest, SubmitAfterFailFailsImmediately) {
  disk_.Fail();
  bool ok = true;
  SimTime done_at = -1;
  disk_.Submit(DiskOp{0, 8, false}, [&](const DiskOpResult& r) {
    ok = r.ok;
    done_at = r.finish;
  });
  sim_.RunToEnd();
  EXPECT_FALSE(ok);
  EXPECT_EQ(done_at, 0);
}

TEST_F(DiskModelTest, ReplaceRestoresService) {
  disk_.Fail();
  sim_.RunToEnd();
  disk_.Replace();
  EXPECT_FALSE(disk_.failed());
  const DiskOpResult r = RunOne(0, 8, false);
  EXPECT_TRUE(r.ok);
}

TEST_F(DiskModelTest, ComputeServiceIsPure) {
  DiskOp op{123456, 16, false};
  int32_t end1 = 0;
  int32_t end2 = 0;
  const auto a = disk_.ComputeService(Milliseconds(5), op, 0, &end1);
  const auto b = disk_.ComputeService(Milliseconds(5), op, 0, &end2);
  EXPECT_EQ(a.Total(), b.Total());
  EXPECT_EQ(end1, end2);
}

TEST_F(DiskModelTest, SpinSynchronizedDisksShareAngularPosition) {
  // Two disks of the same spec at the same simulated time must compute the
  // same rotational delay for the same op (the paper assumes spin sync).
  DiskModel other(&sim_, DiskMechanics::Compile(DiskSpec::HpC3325Like()), 1);
  DiskOp op{777777, 8, false};
  int32_t end = 0;
  const auto a = disk_.ComputeService(Seconds(1), op, 10, &end);
  const auto b = other.ComputeService(Seconds(1), op, 10, &end);
  EXPECT_EQ(a.rotation, b.rotation);
}

TEST(DiskModelProperty, ServiceTimesWithinPhysicalBounds) {
  Simulator sim;
  DiskModel disk(&sim, DiskMechanics::Compile(DiskSpec::HpC3325Like()), 0);
  Rng rng(77);
  const SimDuration rev = DiskSpec::HpC3325Like().RevolutionTime();
  for (int i = 0; i < 3000; ++i) {
    DiskOp op;
    op.sectors = static_cast<int32_t>(rng.UniformInt(1, 64));
    op.lba = rng.UniformInt(0, disk.TotalSectors() - op.sectors);
    op.is_write = rng.Bernoulli(0.5);
    int32_t end = 0;
    const auto bd = disk.ComputeService(rng.UniformInt(0, Seconds(100)), op,
                                        static_cast<int32_t>(rng.UniformInt(0, 4314)),
                                        &end);
    EXPECT_GE(bd.seek, 0);
    EXPECT_GE(bd.rotation, 0);
    // Initial rotational latency is < 1 rev; a <=64-sector op crosses at
    // most one track boundary, whose skewed realign is a couple of ms.
    EXPECT_LE(bd.rotation, rev + MillisecondsF(2.5));
    EXPECT_GT(bd.transfer, 0);
    // A small op can never exceed overhead + max seek + settle + one rev +
    // transfer incl. a couple of switches.
    EXPECT_LT(bd.Total(), MillisecondsF(42.0));
  }
}

}  // namespace
}  // namespace afraid
