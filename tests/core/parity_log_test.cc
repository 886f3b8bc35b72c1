// The parity-logging comparison baseline [Stodolsky93] (Section 2).

#include "core/parity_log_controller.h"

#include <gtest/gtest.h>

#include <memory>

#include "array/host_driver.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

ArrayConfig TinyConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  return cfg;
}

ParityLogConfig TinyLog() {
  ParityLogConfig lc;
  lc.nvram_buffer_bytes = 16 * 1024;
  lc.log_region_bytes = 64 * 1024;
  lc.replay_batch_stripes = 4;
  return lc;
}

class PlRig : public ::testing::Test {
 protected:
  void Build(ParityLogConfig lc = TinyLog()) {
    ctl_ = std::make_unique<ParityLogController>(&sim_, TinyConfig(), lc);
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), 5);
  }

  Simulator sim_;
  std::unique_ptr<ParityLogController> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_F(PlRig, SmallWriteCostsTwoDataIos) {
  Build();
  driver_->Submit(0, 8192, true);
  sim_.RunToEnd();
  // Read old data + write new data; the image stays in NVRAM (no flush yet).
  EXPECT_EQ(ctl_->TotalDiskOps(), 2u);
  EXPECT_EQ(ctl_->LogFlushes(), 0u);
  EXPECT_EQ(ctl_->PendingImagesBytes(), 8192);
}

TEST_F(PlRig, CapacityExcludesLogRegion) {
  Build();
  // 2 MiB disks minus 64 KB log region, 4/5 data fraction.
  EXPECT_EQ(ctl_->DataCapacityBytes(),
            ((2 * 1024 * 1024 - 64 * 1024) / 8192) * 4 * 8192);
}

TEST_F(PlRig, BufferFillTriggersSequentialFlush) {
  Build();
  for (int i = 0; i < 3; ++i) {  // 3 x 8 KB images > 16 KB buffer.
    driver_->Submit(i * 4 * 8192, 8192, true);
    sim_.RunToEnd();
  }
  EXPECT_GE(ctl_->LogFlushes(), 1u);
  EXPECT_EQ(ctl_->LogReplays(), 0u);
}

TEST_F(PlRig, LogFillTriggersReplayAndReclaims) {
  Build();
  // 64 KB log = 8 x 8 KB images; write enough to overflow it.
  for (int i = 0; i < 12; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
    sim_.RunToEnd();
  }
  EXPECT_GE(ctl_->LogReplays(), 1u);
  EXPECT_FALSE(ctl_->ReplayInProgress());
  EXPECT_LT(ctl_->PendingImagesBytes(), 64 * 1024);
}

TEST_F(PlRig, WritesHardStallWhenLogOutpacesReplay) {
  Build();
  // A dense burst produces images faster than replay batches reclaim them:
  // the log hits hard-full and writes stall until space frees up.
  for (int i = 0; i < 24; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
  }
  sim_.RunToEnd();
  EXPECT_GE(ctl_->LogReplays(), 1u);
  EXPECT_GT(ctl_->HardStalls(), 0u);
  EXPECT_EQ(driver_->Completed(), 24u);  // Everything eventually lands.
  EXPECT_FALSE(ctl_->ReplayInProgress());
}

TEST_F(PlRig, ReadsAreSingleIos) {
  Build();
  driver_->Submit(0, 8192, false);
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->TotalDiskOps(), 1u);
}

TEST_F(PlRig, AlwaysFullyRedundant) {
  Build();
  for (int i = 0; i < 20; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
  }
  sim_.RunToEnd();
  EXPECT_DOUBLE_EQ(ctl_->TUnprotFraction(), 0.0);
  EXPECT_DOUBLE_EQ(ctl_->MeanParityLagBytes(), 0.0);
}

// The Section 2 comparison. For a *lone* small write, parity logging and
// RAID 5 have the same latency (both are a coupled read-then-write on the
// data disk; RAID 5's extra parity pair runs in parallel) while AFRAID
// "avoids a pre-read of the old data in the critical path ... and thus
// saves a complete disk revolution". Under a *burst*, RAID 5's doubled I/O
// count congests the disks and parity logging pulls ahead of it too.
TEST(ParityLogComparison, SmallWriteLatencyAndBurstOrdering) {
  const ArrayConfig cfg = TinyConfig();
  // A production-sized log: no replay within this test (the replay
  // pathology is covered by WritesStallBehindReplay above).
  ParityLogConfig roomy;
  roomy.nvram_buffer_bytes = 64 * 1024;
  roomy.log_region_bytes = 512 * 1024;
  auto run_pl = [&](int writes) {
    Simulator sim;
    ParityLogController ctl(&sim, cfg, roomy);
    HostDriver driver(&sim, &ctl, 5);
    Rng rng(3);
    for (int i = 0; i < writes; ++i) {
      driver.Submit(rng.UniformInt(0, 50) * 4 * 8192, 8192, true);
    }
    sim.RunToEnd();
    return driver.AllLatencies().Mean();
  };
  auto run_std = [&](const PolicySpec& spec, int writes) {
    Simulator sim;
    AfraidController ctl(&sim, cfg, MakePolicy(spec), AvailabilityParamsFor(cfg));
    HostDriver driver(&sim, &ctl, 5);
    Rng rng(3);
    for (int i = 0; i < writes; ++i) {
      driver.Submit(rng.UniformInt(0, 50) * 4 * 8192, 8192, true);
    }
    while (!driver.Drained()) {
      sim.Step();
    }
    return driver.AllLatencies().Mean();
  };
  // Lone write: AFRAID strictly fastest; parity logging == RAID 5.
  const double pl1 = run_pl(1);
  const double af1 = run_std(PolicySpec::AfraidBaseline(), 1);
  const double r51 = run_std(PolicySpec::Raid5(), 1);
  EXPECT_LT(af1, pl1);
  EXPECT_NEAR(pl1, r51, 2.0);
  // Burst of 40: AFRAID < parity logging < RAID 5.
  const double pl40 = run_pl(40);
  const double af40 = run_std(PolicySpec::AfraidBaseline(), 40);
  const double r540 = run_std(PolicySpec::Raid5(), 40);
  EXPECT_LT(af40, pl40);
  EXPECT_LT(pl40, r540);
}

}  // namespace
}  // namespace afraid
