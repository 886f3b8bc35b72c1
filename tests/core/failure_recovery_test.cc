// Failure injection and recovery: degraded reads/writes, the AFRAID loss
// mode (unprotected stripes on a single-disk failure), replacement-disk
// reconstruction, and recoverability invariants.

#include <gtest/gtest.h>

#include <memory>

#include "array/host_driver.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

ArrayConfig TinyConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  cfg.track_content = true;
  return cfg;
}

class FailRig : public ::testing::Test {
 protected:
  void Build(PolicySpec spec = PolicySpec::AfraidBaseline()) {
    ctl_ = std::make_unique<AfraidController>(&sim_, TinyConfig(), MakePolicy(spec),
                                              AvailabilityParamsFor(TinyConfig()));
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), 5);
  }

  // Writes one full block via request and returns its driver-assigned id.
  uint64_t WriteBlock(int64_t offset) {
    driver_->Submit(offset, 8192, true);
    sim_.RunToEnd();
    return driver_->Accepted();
  }

  void ExpectLogical(int64_t offset, int64_t len, uint64_t tag) {
    const auto vals = ctl_->ReadLogicalCurrent(offset, len);
    const int64_t first = offset / 512;
    for (size_t i = 0; i < vals.size(); ++i) {
      EXPECT_EQ(vals[i], ContentModel::MixTag(tag, first + static_cast<int64_t>(i)))
          << "sector " << i << " of block at " << offset;
    }
  }

  Simulator sim_;
  std::unique_ptr<AfraidController> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_F(FailRig, DegradedReadReconstructsRedundantData) {
  Build();
  const uint64_t tag = WriteBlock(0);  // Rebuilt to redundancy by idle task.
  ASSERT_TRUE(ctl_->content()->StripeConsistent(0));
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  ctl_->FailDisk(victim);
  driver_->Submit(0, 8192, false);
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), 2u);
  EXPECT_EQ(ctl_->LossEvents(), 0u);
  ExpectLogical(0, 8192, tag);  // Reconstruction returns the written data.
}

TEST_F(FailRig, DegradedReadOfUnprotectedStripeIsALoss) {
  Build(PolicySpec::Raid0());  // Parity never rebuilt: stripe stays exposed.
  WriteBlock(0);
  ASSERT_TRUE(ctl_->nvram().IsDirty(0));
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  ctl_->FailDisk(victim);
  driver_->Submit(0, 8192, false);
  sim_.RunToEnd();
  EXPECT_GT(ctl_->LossEvents(), 0u);
  EXPECT_GE(ctl_->BytesLost(), 8192);
  // And the reconstructed value is indeed NOT what was written.
  const auto vals = ctl_->ReadLogicalCurrent(0, 512);
  EXPECT_NE(vals[0], ContentModel::MixTag(1, 0));
}

TEST_F(FailRig, ParityDiskFailureLosesNothingEvenWhenDirty) {
  Build(PolicySpec::Raid0());
  WriteBlock(0);
  ASSERT_TRUE(ctl_->nvram().IsDirty(0));
  const int32_t parity_disk = ctl_->layout().ParityDisk(0);
  ctl_->FailDisk(parity_disk);
  driver_->Submit(0, 8192, false);  // Data disks alive: plain read.
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->LossEvents(), 0u);
  ExpectLogical(0, 8192, 1);
}

TEST_F(FailRig, DegradedWriteKeepsDataRetrievable) {
  Build();
  WriteBlock(0);
  const int32_t victim = ctl_->layout().DataDisk(0, 1);  // Block of offset 8192.
  ctl_->FailDisk(victim);
  // Write the block that lives on the dead disk: it must be stored via
  // parity (reconstruct-write) and read back correctly through xor.
  driver_->Submit(8192, 8192, true);
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), 2u);
  ExpectLogical(8192, 8192, 2);
}

TEST_F(FailRig, WritesDuringFailureRouteAroundDeadDisk) {
  Build();
  const int32_t victim = 2;
  ctl_->FailDisk(victim);
  for (int i = 0; i < 8; ++i) {
    driver_->Submit(i * 4 * 8192, 8192, true);
  }
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), 8u);
  for (int i = 0; i < 8; ++i) {
    ExpectLogical(static_cast<int64_t>(i) * 4 * 8192, 8192,
                  static_cast<uint64_t>(i) + 1);
  }
}

TEST_F(FailRig, FailureMidFlightRetriesDegraded) {
  Build();
  // Start a write, kill the target disk while it is in flight.
  driver_->Submit(0, 8192, true);
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  sim_.After(MicrosecondsF(700), [&] { ctl_->FailDisk(victim); });
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), 1u);
  ExpectLogical(0, 8192, 1);  // Readable via parity reconstruction.
}

TEST_F(FailRig, ReconstructionRestoresFullRedundancy) {
  Build();
  uint64_t tags[6];
  for (int i = 0; i < 6; ++i) {
    tags[i] = WriteBlock(i * 4 * 8192);
  }
  const int32_t victim = 1;
  ctl_->FailDisk(victim);
  ctl_->ReplaceDisk(victim);
  bool done = false;
  ctl_->StartReconstruction([&done] { done = true; });
  sim_.RunToEnd();
  ASSERT_TRUE(done);
  EXPECT_EQ(ctl_->State().recovering_disk, -1);
  EXPECT_EQ(ctl_->LossEvents(), 0u);  // Everything was redundant.
  for (int i = 0; i < 6; ++i) {
    ExpectLogical(static_cast<int64_t>(i) * 4 * 8192, 8192, tags[i]);
  }
  for (int64_t s : ctl_->content()->TouchedStripes()) {
    EXPECT_TRUE(ctl_->content()->StripeConsistent(s)) << "stripe " << s;
  }
}

TEST_F(FailRig, ReconstructionCountsDirtyStripeLosses) {
  Build(PolicySpec::Raid0());
  WriteBlock(0);  // Stripe 0 dirty forever under RAID 0 policy.
  ASSERT_TRUE(ctl_->nvram().IsDirty(0));
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  ctl_->FailDisk(victim);
  ctl_->ReplaceDisk(victim);
  bool done = false;
  ctl_->StartReconstruction([&done] { done = true; });
  sim_.RunToEnd();
  ASSERT_TRUE(done);
  EXPECT_EQ(ctl_->LossEvents(), 1u);
  EXPECT_EQ(ctl_->BytesLost(), 8192);
  // After reconstruction the stripe is consistent again (but with the
  // reconstructed-from-stale-parity value).
  EXPECT_TRUE(ctl_->content()->StripeConsistent(0));
  EXPECT_FALSE(ctl_->nvram().IsDirty(0));
}

TEST_F(FailRig, ClientIoContinuesDuringReconstruction) {
  Build();
  for (int i = 0; i < 4; ++i) {
    WriteBlock(i * 4 * 8192);
  }
  const int32_t victim = 3;
  ctl_->FailDisk(victim);
  ctl_->ReplaceDisk(victim);
  bool done = false;
  ctl_->StartReconstruction([&done] { done = true; });
  // Interleave client traffic with the sweep.
  driver_->Submit(200 * 4 * 8192, 8192, true);
  driver_->Submit(0, 8192, false);
  sim_.RunToEnd();
  EXPECT_TRUE(done);
  EXPECT_EQ(driver_->Completed(), 6u);
  ExpectLogical(200 * 4 * 8192, 8192, 5);
}

TEST_F(FailRig, NoRebuildsWhileDiskFailed) {
  Build();
  WriteBlock(0);
  ASSERT_EQ(ctl_->nvram().DirtyCount(), 0);  // Idle rebuild already ran.
  ctl_->FailDisk(0);
  driver_->Submit(50 * 4 * 8192, 8192, true);  // Degraded write path.
  sim_.RunToEnd();
  // Degraded writes keep parity synchronous, so nothing is dirty and no
  // background rebuild activity happened while degraded.
  EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kRebuildWrite), 1u);  // The first one.
}

}  // namespace
}  // namespace afraid
