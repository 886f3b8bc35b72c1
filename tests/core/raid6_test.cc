// GF(256) algebra and the RAID 6 + AFRAID extension controller.

#include <gtest/gtest.h>

#include <memory>

#include "array/gf256.h"
#include "array/host_driver.h"
#include "core/raid6_controller.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

// --- GF(256) ------------------------------------------------------------------

TEST(Gf256, MulBasics) {
  EXPECT_EQ(Gf256::Mul(0, 77), 0);
  EXPECT_EQ(Gf256::Mul(1, 77), 77);
  EXPECT_EQ(Gf256::Mul(2, 0x80), 0x1d);  // The RAID 6 polynomial reduction.
}

TEST(Gf256, MulCommutativeAssociative) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const auto b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const auto c = static_cast<uint8_t>(rng.UniformInt(0, 255));
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
    EXPECT_EQ(Gf256::Mul(Gf256::Mul(a, b), c), Gf256::Mul(a, Gf256::Mul(b, c)));
    // Distributivity over xor (field addition).
    EXPECT_EQ(Gf256::Mul(a, b ^ c),
              static_cast<uint8_t>(Gf256::Mul(a, b) ^ Gf256::Mul(a, c)));
  }
}

TEST(Gf256, DivAndInvInvertMul) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const auto b = static_cast<uint8_t>(rng.UniformInt(1, 255));
    EXPECT_EQ(Gf256::Div(Gf256::Mul(a, b), b), a);
    EXPECT_EQ(Gf256::Mul(b, Gf256::Inv(b)), 1);
  }
}

TEST(Gf256, Pow2Cycle) {
  EXPECT_EQ(Gf256::Pow2(0), 1);
  EXPECT_EQ(Gf256::Pow2(1), 2);
  EXPECT_EQ(Gf256::Pow2(8), 0x1d);
  EXPECT_EQ(Gf256::Pow2(255), 1);  // Multiplicative order of g divides 255.
  // All powers g^0..g^254 are distinct (g is a generator).
  std::set<uint8_t> seen;
  for (int i = 0; i < 255; ++i) {
    EXPECT_TRUE(seen.insert(Gf256::Pow2(i)).second) << i;
  }
}

TEST(Gf256, MulWordIsLanewise) {
  const uint64_t w = 0x0102030405060708ULL;
  const uint64_t r = Gf256::MulWord(w, 3);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(r >> (8 * i)),
              Gf256::Mul(static_cast<uint8_t>(w >> (8 * i)), 3));
  }
}

// Two-erasure recovery algebra: from P and Q, any two lost data blocks are
// solvable. With D_a and D_b lost:
//   P' = xor of surviving data,  Q' = weighted xor of surviving data,
//   D_a = [ (Q ^ Q') ^ g^b (P ^ P') ] / (g^a ^ g^b),  D_b = (P ^ P') ^ D_a.
TEST(Gf256, TwoErasureRecovery) {
  Rng rng(7);
  constexpr int kN = 4;
  for (int trial = 0; trial < 500; ++trial) {
    uint8_t d[kN];
    for (auto& x : d) {
      x = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    uint8_t p = 0;
    uint8_t q = 0;
    for (int j = 0; j < kN; ++j) {
      p ^= d[j];
      q ^= Gf256::Mul(d[j], Gf256::Pow2(j));
    }
    const int a = static_cast<int>(rng.UniformInt(0, kN - 1));
    int b = static_cast<int>(rng.UniformInt(0, kN - 1));
    if (b == a) {
      b = (a + 1) % kN;
    }
    uint8_t p_surv = 0;
    uint8_t q_surv = 0;
    for (int j = 0; j < kN; ++j) {
      if (j != a && j != b) {
        p_surv ^= d[j];
        q_surv ^= Gf256::Mul(d[j], Gf256::Pow2(j));
      }
    }
    const uint8_t pd = p ^ p_surv;  // d[a] ^ d[b].
    const uint8_t qd = q ^ q_surv;  // g^a d[a] ^ g^b d[b].
    const uint8_t denom = Gf256::Pow2(a) ^ Gf256::Pow2(b);
    const uint8_t da = Gf256::Div(qd ^ Gf256::Mul(Gf256::Pow2(b), pd), denom);
    const uint8_t db = pd ^ da;
    EXPECT_EQ(da, d[a]);
    EXPECT_EQ(db, d[b]);
  }
}

// --- Raid6Controller ------------------------------------------------------------

ArrayConfig TinyConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 6;  // 4 data + P + Q.
  cfg.stripe_unit_bytes = 8192;
  cfg.track_content = true;
  return cfg;
}

class Raid6Rig : public ::testing::Test {
 protected:
  void Build(Raid6Mode mode) {
    ctl_ = std::make_unique<Raid6Controller>(&sim_, TinyConfig(), mode);
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), 6);
  }
  void Op(int64_t offset, int32_t size, bool is_write) {
    driver_->Submit(offset, size, is_write);
    sim_.RunToEnd();
  }

  Simulator sim_;
  std::unique_ptr<Raid6Controller> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_F(Raid6Rig, SynchronousSmallWriteCostsSixIos) {
  Build(Raid6Mode::kSynchronous);
  Op(0, 8192, true);
  // Old data + old P + old Q + data + P + Q.
  EXPECT_EQ(ctl_->TotalDiskOps(), 6u);
  EXPECT_EQ(ctl_->StaleP(), 0);
  EXPECT_EQ(ctl_->StaleQ(), 0);
  EXPECT_TRUE(ctl_->StripeFullyConsistent(0));
}

TEST_F(Raid6Rig, DeferQSmallWriteCostsFourIos) {
  Build(Raid6Mode::kDeferQ);
  driver_->Submit(0, 8192, true);
  while (!driver_->Drained()) {
    sim_.Step();
  }
  EXPECT_EQ(ctl_->TotalDiskOps(), 4u);  // Old data + old P + data + P.
  EXPECT_EQ(ctl_->StaleP(), 0);
  EXPECT_EQ(ctl_->StaleQ(), 1);  // Partial protection immediately.
  EXPECT_FALSE(ctl_->StripeFullyConsistent(0));
  sim_.RunToEnd();  // Idle rebuild refreshes Q.
  EXPECT_EQ(ctl_->StaleQ(), 0);
  EXPECT_TRUE(ctl_->StripeFullyConsistent(0));
}

TEST_F(Raid6Rig, DeferBothSmallWriteCostsOneIo) {
  Build(Raid6Mode::kDeferBoth);
  driver_->Submit(0, 8192, true);
  while (!driver_->Drained()) {
    sim_.Step();
  }
  EXPECT_EQ(ctl_->TotalDiskOps(), 1u);
  EXPECT_EQ(ctl_->StaleP(), 1);
  EXPECT_EQ(ctl_->StaleQ(), 1);
  sim_.RunToEnd();
  EXPECT_EQ(ctl_->StaleP(), 0);
  EXPECT_EQ(ctl_->StaleQ(), 0);
  EXPECT_TRUE(ctl_->StripeFullyConsistent(0));
  EXPECT_EQ(ctl_->StripesRebuilt(), 1u);
}

TEST_F(Raid6Rig, DiskFailureStopsDeferredParityPass) {
  // Stale P+Q on the first block of four stripes, then a forced refresh
  // pass that is still reading stripe 0 when one of its data disks dies.
  Build(Raid6Mode::kDeferBoth);
  constexpr int64_t kStripes = 4;
  const int64_t stripe_bytes = 4 * 8192;
  for (int64_t s = 0; s < kStripes; ++s) {
    driver_->Submit(s * stripe_bytes, 8192, true);
  }
  while (!driver_->Drained()) {
    sim_.Step();
  }
  ASSERT_EQ(ctl_->StaleP(), kStripes);
  bool drained = false;
  ctl_->RebuildAll([&drained] { drained = true; });
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  ASSERT_TRUE(ctl_->FailDisk(victim));
  sim_.RunToEnd();

  // The step that read the dead disk refreshed nothing, and the pass
  // stopped: no parity computed from a missing block is marked fresh.
  EXPECT_FALSE(drained);
  EXPECT_EQ(ctl_->StaleP(), kStripes);
  EXPECT_EQ(ctl_->StaleQ(), kStripes);
  EXPECT_EQ(ctl_->StripesRebuilt(), 0u);

  // Both parities were stale when the disk died, so the sweep bills every
  // stripe whose lost unit is a data block -- and then the drain completes.
  int64_t data_on_victim = 0;
  for (int64_t s = 0; s < kStripes; ++s) {
    for (int32_t j = 0; j < ctl_->layout().data_blocks_per_stripe(); ++j) {
      if (ctl_->layout().DataDisk(s, j) == victim) {
        ++data_on_victim;
      }
    }
  }
  ASSERT_GE(data_on_victim, 1);
  ASSERT_TRUE(ctl_->ReplaceDisk(victim));
  bool swept = false;
  ASSERT_TRUE(ctl_->StartReconstruction([&swept] { swept = true; }));
  sim_.RunToEnd();
  ASSERT_TRUE(swept);
  EXPECT_EQ(ctl_->LossEvents(), static_cast<uint64_t>(data_on_victim));
  EXPECT_EQ(ctl_->BytesLost(), data_on_victim * 8192);
  EXPECT_TRUE(drained);
  EXPECT_EQ(ctl_->StaleQ(), 0);
}

TEST_F(Raid6Rig, WriteLatencyAndThroughputOrderingAcrossModes) {
  // A lone small write: the pre-read phase costs a revolution that the pure
  // deferred mode avoids; sync RAID 6 and defer-Q have equal *latency* (the
  // extra Q I/Os run in parallel with P's) but different I/O counts.
  double lone_ms[3];
  uint64_t lone_ops[3];
  double burst_ms[3];
  const Raid6Mode modes[] = {Raid6Mode::kSynchronous, Raid6Mode::kDeferQ,
                             Raid6Mode::kDeferBoth};
  for (int i = 0; i < 3; ++i) {
    {
      Simulator sim;
      Raid6Controller ctl(&sim, TinyConfig(), modes[i]);
      HostDriver driver(&sim, &ctl, 6);
      driver.Submit(40 * 8192, 8192, true);
      while (!driver.Drained()) {
        sim.Step();
      }
      lone_ms[i] = driver.AllLatencies().Mean();
      lone_ops[i] = ctl.TotalDiskOps();
    }
    {
      // A 40-write burst: the extra parity traffic of the synchronous modes
      // congests the disks, so mean latency orders by I/O count.
      Simulator sim;
      Raid6Controller ctl(&sim, TinyConfig(), modes[i]);
      HostDriver driver(&sim, &ctl, 6);
      Rng rng(17);
      for (int k = 0; k < 40; ++k) {
        driver.Submit(rng.UniformInt(0, 200) * 8192, 8192, true);
      }
      while (!driver.Drained()) {
        sim.Step();
      }
      burst_ms[i] = driver.AllLatencies().Mean();
    }
  }
  EXPECT_GT(lone_ops[0], lone_ops[1]);
  EXPECT_GT(lone_ops[1], lone_ops[2]);
  EXPECT_GT(lone_ms[0], lone_ms[2]);
  EXPECT_GT(lone_ms[1], lone_ms[2]);
  EXPECT_GT(burst_ms[0], burst_ms[1]);
  EXPECT_GT(burst_ms[1], burst_ms[2]);
}

TEST_F(Raid6Rig, RandomWritesConvergeToFullConsistency) {
  for (Raid6Mode mode : {Raid6Mode::kSynchronous, Raid6Mode::kDeferQ,
                         Raid6Mode::kDeferBoth}) {
    Simulator sim;
    Raid6Controller ctl(&sim, TinyConfig(), mode);
    HostDriver driver(&sim, &ctl, 6);
    Rng rng(11);
    const int64_t cap = ctl.DataCapacityBytes();
    for (int i = 0; i < 40; ++i) {
      const int32_t size = static_cast<int32_t>(512 * rng.UniformInt(1, 32));
      driver.Submit(512 * rng.UniformInt(0, (cap - size) / 512), size,
                    rng.Bernoulli(0.8));
      if (rng.Bernoulli(0.3)) {
        sim.RunUntil(sim.Now() + Milliseconds(rng.UniformInt(1, 200)));
      }
    }
    sim.RunToEnd();
    bool drained = false;
    ctl.RebuildAll([&drained] { drained = true; });
    sim.RunToEnd();
    ASSERT_TRUE(drained) << Raid6ModeName(mode);
    EXPECT_EQ(ctl.StaleQ(), 0);
    for (int64_t s : ctl.content()->TouchedStripes()) {
      EXPECT_TRUE(ctl.StripeFullyConsistent(s))
          << Raid6ModeName(mode) << " stripe " << s;
    }
  }
}

TEST_F(Raid6Rig, ExposureAccountingDistinguishesClasses) {
  Build(Raid6Mode::kDeferQ);
  driver_->Submit(0, 8192, true);
  while (!driver_->Drained()) {
    sim_.Step();
  }
  // Q stale, P fresh: single-failure-tolerant ("partial redundancy").
  EXPECT_GT(ctl_->TQStaleFraction(), 0.0);
  EXPECT_DOUBLE_EQ(ctl_->MeanFullyExposedBytes(), 0.0);
}

TEST(Raid6ModeNames, AllNamed) {
  EXPECT_EQ(Raid6ModeName(Raid6Mode::kSynchronous), "RAID6");
  EXPECT_EQ(Raid6ModeName(Raid6Mode::kDeferQ), "RAID6-deferQ");
  EXPECT_EQ(Raid6ModeName(Raid6Mode::kDeferBoth), "RAID6-AFRAID");
}

}  // namespace
}  // namespace afraid
