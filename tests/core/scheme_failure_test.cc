// One failure/repair exercise for EVERY registered array scheme, through the
// ArrayScheme interface alone: seed known content, quiesce, fail a data
// disk, serve degraded reads and writes, replace the disk, run the
// reconstruction sweep with no concurrent traffic, and check every
// reconstructed sector against the functional ContentModel. Also pins the
// shared client front end (a multi-stripe write lands every sector once)
// and the shared failure engine's contract: its refusal rules, the trace
// events and per-purpose op counts every scheme gets from it, and its one
// degraded read (reads a dying disk dropped are served again; a read queued
// behind the sweep reads the replacement). A scheme added to the registry
// is picked up automatically.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/content.h"
#include "array/host_driver.h"
#include "array/scheme.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "obs/probe.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

constexpr int64_t kBlock = 8192;

ArrayConfig TinyConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;  // Mirror normalises to 4.
  cfg.stripe_unit_bytes = kBlock;
  cfg.track_content = true;
  return cfg;
}

// Parameters are "<scheme>" or "<scheme>+declustered": the latter runs the
// identical end-to-end exercise with the declustered parity layout.
class SchemeFailureTest : public ::testing::TestWithParam<std::string> {
 protected:
  void Build(Probe probe = {}) {
    scheme_ = GetParam();
    ArrayConfig base = TinyConfig();
    const auto plus = scheme_.find('+');
    if (plus != std::string::npos) {
      ASSERT_EQ(scheme_.substr(plus + 1), "declustered");
      base.layout = LayoutKind::kDeclustered;
      scheme_ = scheme_.substr(0, plus);
    }
    cfg_ = SchemeRegistry::Normalize(scheme_, base);
    SchemeContext ctx{&sim_, cfg_, PolicySpec::AfraidBaseline(),
                      AvailabilityParamsFor(cfg_), probe};
    ctl_ = SchemeRegistry::Create(scheme_, ctx);
    ASSERT_NE(ctl_, nullptr);
    if (base.layout == LayoutKind::kDeclustered) {
      // 5 disks always admit a non-degenerate width; the declustered run
      // must not silently fall back.
      ASSERT_STREQ(ctl_->layout().LayoutName(), "declustered");
    }
    driver_ = std::make_unique<HostDriver>(&sim_, ctl_.get(), 5);
  }

  // Writes one aligned block and quiesces (deferred redundancy settles via
  // the idle machinery); returns the driver-assigned tag.
  uint64_t WriteBlock(int64_t offset) {
    driver_->Submit(offset, kBlock, true);
    sim_.RunToEnd();
    return driver_->Accepted();
  }

  // Checks the stored content of the aligned block at `offset` against what
  // client write `tag` deposited, sector by sector.
  void ExpectBlock(int64_t offset, uint64_t tag) {
    const ArrayLayout& lay = ctl_->layout();
    const int64_t block_index = offset / lay.stripe_unit();
    const int64_t stripe = block_index / lay.data_blocks_per_stripe();
    const int32_t j =
        static_cast<int32_t>(block_index % lay.data_blocks_per_stripe());
    ASSERT_EQ(lay.LogicalOffsetOf(stripe, j), offset);
    const ContentModel* cm = ctl_->content();
    ASSERT_NE(cm, nullptr);
    const int64_t first = offset / cfg_.disk_spec.sector_bytes;
    for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
      EXPECT_EQ(cm->GetData(stripe, j, s), ContentModel::MixTag(tag, first + s))
          << GetParam() << ": sector " << s << " of block at " << offset;
    }
  }

  std::string scheme_;  // Registry name, layout suffix stripped.
  ArrayConfig cfg_;
  Simulator sim_;
  std::unique_ptr<ArrayScheme> ctl_;
  std::unique_ptr<HostDriver> driver_;
};

TEST_P(SchemeFailureTest, FailDegradedRepairReconstructRoundTrip) {
  Build();

  // Phase 1: seed content across several stripes, fully quiesced.
  std::vector<std::pair<int64_t, uint64_t>> blocks;
  for (int64_t i = 0; i < 8; ++i) {
    const int64_t offset = i * 4 * kBlock;
    blocks.emplace_back(offset, WriteBlock(offset));
  }

  // Phase 2: a data disk of stripe 0 dies. Exactly one concurrent failure.
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  EXPECT_TRUE(ctl_->FailDisk(victim));
  EXPECT_FALSE(ctl_->FailDisk((victim + 1) % cfg_.num_disks));
  EXPECT_EQ(ctl_->State().failed_disk, victim);

  // Degraded reads of everything seeded complete (dead-disk blocks are
  // served from the surviving redundancy).
  const uint64_t completed_before = driver_->Completed();
  for (const auto& [offset, tag] : blocks) {
    driver_->Submit(offset, kBlock, false);
  }
  sim_.RunToEnd();
  EXPECT_EQ(driver_->Completed(), completed_before + blocks.size());

  // Degraded writes land new content, including onto the dead disk's block.
  blocks[0].second = WriteBlock(blocks[0].first);
  blocks[1].second = WriteBlock(blocks[1].first);

  // Phase 3: replacement + reconstruction sweep, no concurrent traffic.
  EXPECT_TRUE(ctl_->ReplaceDisk(victim));
  bool done = false;
  EXPECT_TRUE(ctl_->StartReconstruction([&done] { done = true; }));
  sim_.RunToEnd();
  ASSERT_TRUE(done);

  const SchemeState st = ctl_->State();
  EXPECT_EQ(st.failed_disk, -1);
  EXPECT_EQ(st.recovering_disk, -1);
  EXPECT_FALSE(st.reconstruction_active);
  // Everything was redundant at the failure (phase 1 quiesced), so the
  // round trip is loss-free on every scheme.
  EXPECT_EQ(st.loss_events, 0u);
  EXPECT_EQ(st.bytes_lost, 0);
  EXPECT_GT(ctl_->Stats().stripes_rebuilt, 0u);

  // Every seeded block reads back exactly as written.
  for (const auto& [offset, tag] : blocks) {
    ExpectBlock(offset, tag);
  }

  // The model stores exactly the stripes the client wrote: the sweep visits
  // every stripe of the replaced disk, but rebuilding a never-written stripe
  // leaves it implicitly zero instead of storing it.
  const ContentModel* cm = ctl_->content();
  const ArrayLayout& lay = ctl_->layout();
  std::vector<int64_t> seeded;
  for (const auto& [offset, tag] : blocks) {
    seeded.push_back(offset / lay.stripe_unit() / lay.data_blocks_per_stripe());
  }
  std::sort(seeded.begin(), seeded.end());
  seeded.erase(std::unique(seeded.begin(), seeded.end()), seeded.end());
  std::vector<int64_t> stored = cm->TouchedStripes();
  std::sort(stored.begin(), stored.end());
  EXPECT_EQ(stored, seeded);

  // The rebuilt redundancy itself is coherent again.
  for (int64_t stripe : cm->TouchedStripes()) {
    if (scheme_ == "mirror") {
      // Parity slot j holds the twin copy of data block j.
      for (int32_t j = 0; j < ctl_->layout().data_blocks_per_stripe(); ++j) {
        for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
          EXPECT_EQ(cm->GetParity(stripe, s, j), cm->GetData(stripe, j, s))
              << "stripe " << stripe;
        }
      }
    } else {
      EXPECT_TRUE(cm->StripeConsistent(stripe)) << "stripe " << stripe;
    }
  }
}

// The shared client front end: a write that starts mid-block and spans
// several stripes splits into multi-segment groups, partial blocks at both
// ends; every sector lands with its tag and both requests complete once.
TEST_P(SchemeFailureTest, MultiStripeWriteLandsEverySectorOnce) {
  Build();
  const ArrayLayout& lay = ctl_->layout();
  const int32_t n = lay.data_blocks_per_stripe();
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  ClientRequest write;
  write.id = 7;
  write.offset = 3 * sector;
  write.size = static_cast<int32_t>(5 * n * kBlock / 2);  // 2.5 stripes.
  write.is_write = true;
  int writes_done = 0;
  ctl_->Submit(write, [&writes_done] { ++writes_done; });
  sim_.RunToEnd();
  EXPECT_EQ(writes_done, 1);

  ClientRequest read = write;
  read.id = 8;
  read.is_write = false;
  int reads_done = 0;
  ctl_->Submit(read, [&reads_done] { ++reads_done; });
  sim_.RunToEnd();
  EXPECT_EQ(reads_done, 1);

  const ContentModel* cm = ctl_->content();
  ASSERT_NE(cm, nullptr);
  std::vector<int64_t> touched;
  const int64_t end = (write.offset + write.size) / sector;
  for (int64_t l = write.offset / sector; l < end; ++l) {
    const int64_t block_index = l * sector / kBlock;
    const int64_t stripe = block_index / n;
    const auto j = static_cast<int32_t>(block_index % n);
    const auto s = static_cast<int32_t>(l * sector % kBlock / sector);
    EXPECT_EQ(cm->GetData(stripe, j, s), ContentModel::MixTag(write.id, l))
        << GetParam() << ": logical sector " << l;
    if (touched.empty() || touched.back() != stripe) {
      touched.push_back(stripe);
    }
  }
  EXPECT_EQ(touched.size(), 3u);
  for (int64_t stripe : touched) {
    if (scheme_ == "mirror") {
      for (int32_t j = 0; j < n; ++j) {
        for (int32_t s = 0; s < cm->sectors_per_unit(); ++s) {
          EXPECT_EQ(cm->GetParity(stripe, s, j), cm->GetData(stripe, j, s))
              << "stripe " << stripe;
        }
      }
    } else {
      EXPECT_TRUE(cm->StripeConsistent(stripe)) << "stripe " << stripe;
    }
  }
}

TEST_P(SchemeFailureTest, MistimedManagementOpsAreRefusedWithoutStateChange) {
  Build();
  EXPECT_FALSE(ctl_->ReplaceDisk(0));                 // Nothing failed.
  EXPECT_FALSE(ctl_->StartReconstruction([] {}));     // Nothing recovering.
  EXPECT_FALSE(ctl_->FailDisk(-1));
  EXPECT_FALSE(ctl_->FailDisk(cfg_.num_disks));
  EXPECT_EQ(ctl_->State().failed_disk, -1);

  EXPECT_TRUE(ctl_->FailDisk(0));
  EXPECT_FALSE(ctl_->FailDisk(1));   // One failure at a time.
  EXPECT_FALSE(ctl_->ReplaceDisk(1));  // Wrong disk.
  EXPECT_TRUE(ctl_->ReplaceDisk(0));
  bool done = false;
  EXPECT_TRUE(ctl_->StartReconstruction([&done] { done = true; }));
  EXPECT_FALSE(ctl_->StartReconstruction([] {}));  // Already sweeping.

  // While the sweep runs no disk may fail -- the recovering one included --
  // and nothing may be replaced. This is why every op the sweep issues
  // completes with ok == true.
  const SchemeState sweeping = ctl_->State();
  EXPECT_TRUE(sweeping.reconstruction_active);
  EXPECT_EQ(sweeping.recovering_disk, 0);
  for (int32_t d = 0; d < cfg_.num_disks; ++d) {
    EXPECT_FALSE(ctl_->FailDisk(d)) << "disk " << d;
    EXPECT_FALSE(ctl_->ReplaceDisk(d)) << "disk " << d;
  }
  const SchemeState after = ctl_->State();
  EXPECT_EQ(after.failed_disk, sweeping.failed_disk);
  EXPECT_EQ(after.recovering_disk, sweeping.recovering_disk);
  EXPECT_EQ(after.reconstruction_active, sweeping.reconstruction_active);
  EXPECT_EQ(after.rebuild_active, sweeping.rebuild_active);
  EXPECT_EQ(after.dirty_marks, sweeping.dirty_marks);
  EXPECT_EQ(after.loss_events, sweeping.loss_events);
  EXPECT_EQ(after.bytes_lost, sweeping.bytes_lost);

  sim_.RunToEnd();
  EXPECT_TRUE(done);
  EXPECT_EQ(ctl_->State().failed_disk, -1);
  EXPECT_EQ(ctl_->State().recovering_disk, -1);
}

TEST_P(SchemeFailureTest, ReadsTheDyingDiskDroppedAreServedAgain) {
  Build();
  // Reads of a never-written block (no cache can serve them) queue on the
  // disk holding it; the disk dies under them, the in-service one included.
  constexpr int kReads = 4;
  for (int i = 0; i < kReads; ++i) {
    driver_->Submit(0, kBlock, false);
  }
  int32_t victim = -1;
  for (int32_t d = 0; d < cfg_.num_disks && victim < 0; ++d) {
    if (ctl_->disk(d).QueueDepth() > 0) {
      victim = d;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(ctl_->FailDisk(victim));
  sim_.RunToEnd();

  EXPECT_EQ(driver_->Completed(), static_cast<uint64_t>(kReads));
  if (scheme_ == "mirror") {
    // The dropped reads are re-read on the surviving twin.
    EXPECT_GT(ctl_->DiskOps(DiskOpPurpose::kClientRead),
              static_cast<uint64_t>(kReads));
    EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kReconstructRead), 0u);
  } else {
    // Every dropped read is rebuilt once: n-1 surviving data blocks plus P.
    EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kClientRead),
              static_cast<uint64_t>(kReads));
    EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kReconstructRead),
              static_cast<uint64_t>(kReads) *
                  static_cast<uint64_t>(ctl_->layout().data_blocks_per_stripe()));
  }
  EXPECT_EQ(ctl_->State().loss_events, 0u);
}

TEST_P(SchemeFailureTest, ReadQueuedBehindTheSweepReadsTheReplacement) {
  Build();
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  ASSERT_TRUE(ctl_->FailDisk(victim));
  ASSERT_TRUE(ctl_->ReplaceDisk(victim));
  bool done = false;
  ASSERT_TRUE(ctl_->StartReconstruction([&done] { done = true; }));
  // The sweep holds stripe 0 now; a read of its block on the replaced disk
  // waits for the lock, and the sweep has restored the block by the grant.
  const uint64_t client_before = ctl_->DiskOps(DiskOpPurpose::kClientRead);
  const uint64_t reconstruct_before = ctl_->DiskOps(DiskOpPurpose::kReconstructRead);
  driver_->Submit(0, kBlock, false);
  sim_.RunToEnd();
  ASSERT_TRUE(done);
  EXPECT_EQ(driver_->Completed(), 1u);
  EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kClientRead), client_before + 1);
  EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kReconstructRead), reconstruct_before);
}

TEST_P(SchemeFailureTest, RedirectedReadIsServedAgainWhenTheReplacementDies) {
  Build();
  const ArrayLayout& lay = ctl_->layout();
  const int64_t last = lay.num_stripes() - 1;
  const int32_t victim = lay.DataDisk(last, 0);
  int64_t stripes_on_victim = 0;
  for (int64_t s = 0; s < lay.num_stripes(); ++s) {
    stripes_on_victim += lay.StripeUsesDisk(s, victim) ? 1 : 0;
  }
  ASSERT_TRUE(ctl_->FailDisk(victim));
  ASSERT_TRUE(ctl_->ReplaceDisk(victim));
  // The replacement dies again the moment the sweep completes.
  bool failed_again = false;
  ASSERT_TRUE(ctl_->StartReconstruction(
      [&] { failed_again = ctl_->FailDisk(victim); }));
  // Never-written stripes take one recovery write each, so this many writes
  // mean the sweep holds the last stripe: a read of its block waits for the
  // lock, is redirected to the replacement and is queued there when the
  // disk dies.
  while (ctl_->DiskOps(DiskOpPurpose::kRecoveryWrite) <
         static_cast<uint64_t>(stripes_on_victim)) {
    ASSERT_TRUE(sim_.Step());
  }
  driver_->Submit(lay.LogicalOffsetOf(last, 0), kBlock, false);
  sim_.RunToEnd();
  ASSERT_TRUE(failed_again);
  EXPECT_EQ(driver_->Completed(), 1u);
  if (scheme_ != "mirror") {  // The mirror reads the twin and never waits.
    EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kClientRead), 1u);
    EXPECT_EQ(ctl_->DiskOps(DiskOpPurpose::kReconstructRead),
              static_cast<uint64_t>(lay.data_blocks_per_stripe()));
  }
}

TEST_P(SchemeFailureTest, TracedFailReplaceReconstructIsVisible) {
  Tracer tracer;
  Build(Probe(&tracer));
  WriteBlock(0);
  const int32_t victim = ctl_->layout().DataDisk(0, 0);
  ASSERT_TRUE(ctl_->FailDisk(victim));
  ASSERT_TRUE(ctl_->ReplaceDisk(victim));
  bool done = false;
  ASSERT_TRUE(ctl_->StartReconstruction([&done] { done = true; }));
  sim_.RunToEnd();
  ASSERT_TRUE(done);

  const std::string victim_name = "disk" + std::to_string(victim);
  int fail_instants = 0;
  int replace_instants = 0;
  int sweep_begins = 0;
  int sweep_ends = 0;
  int recovery_reads = 0;
  int recovery_writes = 0;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.phase == 'i' && ev.name == "fail " + victim_name) {
      ++fail_instants;
    } else if (ev.phase == 'i' && ev.name == "replace " + victim_name) {
      ++replace_instants;
    } else if (ev.phase == 'b' && ev.name == "reconstruction") {
      ++sweep_begins;
    } else if (ev.phase == 'e' && ev.name == "reconstruction") {
      ++sweep_ends;
    } else if (ev.phase == 'X' && ev.name == "recovery read") {
      ++recovery_reads;
    } else if (ev.phase == 'X' && ev.name == "recovery write") {
      ++recovery_writes;
      // Redundancy was fresh at the failure, so the sweep writes only the
      // replacement, and the span sits on that disk's own track.
      EXPECT_EQ(tracer.tracks()[static_cast<size_t>(ev.track)], victim_name);
    }
  }
  EXPECT_EQ(fail_instants, 1);
  EXPECT_EQ(replace_instants, 1);
  EXPECT_EQ(sweep_begins, 1);
  EXPECT_EQ(sweep_ends, 1);
  EXPECT_GT(recovery_reads, 0);
  EXPECT_GT(recovery_writes, 0);

  // Every op is counted under exactly one purpose.
  uint64_t by_purpose = 0;
  for (int32_t p = 0; p < static_cast<int32_t>(DiskOpPurpose::kNumPurposes); ++p) {
    by_purpose += ctl_->DiskOps(static_cast<DiskOpPurpose>(p));
  }
  EXPECT_EQ(by_purpose, ctl_->Stats().disk_ops_total);
  EXPECT_GT(by_purpose, 0u);
}

std::string SchemeTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-' || c == '+') {
      c = '_';
    }
  }
  return name;
}

std::vector<std::string> SchemeLayoutGrid() {
  std::vector<std::string> params = SchemeRegistry::List();
  for (const std::string& name : SchemeRegistry::List()) {
    if (name != "mirror") {  // Mirroring has no parity to decluster.
      params.push_back(name + "+declustered");
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, SchemeFailureTest,
                         ::testing::ValuesIn(SchemeLayoutGrid()),
                         SchemeTestName);

}  // namespace
}  // namespace afraid
