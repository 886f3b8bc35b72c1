// DiskMechanics::ComputeService against the direct per-op computation it
// compiles away. The reference below is the service-time arithmetic exactly
// as DiskModel evaluated it per op before the spec was compiled: the
// revolution time and the track skew (with its ceil) recomputed per call,
// a ToChs per visited track, every fraction and media time divided out, and
// a final ToChs for the end cylinder. The compiled path must return a
// field-exact ServiceBreakdown and the same end cylinder for every op.

#include "disk/mechanics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "disk/disk_model.h"
#include "disk/disk_spec.h"
#include "disk/geometry.h"
#include "disk/seek_model.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

class ReferenceService {
 public:
  explicit ReferenceService(const DiskSpec& spec)
      : spec_(spec),
        geometry_(spec.zones, spec.heads, spec.sector_bytes),
        seek_model_(spec.seek) {}

  const DiskGeometry& geometry() const { return geometry_; }

  ServiceBreakdown ComputeService(SimTime start, const DiskOp& op,
                                  int32_t from_cylinder, int32_t* end_cylinder) const {
    ServiceBreakdown bd;
    bd.overhead = spec_.controller_overhead;
    SimTime t = start + bd.overhead;

    Chs chs = geometry_.ToChs(op.lba);
    bd.seek = seek_model_.AnalyticSeekTime(chs.cylinder - from_cylinder);
    if (op.is_write) {
      bd.seek += spec_.write_settle;
    }
    t += bd.seek;

    const int64_t rev = spec_.RevolutionTime();
    int64_t lba = op.lba;
    int32_t remaining = op.sectors;
    bool first_track = true;
    while (remaining > 0) {
      if (!first_track) {
        const Chs next = geometry_.ToChs(lba);
        SimDuration move = 0;
        if (next.cylinder == chs.cylinder) {
          move = spec_.head_switch;
        } else {
          move = seek_model_.AnalyticSeekTime(next.cylinder - chs.cylinder);
          if (op.is_write) {
            move += spec_.write_settle;
          }
        }
        bd.transfer += move;
        t += move;
        chs = next;
      }
      const SimDuration rot = RotationalWait(t, chs);
      bd.rotation += rot;
      t += rot;

      const int32_t on_track =
          std::min<int32_t>(remaining, chs.sectors_per_track - chs.sector);
      const auto media = static_cast<SimDuration>(
          static_cast<double>(rev) * on_track / chs.sectors_per_track + 0.5);
      bd.transfer += media;
      t += media;
      lba += on_track;
      remaining -= on_track;
      first_track = false;
    }
    if (end_cylinder != nullptr) {
      *end_cylinder = geometry_.ToChs(lba - 1).cylinder;
    }
    return bd;
  }

 private:
  int32_t TrackSkew(int32_t sectors_per_track) const {
    const double rev = static_cast<double>(spec_.RevolutionTime());
    const double worst_move = std::max<double>(
        static_cast<double>(spec_.head_switch),
        static_cast<double>(seek_model_.AnalyticSeekTime(1) + spec_.write_settle));
    const double frac = worst_move / rev;
    return static_cast<int32_t>(std::ceil(frac * sectors_per_track)) + 1;
  }

  SimDuration RotationalWait(SimTime now, const Chs& chs) const {
    const int64_t rev = spec_.RevolutionTime();
    const int32_t spt = chs.sectors_per_track;
    const int64_t skew = static_cast<int64_t>(TrackSkew(spt)) * chs.track_index;
    const auto slot = static_cast<int32_t>((chs.sector + skew) % spt);
    const double target_frac = static_cast<double>(slot) / spt;
    const double cur_frac = static_cast<double>(now % rev) / static_cast<double>(rev);
    double wait_frac = target_frac - cur_frac;
    if (wait_frac < 0.0) {
      wait_frac += 1.0;
    }
    return static_cast<SimDuration>(wait_frac * static_cast<double>(rev) + 0.5);
  }

  DiskSpec spec_;
  DiskGeometry geometry_;
  SeekModel seek_model_;
};

struct Case {
  SimTime start = 0;
  DiskOp op;
  int32_t from_cylinder = 0;

  std::string Describe() const {
    std::ostringstream os;
    os << "start=" << start << " lba=" << op.lba << " sectors=" << op.sectors
       << " write=" << op.is_write << " from_cylinder=" << from_cylinder;
    return os.str();
  }
};

// Runs one case through the reference, the compiled mechanics and a disk
// built on them; returns a failure message naming the first differing field.
::testing::AssertionResult MatchesReference(const ReferenceService& ref,
                                            const DiskMechanics& mech,
                                            const DiskModel& disk, const Case& c) {
  int32_t ref_end = -1;
  const ServiceBreakdown want = ref.ComputeService(c.start, c.op, c.from_cylinder, &ref_end);
  for (int pass = 0; pass < 2; ++pass) {
    int32_t end = -2;
    const ServiceBreakdown got =
        pass == 0 ? mech.ComputeService(c.start, c.op, c.from_cylinder, &end)
                  : disk.ComputeService(c.start, c.op, c.from_cylinder, &end);
    const char* via = pass == 0 ? "mechanics" : "disk";
    if (got.overhead != want.overhead || got.seek != want.seek ||
        got.rotation != want.rotation || got.transfer != want.transfer ||
        end != ref_end) {
      return ::testing::AssertionFailure()
             << via << " differs for " << c.Describe() << ": overhead "
             << got.overhead << " vs " << want.overhead << ", seek " << got.seek
             << " vs " << want.seek << ", rotation " << got.rotation << " vs "
             << want.rotation << ", transfer " << got.transfer << " vs "
             << want.transfer << ", end cylinder " << end << " vs " << ref_end;
    }
  }
  return ::testing::AssertionSuccess();
}

class MechanicsOracle : public ::testing::TestWithParam<const char*> {
 protected:
  MechanicsOracle()
      : spec_(std::string(GetParam()) == "hp" ? DiskSpec::HpC3325Like()
                                              : DiskSpec::TinyTestDisk()),
        ref_(spec_),
        mech_(DiskMechanics::Compile(spec_)),
        disk_(&sim_, mech_, 0) {}

  int64_t Total() const { return ref_.geometry().TotalSectors(); }
  int32_t MaxCylinder() const { return ref_.geometry().TotalCylinders() - 1; }

  // Every combination of a few start phases, arm positions and directions
  // for one op placement.
  void CheckPlacement(int64_t lba, int32_t sectors) {
    ASSERT_GE(lba, 0);
    for (const SimTime start : {SimTime{0}, MillisecondsF(3.7), Seconds(1) + 12345,
                                Hours(48) + 987654321}) {
      for (const int32_t from : {0, MaxCylinder() / 2, MaxCylinder()}) {
        for (const bool write : {false, true}) {
          Case c;
          c.start = start;
          c.op = DiskOp{lba, sectors, write};
          c.from_cylinder = from;
          ASSERT_TRUE(MatchesReference(ref_, *mech_, disk_, c));
        }
      }
    }
  }

  DiskSpec spec_;
  ReferenceService ref_;
  std::shared_ptr<const DiskMechanics> mech_;
  Simulator sim_;
  DiskModel disk_;
};

// The first and last track of every zone: single sectors at both ends of
// the track, whole tracks, and a run ending on the zone's last sector.
TEST_P(MechanicsOracle, ZoneFirstAndLastTracks) {
  const int32_t heads = spec_.heads;
  int64_t zone_start = 0;
  for (const DiskZone& z : spec_.zones) {
    const int32_t spt = z.sectors_per_track;
    const int64_t zone_end = zone_start + static_cast<int64_t>(z.cylinders) * heads * spt;
    for (const int64_t track_start : {zone_start, zone_end - spt}) {
      CheckPlacement(track_start, 1);
      CheckPlacement(track_start + spt - 1, 1);
      CheckPlacement(track_start, spt);
      CheckPlacement(track_start + 1, spt - 1);
    }
    CheckPlacement(zone_end - 3 * spt - 5, 3 * spt + 5);
    zone_start = zone_end;
  }
  EXPECT_EQ(zone_start, Total());
}

// Ops that cross a head boundary (same cylinder), a cylinder boundary (last
// head to head 0 of the next cylinder), a zone boundary, and many of each.
TEST_P(MechanicsOracle, HeadCylinderAndZoneCrossings) {
  const int32_t heads = spec_.heads;
  int64_t zone_start = 0;
  for (size_t zi = 0; zi < spec_.zones.size(); ++zi) {
    const int32_t spt = spec_.zones[zi].sectors_per_track;
    const int64_t cyl_sectors = static_cast<int64_t>(heads) * spt;
    // Head crossing inside the zone's first cylinder.
    CheckPlacement(zone_start + spt - 4, 8);
    CheckPlacement(zone_start + spt - 1, spt + 2);
    // Cylinder crossing: last head of cylinder 0 into cylinder 1.
    CheckPlacement(zone_start + cyl_sectors - 3, 6);
    CheckPlacement(zone_start + cyl_sectors - spt, 2 * spt);
    // A run spanning several cylinders.
    CheckPlacement(zone_start + 7, static_cast<int32_t>(
                                       std::min<int64_t>(2048, 3 * cyl_sectors)));
    const int64_t zone_end =
        zone_start + static_cast<int64_t>(spec_.zones[zi].cylinders) * cyl_sectors;
    if (zi + 1 < spec_.zones.size()) {
      // Zone crossing: last sectors of this zone into the next one.
      const int32_t next_spt = spec_.zones[zi + 1].sectors_per_track;
      CheckPlacement(zone_end - 2, 4);
      CheckPlacement(zone_end - spt, spt + next_spt);
      CheckPlacement(zone_end - 1000, 2048);
    }
    zone_start = zone_end;
  }
  // The disk's very last sectors.
  CheckPlacement(Total() - 1, 1);
  CheckPlacement(Total() - 2048, 2048);
}

// Ops running past the end of the disk. ComputeService asserts that they do
// not happen, but release builds do receive them (a replayed trace whose
// address space exceeds the array's capacity), and there the compiled path
// must keep extrapolating the innermost zone exactly as ToChs does.
TEST_P(MechanicsOracle, PastTheEndExtrapolatesLikeToChs) {
#ifndef NDEBUG
  GTEST_SKIP() << "ComputeService asserts its in-range precondition";
#else
  CheckPlacement(Total() - 5, 64);
  CheckPlacement(Total(), 16);
  CheckPlacement(Total() + 12345, 2048);
#endif
}

// 100k random ops per disk: start times from the first seconds to a year of
// simulated time, any address, 1-2048 sectors, any arm position.
TEST_P(MechanicsOracle, RandomOpsBitIdentical) {
  Rng rng(std::string(GetParam()) == "hp" ? 20261016 : 61012026);
  for (int i = 0; i < 100'000; ++i) {
    Case c;
    switch (i % 4) {
      case 0:
        c.start = rng.UniformInt(0, Seconds(100));
        break;
      case 1:
        c.start = rng.UniformInt(0, Hours(24 * 365));
        break;
      case 2:
        c.start = rng.UniformInt(0, spec_.RevolutionTime() - 1);
        break;
      default:
        c.start = rng.UniformInt(0, int64_t{1} << 60);
        break;
    }
    c.op.sectors = static_cast<int32_t>(
        i % 8 == 0 ? rng.UniformInt(1, 2048) : rng.UniformInt(1, 64));
    c.op.lba = rng.UniformInt(0, Total() - c.op.sectors);
    c.op.is_write = rng.Bernoulli(0.5);
    c.from_cylinder = static_cast<int32_t>(rng.UniformInt(0, MaxCylinder()));
    ASSERT_TRUE(MatchesReference(ref_, *mech_, disk_, c)) << "case " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(InTreeSpecs, MechanicsOracle, ::testing::Values("hp", "tiny"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// One compiled object serves every disk of an array: disks share it, and
// their service estimates stay independent of one another's state.
TEST(DiskMechanics, SharedAcrossDisks) {
  Simulator sim;
  const auto mech = DiskMechanics::Compile(DiskSpec::HpC3325Like());
  DiskModel a(&sim, mech, 0);
  DiskModel b(&sim, mech, 1);
  EXPECT_EQ(&a.mechanics(), &b.mechanics());
  EXPECT_EQ(a.TotalSectors(), b.TotalSectors());
  a.Submit(DiskOp{1'000'000, 16, false}, [](const DiskOpResult&) {});
  sim.RunToEnd();
  EXPECT_NE(a.CurrentCylinder(), b.CurrentCylinder());
  EXPECT_EQ(b.CurrentCylinder(), 0);
}

}  // namespace
}  // namespace afraid
