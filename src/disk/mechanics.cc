#include "disk/mechanics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace afraid {

DiskMechanics::DiskMechanics(DiskSpec spec)
    : spec_(std::move(spec)),
      geometry_(spec_.zones, spec_.heads, spec_.sector_bytes),
      seek_model_(spec_.seek),
      heads_(spec_.heads),
      rev_(spec_.RevolutionTime()),
      rev_f_(static_cast<double>(rev_)),
      rev_div_(rev_),
      overhead_(spec_.controller_overhead),
      write_settle_(spec_.write_settle),
      head_switch_(spec_.head_switch) {
  // Freeze the seek curve into a per-distance table: the longest possible
  // move is TotalCylinders-1, so every SeekTime the mechanism can ask for
  // becomes a load instead of a sqrt. The table is exact (see seek_model.h).
  seek_model_.PrecomputeTable(geometry_.TotalCylinders() - 1);
  // Moving to the next track across a cylinder boundary is always a
  // one-cylinder seek (writes settle again after it).
  cylinder_switch_ = seek_model_.SeekTime(1);
  cylinder_switch_write_ = cylinder_switch_ + write_settle_;

  // One skew value stands in for both track skew and cylinder skew: enough
  // sectors to hide the worst single-track move -- a head switch, or a
  // track-to-track seek plus write settle -- plus one sector of margin.
  // (Real disks use a smaller skew for head switches; the approximation
  // costs well under a millisecond per head switch.)
  const double worst_move = std::max<double>(
      static_cast<double>(spec_.head_switch),
      static_cast<double>(seek_model_.SeekTime(1) + spec_.write_settle));
  const double skew_frac = worst_move / rev_f_;

  int64_t first_sector = 0;
  int32_t first_cylinder = 0;
  for (const DiskZone& dz : spec_.zones) {
    const int32_t spt = dz.sectors_per_track;
    Zone z;
    z.first_sector = first_sector;
    z.end_sector = first_sector + static_cast<int64_t>(dz.cylinders) * heads_ * spt;
    z.first_cylinder = first_cylinder;
    z.end_cylinder = first_cylinder + dz.cylinders;
    z.sectors_per_track = spt;
    z.skew = static_cast<int32_t>(std::ceil(skew_frac * spt)) + 1;
    z.per_cylinder = FastDiv64(static_cast<int64_t>(heads_) * spt);
    z.per_track = FastDiv64(spt);
    // Each entry is the expression the per-op path would evaluate for that
    // operand, so a load returns the bit-identical double / duration.
    z.angle.resize(static_cast<size_t>(spt));
    for (int32_t s = 0; s < spt; ++s) {
      z.angle[static_cast<size_t>(s)] = static_cast<double>(s) / spt;
    }
    z.media.resize(static_cast<size_t>(spt) + 1);
    for (int32_t k = 0; k <= spt; ++k) {
      z.media[static_cast<size_t>(k)] =
          static_cast<SimDuration>(static_cast<double>(rev_) * k / spt + 0.5);
    }
    zones_.push_back(std::move(z));
    first_sector = zones_.back().end_sector;
    first_cylinder = zones_.back().end_cylinder;
  }
  // An address past the end of the disk resolves into the innermost zone,
  // extrapolating its cylinders, exactly as DiskGeometry::ToChs does. That is
  // a precondition violation, but release builds do see it (replays of a
  // trace whose address space exceeds the array's capacity), so the
  // compiled path must not walk off the zone table there.
  zones_.back().end_sector = std::numeric_limits<int64_t>::max();
  zones_.back().end_cylinder = std::numeric_limits<int32_t>::max();
}

SimDuration DiskMechanics::RotationalWait(SimTime now, const Zone& z, int64_t track,
                                          int32_t sector) const {
  const auto slot = static_cast<int32_t>(z.per_track.Mod(sector + z.skew * track));
  const double target_frac = z.angle[static_cast<size_t>(slot)];
  const double cur_frac = static_cast<double>(rev_div_.Mod(now)) / rev_f_;
  double wait_frac = target_frac - cur_frac;
  if (wait_frac < 0.0) {
    wait_frac += 1.0;
  }
  return static_cast<SimDuration>(wait_frac * rev_f_ + 0.5);
}

ServiceBreakdown DiskMechanics::ComputeService(SimTime start, const DiskOp& op,
                                               int32_t from_cylinder,
                                               int32_t* end_cylinder) const {
  assert(start >= 0);
  assert(op.sectors > 0);
  assert(op.lba >= 0 && op.lba + op.sectors <= geometry_.TotalSectors());

  ServiceBreakdown bd;
  bd.overhead = overhead_;
  SimTime t = start + bd.overhead;

  // Locate the first sector (zone, then cylinder, head and sector).
  const Zone* z = zones_.data();
  while (op.lba >= z->end_sector) {
    ++z;
  }
  const int64_t in_zone = op.lba - z->first_sector;
  const int64_t cyl_in_zone = z->per_cylinder.Div(in_zone);
  const int64_t in_cyl = in_zone - cyl_in_zone * z->per_cylinder.divisor();
  auto head = static_cast<int32_t>(z->per_track.Div(in_cyl));
  auto sector = static_cast<int32_t>(in_cyl - static_cast<int64_t>(head) * z->sectors_per_track);
  int32_t cylinder = z->first_cylinder + static_cast<int32_t>(cyl_in_zone);
  int64_t track = static_cast<int64_t>(cylinder) * heads_ + head;

  bd.seek = seek_model_.SeekTime(cylinder - from_cylinder);
  if (op.is_write) {
    bd.seek += write_settle_;
  }
  t += bd.seek;

  int32_t remaining = op.sectors;
  for (;;) {
    const SimDuration rot = RotationalWait(t, *z, track, sector);
    bd.rotation += rot;
    t += rot;

    const int32_t on_track = std::min<int32_t>(remaining, z->sectors_per_track - sector);
    const SimDuration media = z->media[static_cast<size_t>(on_track)];
    bd.transfer += media;
    t += media;
    remaining -= on_track;
    if (remaining == 0) {
      break;
    }
    // The rest starts at sector 0 of the next track: same cylinder -> head
    // switch; otherwise the next cylinder (possibly the next zone's first).
    sector = 0;
    ++track;
    SimDuration move = head_switch_;
    if (++head == heads_) {
      head = 0;
      if (++cylinder == z->end_cylinder) {
        ++z;
      }
      move = op.is_write ? cylinder_switch_write_ : cylinder_switch_;
    }
    bd.transfer += move;
    t += move;
  }

  if (end_cylinder != nullptr) {
    // The last track visited holds the final sector.
    *end_cylinder = cylinder;
  }
  return bd;
}

}  // namespace afraid
