// The compiled form of a DiskSpec: everything the per-op service-time
// computation needs, evaluated once and shared read-only by an array's disks.
//
// Servicing an op depends on the op (address, length, direction), the arm's
// cylinder and the start time -- and on values fixed by the spec: zone
// boundaries, sectors per track and per cylinder, the track skew, the
// revolution time and the seek curve. DiskMechanics evaluates the spec-only
// parts at construction:
//
//  * per zone: strength-reduced sectors-per-cylinder and sectors-per-track
//    divisors, the track skew, a sector -> angle-fraction table and a
//    sectors -> media-time table;
//  * the revolution time, plus a strength-reduced divisor for the platter
//    phase;
//  * the seek-distance table and the two track-to-track move costs.
//
// Every table entry is the exact expression the per-op path would otherwise
// evaluate, so ComputeService is bit-identical to the direct computation
// (tests/disk/mechanics_test.cc replays that computation as an oracle).

#ifndef AFRAID_DISK_MECHANICS_H_
#define AFRAID_DISK_MECHANICS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "disk/disk_spec.h"
#include "disk/geometry.h"
#include "disk/seek_model.h"
#include "sim/fast_div.h"
#include "sim/time.h"

namespace afraid {

// One contiguous sector-level operation against a disk.
struct DiskOp {
  int64_t lba = 0;        // First sector.
  int32_t sectors = 0;    // Number of sectors (> 0).
  bool is_write = false;
};

// Where the service time went, for tests and analysis.
struct ServiceBreakdown {
  SimDuration overhead = 0;
  SimDuration seek = 0;      // Includes write settle for writes.
  SimDuration rotation = 0;  // Rotational latency plus mid-transfer realigns.
  SimDuration transfer = 0;  // Media time moving sectors, plus head switches.

  SimDuration Total() const { return overhead + seek + rotation + transfer; }
};

class DiskMechanics {
 public:
  explicit DiskMechanics(DiskSpec spec);
  DiskMechanics(const DiskMechanics&) = delete;
  DiskMechanics& operator=(const DiskMechanics&) = delete;

  // The one way to build the shared, immutable mechanics for an array.
  static std::shared_ptr<const DiskMechanics> Compile(DiskSpec spec) {
    return std::make_shared<const DiskMechanics>(std::move(spec));
  }

  const DiskSpec& spec() const { return spec_; }
  const DiskGeometry& geometry() const { return geometry_; }

  // What servicing `op` costs if started at `start` (>= 0) with the arm at
  // cylinder `from_cylinder`; also reports the cylinder where the arm ends
  // up (the one holding the op's last sector).
  ServiceBreakdown ComputeService(SimTime start, const DiskOp& op,
                                  int32_t from_cylinder, int32_t* end_cylinder) const;

 private:
  struct Zone {
    int64_t end_sector = 0;      // One past the zone's last LBA (max for the last zone).
    int64_t first_sector = 0;
    int32_t first_cylinder = 0;
    int32_t end_cylinder = 0;    // One past the zone's last cylinder (max for the last zone).
    int32_t sectors_per_track = 0;
    int64_t skew = 0;            // Sectors of skew per global track index.
    FastDiv64 per_cylinder;      // By heads * sectors_per_track.
    FastDiv64 per_track;         // By sectors_per_track.
    std::vector<double> angle;        // [s] = s / sectors_per_track.
    std::vector<SimDuration> media;   // [k] = time to pass k sectors.
  };

  // Time from `now` until sector `sector` (skewed by `track`'s index) of a
  // track in zone `z` passes under the head.
  SimDuration RotationalWait(SimTime now, const Zone& z, int64_t track,
                             int32_t sector) const;

  DiskSpec spec_;
  DiskGeometry geometry_;
  SeekModel seek_model_;
  int32_t heads_;
  SimDuration rev_;
  double rev_f_;
  FastDiv64 rev_div_;
  SimDuration overhead_;
  SimDuration write_settle_;
  SimDuration head_switch_;
  SimDuration cylinder_switch_ = 0;        // One-cylinder seek.
  SimDuration cylinder_switch_write_ = 0;  // ...plus write settle.
  std::vector<Zone> zones_;
};

}  // namespace afraid

#endif  // AFRAID_DISK_MECHANICS_H_
