// Configuration of a simulated array instance.

#ifndef AFRAID_CORE_ARRAY_CONFIG_H_
#define AFRAID_CORE_ARRAY_CONFIG_H_

#include <cstdint>

#include "array/host_driver.h"
#include "array/layout.h"
#include "disk/disk_spec.h"
#include "sim/time.h"

namespace afraid {

struct ArrayConfig {
  DiskSpec disk_spec = DiskSpec::HpC3325Like();
  int32_t num_disks = 5;                       // N+1.
  int64_t stripe_unit_bytes = 8192;            // S, the paper's default.
  int32_t parity_blocks = 1;                   // 1 = RAID 5 family; 2 = RAID 6.
  // Data placement: classic left-symmetric rotation, or block-design parity
  // declustering (array/decluster.h) for shorter, balanced rebuilds.
  LayoutKind layout = LayoutKind::kLeftSymmetric;
  // Declustered stripe width k (units per stripe, parity included); 0 picks
  // DeclusteredLayout::AutoWidth (about half the array). Ignored for the
  // left-symmetric layout.
  int32_t decluster_width = 0;
  SimDuration idle_delay = Milliseconds(100);  // Idleness-detector threshold.
  // Host-driver queueing discipline; the paper used CLOOK [Worthington94a].
  HostSched host_sched = HostSched::kClook;
  // Enable the functional content model (tests; costs memory and time).
  bool track_content = false;
  // Sub-stripe marking (Section 5): number of marking bits per stripe. Each
  // bit covers one horizontal band of height stripe_unit/M across all the
  // stripe's blocks, so small writes only unprotect (and later rebuild)
  // 1/M of the stripe. Must divide stripe_unit_bytes/sector_bytes. 1 = the
  // paper's baseline design.
  int32_t marks_per_stripe = 1;
  // Adaptive idleness prediction [Golding95]: when true, an idle-triggered
  // rebuild pass only starts if the predicted remaining idle time fits at
  // least one rebuild step, avoiding collisions with imminent bursts. The
  // paper's baseline ignores the predictor (false).
  bool use_idle_predictor = false;

  // Concurrently active client requests admitted into the array: the
  // number of physical disks (the paper's choice).
  int32_t MaxActive() const { return num_disks; }
};

}  // namespace afraid

#endif  // AFRAID_CORE_ARRAY_CONFIG_H_
