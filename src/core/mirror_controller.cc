#include "core/mirror_controller.h"

#include <cassert>
#include <memory>

#include "disk/geometry.h"

namespace afraid {

// The data layout stripes plainly over the columns (num_disks / 2, no
// parity). The content model gets one "data" slot per column for the
// primary copy and one "parity" slot per column for the twin, so copy
// divergence is observable.
MirrorController::MirrorController(Simulator* sim, const ArrayConfig& config,
                                   Probe probe)
    : ArrayScheme(sim, config.disk_spec, config.num_disks,
                  std::make_unique<StripeLayout>(
                      config.num_disks / 2, config.stripe_unit_bytes,
                      DiskGeometry(config.disk_spec.zones, config.disk_spec.heads,
                                   config.disk_spec.sector_bytes)
                          .CapacityBytes(),
                      /*parity_blocks=*/0),
                  ContentShape{config.track_content,
                               /*parity_columns=*/config.num_disks / 2},
                  probe) {
  assert(config.num_disks >= 2 && config.num_disks % 2 == 0);
}

MirrorController::~MirrorController() = default;

int32_t MirrorController::ChooseReplica(int64_t stripe, int32_t primary,
                                        const DiskOp& op) const {
  const int32_t twin = primary + 1;
  const bool primary_ok = !DiskUnavailable(primary, stripe);
  const bool twin_ok = !DiskUnavailable(twin, stripe);
  if (!twin_ok) {
    return primary;
  }
  if (!primary_ok) {
    return twin;
  }
  const DiskModel& a = disk(primary);
  const DiskModel& b = disk(twin);
  // Fewest queued operations first (the strongest signal under load), then
  // the shorter positioning estimate from each arm's current cylinder, with
  // the lower disk id as the deterministic tie-break.
  if (a.QueueDepth() != b.QueueDepth()) {
    return a.QueueDepth() < b.QueueDepth() ? primary : twin;
  }
  int32_t end_cylinder = 0;
  const SimTime now = sim_->Now();
  const SimDuration ta =
      a.ComputeService(now, op, a.CurrentCylinder(), &end_cylinder).Total();
  const SimDuration tb =
      b.ComputeService(now, op, b.CurrentCylinder(), &end_cylinder).Total();
  return tb < ta ? twin : primary;
}

void MirrorController::ReadSegment(const Segment& seg, JoinBlock* join) {
  const int32_t primary = 2 * layout_->DataDisk(seg.stripe, seg.block_in_stripe);
  const int64_t off = seg.stripe * layout_->stripe_unit() + seg.offset_in_block;
  DiskOp op;
  op.lba = off / sector_bytes_;
  op.sectors = seg.length / sector_bytes_;
  op.is_write = false;
  IssueDiskOp(ChooseReplica(seg.stripe, primary, op), off, seg.length,
              /*is_write=*/false, DiskOpPurpose::kClientRead,
              [this, seg, join](bool ok) {
                if (ok) {
                  join->Dec(true);
                } else {
                  // The disk died under the read; ChooseReplica now picks
                  // the surviving twin.
                  ReadSegment(seg, join);
                }
              });
}

void MirrorController::WriteStripe(uint64_t request_id, int64_t /*stripe*/,
                                   Span<Segment> segs, JoinBlock* group_join) {
  JoinBlock* join =
      joins_.Make(segs.count, [group_join](bool) { group_join->Dec(true); });
  for (const Segment& seg : segs) {
    WriteSegment(request_id, seg, join);
  }
}

void MirrorController::WriteSegment(uint64_t request_id, const Segment& seg,
                                    JoinBlock* join) {
  // The stripe lock serialises copy updates against the reconstruction
  // sweep's twin -> replacement copy, so the two halves cannot be observed
  // (or frozen) mid-divergence.
  locks_.Acquire(seg.stripe, LockMode::kExclusive, [this, request_id, seg, join] {
    const int32_t col = layout_->DataDisk(seg.stripe, seg.block_in_stripe);
    const int32_t primary = 2 * col;
    const int64_t off = seg.stripe * layout_->stripe_unit() + seg.offset_in_block;
    JoinBlock* pair = joins_.Make(2, [this, seg, join](bool) {
      locks_.Release(seg.stripe, LockMode::kExclusive);
      join->Dec(true);
    });
    for (int32_t side = 0; side < 2; ++side) {
      const int32_t d = primary + side;
      if (DiskUnavailable(d, seg.stripe)) {
        // The surviving twin carries the write; the sweep recopies later.
        sim_->After(0, [pair] { pair->Dec(true); });
        continue;
      }
      IssueDiskOp(d, off, seg.length, /*is_write=*/true, DiskOpPurpose::kClientWrite,
                  [this, request_id, seg, side, pair](bool ok) {
                    if (ok) {
                      StoreWrite(request_id, seg,
                                 side == 0 ? seg.block_in_stripe
                                           : ParityColumn(seg.block_in_stripe));
                    }
                    pair->Dec(true);
                  });
    }
  });
}

// --- Failure recovery -------------------------------------------------------------

int32_t MirrorController::ColumnOnDisk(int64_t stripe, int32_t disk) const {
  // Each column holds exactly one block of every stripe.
  for (int32_t j = 0; j < layout_->data_blocks_per_stripe(); ++j) {
    if (layout_->DataDisk(stripe, j) == disk / 2) {
      return disk % 2 == 0 ? j : ParityColumn(j);
    }
  }
  return -1;
}

void MirrorController::ReconstructStripe(int64_t stripe, int32_t column) {
  const int32_t target = recovering_disk();
  const int32_t twin = target % 2 == 0 ? target + 1 : target - 1;
  const int64_t unit = layout_->stripe_unit();
  // Logical copy first, under the lock: twin -> replacement, exact.
  if (content_ != nullptr) {
    const int32_t n = layout_->data_blocks_per_stripe();
    content_->CopyBlock(stripe, column < n ? ParityColumn(column) : column - n,
                        column);
  }
  IssueDiskOp(twin, stripe * unit, unit, /*is_write=*/false,
              DiskOpPurpose::kRecoveryRead, [this, stripe, target, unit](bool) {
                IssueDiskOp(target, stripe * unit, unit, /*is_write=*/true,
                            DiskOpPurpose::kRecoveryWrite, [this, stripe](bool) {
                              ++stripes_rebuilt_;
                              StripeReconstructed(stripe);
                            });
              });
}

SchemeState MirrorController::State() const {
  SchemeState st;
  st.failed_disk = failed_disk();
  st.recovering_disk = recovering_disk();
  st.reconstruction_active = reconstruction_active();
  st.parity_lag_bytes = 0.0;  // The twin is updated in the write itself.
  return st;
}

SchemeStats MirrorController::Stats() const {
  SchemeStats s;
  s.stripes_rebuilt = stripes_rebuilt_;
  s.disk_ops_total = TotalDiskOps();
  return s;
}

}  // namespace afraid
