#include "core/mirror_controller.h"

#include <cassert>
#include <utility>

#include "disk/geometry.h"

namespace afraid {

MirrorController::MirrorController(Simulator* sim, const ArrayConfig& config)
    : sim_(sim),
      cfg_(config),
      layout_(config.num_disks / 2, config.stripe_unit_bytes,
              DiskGeometry(config.disk_spec.zones, config.disk_spec.heads,
                           config.disk_spec.sector_bytes)
                  .CapacityBytes(),
              /*parity_blocks=*/0) {
  assert(cfg_.num_disks >= 2 && cfg_.num_disks % 2 == 0);
  const auto mechanics = DiskMechanics::Compile(cfg_.disk_spec);
  for (int32_t d = 0; d < cfg_.num_disks; ++d) {
    disks_.push_back(std::make_unique<DiskModel>(sim_, mechanics, d));
  }
  if (cfg_.track_content) {
    // One "data" slot per column for the primary copy and one "parity" slot
    // per column for the twin, so copy divergence is observable.
    content_ = std::make_unique<ContentModel>(
        layout_.data_blocks_per_stripe(), layout_.data_blocks_per_stripe(),
        static_cast<int32_t>(cfg_.stripe_unit_bytes / cfg_.disk_spec.sector_bytes));
  }
}

MirrorController::~MirrorController() = default;

void MirrorController::IssueDiskOp(int32_t disk, int64_t byte_offset,
                                   int64_t length, bool is_write, DiskDone done) {
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  assert(byte_offset % sector == 0 && length > 0 && length % sector == 0);
  ++disk_ops_;
  DiskOp op;
  op.lba = byte_offset / sector;
  op.sectors = static_cast<int32_t>(length / sector);
  op.is_write = is_write;
  disks_[static_cast<size_t>(disk)]->Submit(
      op, [done = std::move(done)](const DiskOpResult& r) mutable { done(r.ok); });
}

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
  const DiskModel& a = *disks_[static_cast<size_t>(primary)];
  const DiskModel& b = *disks_[static_cast<size_t>(twin)];
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

void MirrorController::Submit(const ClientRequest& request, RequestDone done) {
  assert(request.size > 0);
  assert(request.offset >= 0 &&
         request.offset + request.size <= layout_.data_capacity_bytes());
  if (request.is_write) {
    DoWrite(request, std::move(done));
  } else {
    DoRead(request, std::move(done));
  }
}

void MirrorController::DoRead(const ClientRequest& r, RequestDone done) {
  // Planned requests carry their precompiled Split() (see array/plan.h).
  Span<Segment> segs{r.plan_segs, r.plan_seg_count};
  if (r.plan_segs == nullptr) {
    layout_.SplitInto(r.offset, r.size, &split_scratch_);
    segs = Span<Segment>{split_scratch_.data(),
                         static_cast<int32_t>(split_scratch_.size())};
  }
  JoinBlock* join = joins_.Make(
      segs.count, [done = std::move(done)](bool) mutable { done(); });
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  for (const Segment& seg : segs) {
    const int32_t col = layout_.DataDisk(seg.stripe, seg.block_in_stripe);
    const int32_t primary = 2 * col;
    const int64_t off = seg.stripe * layout_.stripe_unit() + seg.offset_in_block;
    DiskOp op;
    op.lba = off / sector;
    op.sectors = seg.length / sector;
    op.is_write = false;
    const int32_t pick = ChooseReplica(seg.stripe, primary, op);
    if (pick != primary) {
      ++replica_reads_;
    }
    IssueDiskOp(pick, off, seg.length, /*is_write=*/false,
                [join](bool) { join->Dec(true); });
  }
}

void MirrorController::DoWrite(const ClientRequest& r, RequestDone done) {
  Span<Segment> segs{r.plan_segs, r.plan_seg_count};
  if (r.plan_segs == nullptr) {
    layout_.SplitInto(r.offset, r.size, &split_scratch_);
    segs = Span<Segment>{split_scratch_.data(),
                         static_cast<int32_t>(split_scratch_.size())};
  }
  JoinBlock* join = joins_.Make(
      segs.count, [done = std::move(done)](bool) mutable { done(); });
  for (const Segment& seg : segs) {
    WriteSegment(r.id, seg, join);
  }
}

void MirrorController::WriteSegment(uint64_t request_id, const Segment& seg,
                                    JoinBlock* join) {
  // The stripe lock serialises copy updates against the reconstruction
  // sweep's twin -> replacement copy, so the two halves cannot be observed
  // (or frozen) mid-divergence.
  locks_.Acquire(seg.stripe, LockMode::kExclusive, [this, request_id, seg, join] {
    const int32_t col = layout_.DataDisk(seg.stripe, seg.block_in_stripe);
    const int32_t primary = 2 * col;
    const int64_t off = seg.stripe * layout_.stripe_unit() + seg.offset_in_block;
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
      IssueDiskOp(d, off, seg.length, /*is_write=*/true,
                  [this, request_id, seg, side, pair](bool ok) {
                    if (ok && content_ != nullptr) {
                      const int32_t sector = cfg_.disk_spec.sector_bytes;
                      const int32_t first = seg.offset_in_block / sector;
                      const int32_t count = seg.length / sector;
                      const int64_t logical_first = seg.logical_offset / sector;
                      for (int32_t i = 0; i < count; ++i) {
                        const uint64_t v =
                            ContentModel::MixTag(request_id, logical_first + i);
                        if (side == 0) {
                          content_->SetData(seg.stripe, seg.block_in_stripe,
                                            first + i, v);
                        } else {
                          content_->SetParity(seg.stripe, first + i, v,
                                              seg.block_in_stripe);
                        }
                      }
                    }
                    pair->Dec(true);
                  });
    }
  });
}

bool MirrorController::StripeMirrorConsistent(int64_t stripe) const {
  assert(content_ != nullptr);
  for (int32_t j = 0; j < layout_.data_blocks_per_stripe(); ++j) {
    for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
      if (content_->GetData(stripe, j, s) != content_->GetParity(stripe, s, j)) {
        return false;
      }
    }
  }
  return true;
}

// --- Failure machinery ------------------------------------------------------------

bool MirrorController::FailDisk(int32_t disk) {
  if (disk < 0 || disk >= cfg_.num_disks || failed_disk_ >= 0 ||
      recovering_disk_ >= 0) {
    return false;
  }
  failed_disk_ = disk;
  disks_[static_cast<size_t>(disk)]->Fail();
  return true;
}

bool MirrorController::ReplaceDisk(int32_t disk) {
  if (disk != failed_disk_ || disk < 0) {
    return false;
  }
  disks_[static_cast<size_t>(disk)]->Replace();
  failed_disk_ = -1;
  recovering_disk_ = disk;
  recovery_frontier_ = 0;
  // The replacement mechanism is blank; model its copy as zeroes.
  if (content_ != nullptr) {
    const int32_t col = disk / 2;
    const int32_t side = disk % 2;
    for (int64_t s : content_->TouchedStripes()) {
      for (int32_t j = 0; j < layout_.data_blocks_per_stripe(); ++j) {
        if (layout_.DataDisk(s, j) == col) {
          content_->ZeroBlock(s, side == 0 ? j : content_->ParityColumn(j));
        }
      }
    }
  }
  return true;
}

bool MirrorController::StartReconstruction(std::function<void()> done) {
  if (recovering_disk_ < 0 || reconstruction_active_) {
    return false;
  }
  reconstruction_active_ = true;
  reconstruction_done_ = std::move(done);
  ReconstructNextStripe(0);
  return true;
}

void MirrorController::ReconstructNextStripe(int64_t stripe) {
  if (stripe >= layout_.num_stripes()) {
    reconstruction_active_ = false;
    recovering_disk_ = -1;
    recovery_frontier_ = 0;
    auto done = std::move(reconstruction_done_);
    reconstruction_done_ = nullptr;
    if (done) {
      done();
    }
    return;
  }
  locks_.Acquire(stripe, LockMode::kExclusive, [this, stripe] {
    const int32_t target = recovering_disk_;
    const int32_t col = target / 2;
    const int32_t side = target % 2;
    const int32_t twin = side == 0 ? target + 1 : target - 1;
    const int64_t unit = layout_.stripe_unit();
    // The column's block in this stripe (each column holds exactly one).
    int32_t jb = -1;
    for (int32_t j = 0; j < layout_.data_blocks_per_stripe(); ++j) {
      if (layout_.DataDisk(stripe, j) == col) {
        jb = j;
        break;
      }
    }
    assert(jb >= 0);
    // Logical copy first, under the lock: twin -> replacement, exact. Column
    // jb holds the even disk's copy, ParityColumn(jb) the odd disk's.
    if (content_ != nullptr) {
      const int32_t odd_col = content_->ParityColumn(jb);
      if (side == 0) {
        content_->CopyBlock(stripe, odd_col, jb);
      } else {
        content_->CopyBlock(stripe, jb, odd_col);
      }
    }
    auto advance = [this, stripe](bool) {
      ++stripes_rebuilt_;
      recovery_frontier_ = stripe + 1;
      locks_.Release(stripe, LockMode::kExclusive);
      ReconstructNextStripe(stripe + 1);
    };
    IssueDiskOp(twin, stripe * unit, unit, /*is_write=*/false,
                [this, stripe, target, unit, advance](bool) {
                  IssueDiskOp(target, stripe * unit, unit, /*is_write=*/true,
                              [advance](bool) mutable { advance(true); });
                });
  });
}

SchemeState MirrorController::State() const {
  SchemeState st;
  st.failed_disk = failed_disk_;
  st.recovering_disk = recovering_disk_;
  st.reconstruction_active = reconstruction_active_;
  st.parity_lag_bytes = 0.0;  // The twin is updated in the write itself.
  return st;
}

SchemeStats MirrorController::Stats() const {
  SchemeStats s;
  s.stripes_rebuilt = stripes_rebuilt_;
  s.disk_ops_total = disk_ops_;
  return s;
}

}  // namespace afraid
