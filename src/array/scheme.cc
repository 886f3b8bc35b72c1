#include "array/scheme.h"

#include <cassert>
#include <utility>

namespace afraid {

const char* DiskOpPurposeName(DiskOpPurpose purpose) {
  switch (purpose) {
    case DiskOpPurpose::kClientRead:
      return "client read";
    case DiskOpPurpose::kClientWrite:
      return "client write";
    case DiskOpPurpose::kOldDataRead:
      return "old-data read";
    case DiskOpPurpose::kOldParityRead:
      return "old-parity read";
    case DiskOpPurpose::kParityWrite:
      return "parity write";
    case DiskOpPurpose::kReconstructRead:
      return "reconstruct read";
    case DiskOpPurpose::kRebuildRead:
      return "rebuild read";
    case DiskOpPurpose::kRebuildWrite:
      return "rebuild write";
    case DiskOpPurpose::kRecoveryRead:
      return "recovery read";
    case DiskOpPurpose::kRecoveryWrite:
      return "recovery write";
    case DiskOpPurpose::kNumPurposes:
      break;
  }
  return "unknown";
}

const char* LossCauseName(LossCause cause) {
  switch (cause) {
    case LossCause::kStaleParityDegradedRead:
      return "stale-parity degraded read";
    case LossCause::kStaleParityReconstruction:
      return "stale-parity reconstruction";
  }
  return "unknown";
}

ArrayScheme::ArrayScheme(Simulator* sim, const DiskSpec& spec, int32_t num_disks,
                         std::unique_ptr<ArrayLayout> layout, ContentShape content,
                         Probe probe)
    : sim_(sim), sector_bytes_(spec.sector_bytes), layout_(std::move(layout)) {
  assert(layout_->stripe_unit() % sector_bytes_ == 0);
  const auto mechanics = DiskMechanics::Compile(spec);
  for (int32_t d = 0; d < num_disks; ++d) {
    const Probe disk_probe = probe.NewTrack("disk" + std::to_string(d));
    disk_probes_.push_back(disk_probe);
    disks_.push_back(std::make_unique<DiskModel>(sim_, mechanics, d, disk_probe));
  }
  ctrl_probe_ = probe.NewTrack("controller");
  rebuild_probe_ = probe.NewTrack("rebuild");
  if (content.tracked) {
    content_ = std::make_unique<ContentModel>(
        layout_->data_blocks_per_stripe(), content.parity_columns,
        static_cast<int32_t>(layout_->stripe_unit() / sector_bytes_));
  }
}

ArrayScheme::~ArrayScheme() = default;

uint64_t ArrayScheme::TotalDiskOps() const {
  uint64_t total = 0;
  for (uint64_t c : disk_ops_) {
    total += c;
  }
  return total;
}

void ArrayScheme::RecordLoss(LossCause cause, int64_t stripe, int64_t bytes) {
  assert(bytes > 0);
  ++loss_events_;
  bytes_lost_ += bytes;
  if (ctrl_probe_) {
    ctrl_probe_.Instant(std::string("data loss: ") + LossCauseName(cause), sim_->Now());
  }
  if (loss_listener_) {
    LossEvent ev;
    ev.time = sim_->Now();
    ev.cause = cause;
    ev.stripe = stripe;
    ev.bytes = bytes;
    loss_listener_(ev);
  }
}

int32_t ArrayScheme::ColumnOnDisk(int64_t stripe, int32_t disk) const {
  for (int32_t j = 0; j < layout_->data_blocks_per_stripe(); ++j) {
    if (layout_->DataDisk(stripe, j) == disk) {
      return j;
    }
  }
  for (int32_t w = 0; w < layout_->parity_blocks(); ++w) {
    if (layout_->ParityDisk(stripe, w) == disk) {
      return ParityColumn(w);
    }
  }
  return -1;
}

// --- The client front end -----------------------------------------------------

void ArrayScheme::Submit(const ClientRequest& request, RequestDone done) {
  assert(request.size > 0);
  assert(request.offset >= 0 &&
         request.offset + request.size <= layout_->data_capacity_bytes());
  if (clients_++ == 0 && idle_detector_ != nullptr) {
    idle_detector_->NoteBusy();
  }
  OnClientStart();
  std::vector<Segment>* segs = seg_pool_.Acquire();
  layout_->SplitInto(request.offset, request.size, segs);
  const Segment* base = segs->data();
  const auto count = static_cast<int32_t>(segs->size());
  // A read joins its segments; a write joins its stripe groups. Split emits
  // nondecreasing stripe numbers, so a group is a contiguous run.
  int32_t parts = count;
  if (request.is_write) {
    parts = 0;
    for (int32_t i = 0; i < count; ++i) {
      if (i == 0 || base[i].stripe != base[i - 1].stripe) {
        ++parts;
      }
    }
  }
  JoinBlock* join =
      joins_.Make(parts, [this, done = std::move(done), segs](bool) mutable {
        seg_pool_.Release(segs);
        done();  // May submit the next request before this one is counted out.
        assert(clients_ > 0);
        if (--clients_ == 0 && idle_detector_ != nullptr) {
          idle_detector_->NoteIdle();
        }
        OnClientEnd();
      });
  if (!request.is_write) {
    for (int32_t i = 0; i < count; ++i) {
      ReadSegment(base[i], join);
    }
    return;
  }
  for (int32_t i = 0; i < count;) {
    int32_t j = i + 1;
    while (j < count && base[j].stripe == base[i].stripe) {
      ++j;
    }
    WriteStripe(request.id, base[i].stripe, Span<Segment>{base + i, j - i}, join);
    i = j;
  }
}

void ArrayScheme::DetectIdle(SimDuration delay, std::function<void()> on_idle) {
  idle_detector_ = std::make_unique<IdleDetector>(sim_, delay, std::move(on_idle));
}

void ArrayScheme::StoreWrite(uint64_t request_id, const Segment& seg, int32_t column) {
  if (content_ == nullptr) {
    return;
  }
  const int32_t n = layout_->data_blocks_per_stripe();
  const int32_t first = seg.offset_in_block / sector_bytes_;
  const int32_t count = seg.length / sector_bytes_;
  const int64_t logical_first = seg.logical_offset / sector_bytes_;
  for (int32_t i = 0; i < count; ++i) {
    const uint64_t v = ContentModel::MixTag(request_id, logical_first + i);
    if (column < n) {
      content_->SetData(seg.stripe, column, first + i, v);
    } else {
      content_->SetParity(seg.stripe, first + i, v, column - n);
    }
  }
}

// --- The failure state machine ------------------------------------------------

bool ArrayScheme::FailDisk(int32_t disk) {
  if (disk < 0 || disk >= num_disks() || failed_disk_ >= 0 || recovering_disk_ >= 0) {
    return false;
  }
  failed_disk_ = disk;
  disks_[static_cast<size_t>(disk)]->Fail();
  if (ctrl_probe_) {
    ctrl_probe_.Instant("fail disk" + std::to_string(disk), sim_->Now());
  }
  return true;
}

bool ArrayScheme::ReplaceDisk(int32_t disk) {
  if (disk != failed_disk_ || disk < 0) {
    return false;
  }
  disks_[static_cast<size_t>(disk)]->Replace();
  failed_disk_ = -1;
  recovering_disk_ = disk;
  recovery_frontier_ = 0;
  if (ctrl_probe_) {
    ctrl_probe_.Instant("replace disk" + std::to_string(disk), sim_->Now());
  }
  // The replacement mechanism is blank; model its contents as zeroes.
  if (content_ != nullptr) {
    for (int64_t s : content_->TouchedStripes()) {
      const int32_t column = ColumnOnDisk(s, disk);
      if (column >= 0) {
        content_->ZeroBlock(s, column);
      }
    }
  }
  return true;
}

bool ArrayScheme::StartReconstruction(std::function<void()> done) {
  if (recovering_disk_ < 0 || reconstruction_active_) {
    return false;
  }
  reconstruction_active_ = true;
  reconstruction_done_ = std::move(done);
  if (rebuild_probe_) {
    rebuild_probe_.AsyncBegin("reconstruction", 1, sim_->Now());
  }
  ReconstructNextStripe(0);
  return true;
}

void ArrayScheme::ReconstructNextStripe(int64_t stripe) {
  // Declustered layouts place only some stripes on any given disk; stripes
  // without a unit on the replaced disk need no work. Left-symmetric layouts
  // never skip.
  while (stripe < layout_->num_stripes() &&
         !layout_->StripeUsesDisk(stripe, recovering_disk_)) {
    ++stripe;
  }
  if (stripe >= layout_->num_stripes()) {
    reconstruction_active_ = false;
    recovering_disk_ = -1;
    recovery_frontier_ = 0;
    if (rebuild_probe_) {
      rebuild_probe_.AsyncEnd("reconstruction", 1, sim_->Now());
    }
    auto done = std::move(reconstruction_done_);
    reconstruction_done_ = nullptr;
    if (done) {
      done();
    }
    OnReconstructionDone();
    return;
  }
  locks_.Acquire(stripe, LockMode::kExclusive, [this, stripe] {
    const int32_t column = ColumnOnDisk(stripe, recovering_disk_);
    assert(column >= 0);
    ReconstructStripe(stripe, column);
  });
}

void ArrayScheme::StripeReconstructed(int64_t stripe) {
  recovery_frontier_ = stripe + 1;
  locks_.Release(stripe, LockMode::kExclusive);
  ReconstructNextStripe(stripe + 1);
}

// --- The degraded read --------------------------------------------------------

void ArrayScheme::ReadSegment(const Segment& seg, JoinBlock* join) {
  const BlockLoc dl = layout_->DataLocation(seg.stripe, seg.block_in_stripe);
  if (DiskUnavailable(dl.disk, seg.stripe)) {
    DegradedReadSegment(seg, join);
    return;
  }
  IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
              /*is_write=*/false, DiskOpPurpose::kClientRead,
              [this, seg, join](bool ok) {
                if (ok) {
                  join->Dec(true);
                } else {
                  DegradedReadSegment(seg, join);  // The disk died under it.
                }
              });
}

void ArrayScheme::DegradedReadSegment(const Segment& seg, JoinBlock* parent) {
  locks_.Acquire(seg.stripe, LockMode::kExclusive, [this, seg, parent] {
    const int64_t stripe = seg.stripe;
    const BlockLoc target = layout_->DataLocation(stripe, seg.block_in_stripe);
    if (!DiskUnavailable(target.disk, stripe)) {
      // The sweep restored the block while we waited on the lock: read it
      // from the replacement (read redirection).
      IssueDiskOp(target.disk, target.byte_offset + seg.offset_in_block, seg.length,
                  /*is_write=*/false, DiskOpPurpose::kClientRead,
                  [this, seg, parent](bool ok) {
                    locks_.Release(seg.stripe, LockMode::kExclusive);
                    if (ok) {
                      parent->Dec(true);
                    } else {
                      DegradedReadSegment(seg, parent);
                    }
                  });
      return;
    }
    // No other disk can fail while this one is out, so the n-1 surviving
    // data blocks and parity 0 always read back.
    const int32_t n = layout_->data_blocks_per_stripe();
    JoinBlock* join = joins_.Make(n, [this, seg, parent](bool) {
      if (RangeStale(seg.stripe, seg.offset_in_block, seg.length)) {
        // The parity was stale when the disk died: the rebuilt bytes are not
        // what the client wrote (Section 3.2).
        RecordLoss(LossCause::kStaleParityDegradedRead, seg.stripe, seg.length);
      }
      locks_.Release(seg.stripe, LockMode::kExclusive);
      parent->Dec(true);
    });
    for (int32_t j = 0; j < n; ++j) {
      if (j == seg.block_in_stripe) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                  /*is_write=*/false, DiskOpPurpose::kReconstructRead,
                  [join](bool) { join->Dec(true); });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe);
    IssueDiskOp(pl.disk, pl.byte_offset + seg.offset_in_block, seg.length,
                /*is_write=*/false, DiskOpPurpose::kReconstructRead,
                [join](bool) { join->Dec(true); });
  });
}

}  // namespace afraid
