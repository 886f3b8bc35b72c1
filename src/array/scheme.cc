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

void ArrayScheme::IssueDiskOp(int32_t disk, int64_t byte_offset, int64_t length,
                              bool is_write, DiskOpPurpose purpose, DiskDone done) {
  assert(disk >= 0 && disk < num_disks());
  assert(byte_offset % sector_bytes_ == 0);
  assert(length > 0 && length % sector_bytes_ == 0);
  ++disk_ops_[static_cast<size_t>(purpose)];
  DiskOp op;
  op.lba = byte_offset / sector_bytes_;
  op.sectors = static_cast<int32_t>(length / sector_bytes_);
  op.is_write = is_write;
  const Probe disk_probe = disk_probes_[static_cast<size_t>(disk)];
  if (disk_probe) {
    disks_[static_cast<size_t>(disk)]->Submit(
        op,
        [disk_probe, purpose, done = std::move(done)](const DiskOpResult& r) mutable {
          if (r.ok) {
            // Emitted at completion, so per-track spans are ordered by finish
            // time (tests/obs asserts this invariant).
            disk_probe.Complete(DiskOpPurposeName(purpose), r.service_start, r.finish);
          }
          done(r.ok);
        });
  } else {
    disks_[static_cast<size_t>(disk)]->Submit(
        op, [done = std::move(done)](const DiskOpResult& r) mutable { done(r.ok); });
  }
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

Span<Segment> ArrayScheme::SegmentsOf(const ClientRequest& r) {
  layout_->SplitInto(r.offset, r.size, &split_scratch_);
  return Span<Segment>{split_scratch_.data(),
                       static_cast<int32_t>(split_scratch_.size())};
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

}  // namespace afraid
