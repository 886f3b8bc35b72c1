#include "core/parity_log_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "array/decluster.h"
#include "disk/geometry.h"

namespace afraid {

ParityLogConfig ParityLogConfig::FittedTo(int64_t disk_capacity_bytes) const {
  ParityLogConfig fitted = *this;
  fitted.log_region_bytes =
      std::min(fitted.log_region_bytes, disk_capacity_bytes / 4);
  fitted.nvram_buffer_bytes =
      std::min(fitted.nvram_buffer_bytes, fitted.log_region_bytes / 4);
  return fitted;
}

namespace {

int64_t PlDiskCapacity(const ArrayConfig& config) {
  return DiskGeometry(config.disk_spec.zones, config.disk_spec.heads,
                      config.disk_spec.sector_bytes)
      .CapacityBytes();
}

}  // namespace

ParityLogController::ParityLogController(Simulator* sim, const ArrayConfig& config,
                                         const ParityLogConfig& log_config, Probe probe)
    : ArrayScheme(sim, config.disk_spec, config.num_disks,
                  MakeLayout(config.layout, config.num_disks,
                             config.stripe_unit_bytes,
                             PlDiskCapacity(config) -
                                 log_config.FittedTo(PlDiskCapacity(config))
                                     .log_region_bytes,
                             /*parity_blocks=*/1, config.decluster_width),
                  ContentShape{config.track_content, /*parity_columns=*/1}, probe),
      log_cfg_(log_config.FittedTo(PlDiskCapacity(config))) {
  assert(log_cfg_.log_region_bytes > log_cfg_.nvram_buffer_bytes);
}

ParityLogController::~ParityLogController() = default;

void ParityLogController::WriteStripe(uint64_t request_id, int64_t /*stripe*/,
                                      Span<Segment> segs, JoinBlock* group_join) {
  JoinBlock* join =
      joins_.Make(segs.count, [group_join](bool) { group_join->Dec(true); });
  for (const Segment& seg : segs) {
    if (log_used_ >= log_cfg_.log_region_bytes) {
      // The log is hard-full: "the pending parity updates must be applied
      // immediately, interrupting foreground processing to do so." The
      // write resumes as soon as a replay batch reclaims space.
      ++hard_stalls_;
      stalled_.push_back(StalledWrite{request_id, seg, join});
    } else {
      WriteSegment(request_id, seg, join);
    }
  }
}

void ParityLogController::UpdateContentForWrite(uint64_t request_id,
                                                const Segment& seg) {
  if (content_ == nullptr) {
    return;
  }
  StoreWrite(request_id, seg, seg.block_in_stripe);
  // The images are durable, so the parity information is always live: the
  // content model tracks the post-replay parity directly.
  content_->RefreshParity(seg.stripe, seg.offset_in_block / sector_bytes_,
                          seg.length / sector_bytes_);
}

void ParityLogController::WriteSegment(uint64_t request_id, const Segment& seg,
                                       JoinBlock* join) {
  const int64_t stripe = seg.stripe;
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, seg, stripe,
                                                join] {
    const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
    const int64_t off = dl.byte_offset + seg.offset_in_block;
    if (DiskUnavailable(dl.disk, stripe)) {
      // The data disk is out: until the sweep restores the block, the new
      // data exists only as its (durable) parity-update image. No physical
      // RMW happens.
      sim_->After(0, [this, request_id, seg, join] {
        UpdateContentForWrite(request_id, seg);
        AppendImages(seg.length);
        locks_.Release(seg.stripe, LockMode::kExclusive);
        join->Dec(true);
      });
      return;
    }
    // Read-modify-write on the data block only; the parity-update image
    // (old xor new) goes to the NVRAM log buffer instead of the parity disk.
    IssueDiskOp(dl.disk, off, seg.length, /*is_write=*/false,
                DiskOpPurpose::kOldDataRead, [this, request_id, seg, join](bool) {
                  const BlockLoc wl =
                      layout_->DataLocation(seg.stripe, seg.block_in_stripe);
                  const int64_t o = wl.byte_offset + seg.offset_in_block;
                  IssueDiskOp(wl.disk, o, seg.length, /*is_write=*/true,
                              DiskOpPurpose::kClientWrite,
                              [this, request_id, seg, join](bool) {
                                UpdateContentForWrite(request_id, seg);
                                AppendImages(seg.length);
                                locks_.Release(seg.stripe, LockMode::kExclusive);
                                join->Dec(true);
                              });
                });
  });
}

void ParityLogController::AppendImages(int64_t bytes) {
  nvram_used_ += bytes;
  if (nvram_used_ >= log_cfg_.nvram_buffer_bytes) {
    FlushBuffer();
  }
}

void ParityLogController::FlushBuffer() {
  // One large sequential write of the buffered images into the log region
  // (this is where parity logging earns its efficiency: the per-image cost
  // is a fraction of a rotation instead of a full RMW).
  const int64_t flush_bytes = nvram_used_;
  nvram_used_ = 0;
  ++log_flushes_;
  const int64_t log_start = layout_->DiskDataBytes();
  const int64_t region_per_disk = log_cfg_.log_region_bytes;
  const int64_t offset_in_region =
      (log_used_ / num_disks()) % std::max<int64_t>(
          region_per_disk - flush_bytes, 1);
  int32_t disk = log_disk_cursor_;
  log_disk_cursor_ = (log_disk_cursor_ + 1) % num_disks();
  if (disk == failed_disk()) {
    // Log segments rotate; the dead disk's slot just moves to the next one
    // (at most one failure at a time, so a single skip suffices).
    disk = log_disk_cursor_;
    log_disk_cursor_ = (log_disk_cursor_ + 1) % num_disks();
  }
  const int32_t sector = sector_bytes_;
  const int64_t aligned = std::max<int64_t>(
      sector, (flush_bytes / sector) * sector);
  IssueDiskOp(disk, log_start + (offset_in_region / sector) * sector, aligned,
              /*is_write=*/true, DiskOpPurpose::kParityWrite, [](bool) {});
  log_used_ += flush_bytes;
  // Background replay starts at the high-water mark, well before the log is
  // hard-full, so foreground writes rarely stall outright.
  if (!replaying_ &&
      log_used_ >= static_cast<int64_t>(
                       kHighWater * static_cast<double>(log_cfg_.log_region_bytes))) {
    StartReplay();
  }
}

void ParityLogController::StartReplay() {
  replaying_ = true;
  ++log_replays_;
  ReplayNextBatch();
}

void ParityLogController::ReplayNextBatch() {
  // Stop once drained to the low-water mark: the array returns to pure
  // foreground service and the log refills before the next replay.
  if (log_used_ <= static_cast<int64_t>(
                       kLowWater * static_cast<double>(log_cfg_.log_region_bytes))) {
    replaying_ = false;
    return;
  }
  const int64_t unit = layout_->stripe_unit();
  const int64_t batch_bytes = std::min<int64_t>(
      log_used_, static_cast<int64_t>(log_cfg_.replay_batch_stripes) * unit);
  const int64_t log_start = layout_->DiskDataBytes();
  const int32_t sector = sector_bytes_;

  // One big sequential log read, then parity read+write pairs for each
  // affected stripe unit, spread over the disks round-robin. Foreground
  // requests share the disks FCFS -- this is the Section 2 "interference".
  const auto parity_units = static_cast<int32_t>((batch_bytes + unit - 1) / unit);
  auto after_log = [this, parity_units, unit, batch_bytes](bool) {
    JoinBlock* join = joins_.Make(parity_units, [this, batch_bytes](bool) {
      // The batch's log space is reclaimed: resume any hard-stalled writes.
      log_used_ = std::max<int64_t>(0, log_used_ - batch_bytes);
      runnable_scratch_.swap(stalled_);
      for (const StalledWrite& w : runnable_scratch_) {
        WriteSegment(w.request_id, w.seg, w.join);
      }
      runnable_scratch_.clear();
      ReplayNextBatch();
    });
    for (int32_t i = 0; i < parity_units; ++i) {
      // Representative parity locations spread across stripes and disks.
      const int64_t stripe =
          (replay_position_ + i) % std::max<int64_t>(layout_->num_stripes(), 1);
      const BlockLoc pl = layout_->ParityLocation(stripe);
      if (pl.disk == failed_disk()) {
        // The stripe's parity lives on the dead disk; the image stays
        // applied only logically until the sweep rewrites the block.
        sim_->After(0, [join] { join->Dec(true); });
        continue;
      }
      IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kRebuildRead, [this, pl, unit, join](bool) {
                    IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/true,
                                DiskOpPurpose::kRebuildWrite,
                                [join](bool) { join->Dec(true); });
                  });
    }
    replay_position_ += parity_units;
  };
  const int64_t aligned = std::max<int64_t>(
      sector, (batch_bytes / sector) * sector);
  const int32_t log_disk = log_disk_cursor_ == failed_disk()
                               ? (log_disk_cursor_ + 1) % num_disks()
                               : log_disk_cursor_;
  IssueDiskOp(log_disk, log_start, aligned, /*is_write=*/false,
              DiskOpPurpose::kRebuildRead, std::move(after_log));
}

// --- Failure machinery ------------------------------------------------------------

// --- Failure recovery -------------------------------------------------------------

void ParityLogController::ReconstructStripe(int64_t stripe, int32_t column) {
  const int32_t target = recovering_disk();
  const int32_t n = layout_->data_blocks_per_stripe();
  const int64_t unit = layout_->stripe_unit();
  const BlockLoc pl = layout_->ParityLocation(stripe);
  const int32_t j_target = column < n ? column : -1;
  const int64_t target_off =
      j_target >= 0 ? layout_->DataLocation(stripe, j_target).byte_offset
                    : pl.byte_offset;
  // Logical recovery first, under the lock. Parity is always live (the
  // images are durable), so both directions are exact: no loss mode.
  if (content_ != nullptr) {
    if (j_target >= 0) {
      content_->ReconstructBlock(stripe, j_target);
    } else {
      content_->RefreshParity(stripe);
    }
  }
  auto write_phase = [this, stripe, unit, target, target_off](bool) {
    IssueDiskOp(target, target_off, unit, /*is_write=*/true,
                DiskOpPurpose::kRecoveryWrite, [this, stripe](bool) {
                  ++stripes_rebuilt_;
                  StripeReconstructed(stripe);
                });
  };
  // n reads either way: n-1 survivors + parity for a data target, all n
  // data blocks for a parity target.
  JoinBlock* read_join = joins_.Make(n, std::move(write_phase));
  for (int32_t j = 0; j < n; ++j) {
    if (j == j_target) {
      continue;
    }
    const BlockLoc dl = layout_->DataLocation(stripe, j);
    IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                DiskOpPurpose::kRecoveryRead, [read_join](bool) { read_join->Dec(true); });
  }
  if (j_target >= 0) {
    IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/false,
                DiskOpPurpose::kRecoveryRead, [read_join](bool) { read_join->Dec(true); });
  }
}

SchemeState ParityLogController::State() const {
  SchemeState st;
  st.failed_disk = failed_disk();
  st.recovering_disk = recovering_disk();
  st.reconstruction_active = reconstruction_active();
  st.rebuild_active = replaying_;
  st.dirty_marks = PendingImagesBytes();
  st.parity_lag_bytes = 0.0;  // Full redundancy at all times.
  return st;
}

SchemeStats ParityLogController::Stats() const {
  SchemeStats s;
  s.rebuild_passes = log_replays_;
  s.stripes_rebuilt = stripes_rebuilt_;
  s.disk_ops_total = TotalDiskOps();
  return s;
}

}  // namespace afraid
