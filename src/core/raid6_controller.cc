#include "core/raid6_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "array/decluster.h"
#include "array/gf256.h"
#include "disk/geometry.h"

namespace afraid {

std::string Raid6ModeName(Raid6Mode mode) {
  switch (mode) {
    case Raid6Mode::kSynchronous:
      return "RAID6";
    case Raid6Mode::kDeferQ:
      return "RAID6-deferQ";
    case Raid6Mode::kDeferBoth:
      return "RAID6-AFRAID";
  }
  return "unknown";
}

namespace {

// Q value of one sector position: the GF(256) syndrome sum_j g^j D_j.
uint64_t QOfData(const ContentModel& content, int64_t stripe, int32_t data_blocks,
                 int32_t sector) {
  uint64_t q = 0;
  for (int32_t j = 0; j < data_blocks; ++j) {
    q ^= Gf256::MulWord(content.GetData(stripe, j, sector), Gf256::Pow2(j));
  }
  return q;
}

}  // namespace

Raid6Controller::Raid6Controller(Simulator* sim, const ArrayConfig& config,
                                 Raid6Mode mode, Probe probe)
    : ArrayScheme(sim, config.disk_spec, config.num_disks,
                  MakeLayout(config.layout, config.num_disks,
                             config.stripe_unit_bytes,
                             DiskGeometry(config.disk_spec.zones, config.disk_spec.heads,
                                          config.disk_spec.sector_bytes)
                                 .CapacityBytes(),
                             /*parity_blocks=*/2, config.decluster_width),
                  ContentShape{config.track_content, /*parity_columns=*/2}, probe),
      mode_(mode),
      p_stale_(layout_->num_stripes()),
      q_stale_(layout_->num_stripes()),
      q_only_stale_(sim->Now()),
      both_stale_(sim->Now()) {
  assert(config.num_disks >= 4);
  DetectIdle(config.idle_delay, [this] { MaybeStartRebuild(); });
}

Raid6Controller::~Raid6Controller() = default;

bool Raid6Controller::StripeFullyConsistent(int64_t stripe) const {
  assert(content_ != nullptr);
  const int32_t n = layout_->data_blocks_per_stripe();
  for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
    if (content_->GetParity(stripe, s, 0) != content_->XorOfData(stripe, s)) {
      return false;
    }
    if (content_->GetParity(stripe, s, 1) != QOfData(*content_, stripe, n, s)) {
      return false;
    }
  }
  return true;
}

void Raid6Controller::RefreshQ(int64_t stripe) {
  // A stripe the content model does not store is all zero, Q included.
  if (!content_->Stores(stripe)) {
    return;
  }
  const int32_t n = layout_->data_blocks_per_stripe();
  for (int32_t s = 0; s < content_->sectors_per_unit(); ++s) {
    content_->SetParity(stripe, s, QOfData(*content_, stripe, n, s), 1);
  }
}

void Raid6Controller::UpdateExposure() {
  const double stripe_bytes =
      static_cast<double>(layout_->data_blocks_per_stripe()) *
      static_cast<double>(layout_->stripe_unit());
  const double both = static_cast<double>(p_stale_.DirtyCount()) * stripe_bytes;
  const double q_only =
      static_cast<double>(q_stale_.DirtyCount() - p_stale_.DirtyCount()) *
      stripe_bytes;
  both_stale_.Set(sim_->Now(), both);
  q_only_stale_.Set(sim_->Now(), q_only);
}

void Raid6Controller::MarkStale(int64_t stripe, bool p, bool q) {
  if (p) {
    p_stale_.Mark(stripe);
  }
  if (q) {
    q_stale_.Mark(stripe);
  }
  max_stale_stripes_ = std::max(max_stale_stripes_, q_stale_.DirtyCount());
  UpdateExposure();
}

void Raid6Controller::ClearStale(int64_t stripe) {
  p_stale_.Clear(stripe);
  q_stale_.Clear(stripe);
  UpdateExposure();
}

bool Raid6Controller::RangeStale(int64_t stripe, int32_t /*offset_in_block*/,
                                 int32_t /*length*/) const {
  // Degraded reads rebuild through P. Q is stale wherever P is (q_stale_ is a
  // superset of p_stale_), so a stale P leaves no live parity at all.
  assert(!p_stale_.IsDirty(stripe) || q_stale_.IsDirty(stripe));
  return p_stale_.IsDirty(stripe);
}

void Raid6Controller::WriteStripe(uint64_t request_id, int64_t stripe,
                                  Span<Segment> segs, JoinBlock* group_join) {
  if (failed_disk() >= 0 || recovering_disk() >= 0) {
    DegradedWriteStripe(request_id, stripe, segs, group_join);
    return;
  }
  if (mode_ == Raid6Mode::kSynchronous) {
    ++sync_mode_writes_;
  } else {
    ++deferred_mode_writes_;
  }
  // For clarity this controller serialises all work on a stripe (writes and
  // rebuilds alike take the stripe exclusively); cross-stripe parallelism is
  // untouched. The RAID 5-family controller models the finer shared locking.
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs,
                                                group_join] {
    const int32_t sector = sector_bytes_;

    // Parity deltas over the touched span (valid because of the exclusive
    // lock): dP = old ^ new; dQ = g^j * (old ^ new). Pooled buffers,
    // released when the write phase's join fires.
    int32_t span_lo = INT32_MAX;
    int32_t span_hi = 0;
    for (const Segment& seg : segs) {
      span_lo = std::min(span_lo, seg.offset_in_block);
      span_hi = std::max(span_hi, seg.offset_in_block + seg.length);
    }
    const int32_t first_sector = span_lo / sector;
    const int32_t span_sectors = (span_hi - span_lo) / sector;
    std::vector<uint64_t>* dp = nullptr;
    std::vector<uint64_t>* dq = nullptr;
    if (content_ != nullptr) {
      dp = u64_pool_.Acquire();
      dq = u64_pool_.Acquire();
      dp->assign(static_cast<size_t>(span_sectors), 0);
      dq->assign(static_cast<size_t>(span_sectors), 0);
      for (const Segment& seg : segs) {
        const int32_t first = seg.offset_in_block / sector;
        const int32_t count = seg.length / sector;
        const int64_t logical_first = seg.logical_offset / sector;
        for (int32_t i = 0; i < count; ++i) {
          const uint64_t old_v =
              content_->GetData(stripe, seg.block_in_stripe, first + i);
          const uint64_t new_v = ContentModel::MixTag(request_id, logical_first + i);
          const uint64_t delta = old_v ^ new_v;
          (*dp)[static_cast<size_t>(first + i - first_sector)] ^= delta;
          (*dq)[static_cast<size_t>(first + i - first_sector)] ^=
              Gf256::MulWord(delta, Gf256::Pow2(seg.block_in_stripe));
        }
      }
    }

    const bool update_p = mode_ != Raid6Mode::kDeferBoth;
    const bool update_q = mode_ == Raid6Mode::kSynchronous;

    auto write_phase = [this, request_id, stripe, segs, span_lo, span_hi,
                        first_sector, update_p, update_q, dp, dq, group_join](bool) {
      const int32_t writes =
          segs.count + (update_p ? 1 : 0) + (update_q ? 1 : 0);
      JoinBlock* join = joins_.Make(writes, [this, stripe, dp, dq,
                                             group_join](bool) {
        if (dp != nullptr) {
          u64_pool_.Release(dp);
          u64_pool_.Release(dq);
        }
        locks_.Release(stripe, LockMode::kExclusive);
        // Deferred parity work may now be pending.
        if (mode_ != Raid6Mode::kSynchronous && q_stale_.DirtyCount() > 0 &&
            drain_done_ != nullptr && !rebuilding_) {
          MaybeStartRebuild();
        }
        group_join->Dec(true);
      });
      for (const Segment& seg : segs) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                    /*is_write=*/true, DiskOpPurpose::kClientWrite,
                    [this, request_id, seg, join](bool ok) {
                      if (ok) {
                        StoreWrite(request_id, seg, seg.block_in_stripe);
                      }
                      join->Dec(true);
                    });
      }
      if (update_p) {
        const BlockLoc pl = layout_->ParityLocation(stripe, 0);
        IssueDiskOp(pl.disk, pl.byte_offset + span_lo,
                    span_hi - span_lo, /*is_write=*/true, DiskOpPurpose::kParityWrite,
                    [this, stripe, first_sector, dp, join](bool ok) {
                      if (ok && content_ != nullptr) {
                        for (size_t i = 0; i < dp->size(); ++i) {
                          const auto s = first_sector + static_cast<int32_t>(i);
                          content_->SetParity(
                              stripe, s, content_->GetParity(stripe, s, 0) ^ (*dp)[i],
                              0);
                        }
                      }
                      join->Dec(true);
                    });
      }
      if (update_q) {
        const BlockLoc ql = layout_->ParityLocation(stripe, 1);
        IssueDiskOp(ql.disk, ql.byte_offset + span_lo,
                    span_hi - span_lo, /*is_write=*/true, DiskOpPurpose::kParityWrite,
                    [this, stripe, first_sector, dq, join](bool ok) {
                      if (ok && content_ != nullptr) {
                        for (size_t i = 0; i < dq->size(); ++i) {
                          const auto s = first_sector + static_cast<int32_t>(i);
                          content_->SetParity(
                              stripe, s, content_->GetParity(stripe, s, 1) ^ (*dq)[i],
                              1);
                        }
                      }
                      join->Dec(true);
                    });
      }
    };

    // Staleness marking happens before data hits the disk.
    switch (mode_) {
      case Raid6Mode::kSynchronous:
        break;
      case Raid6Mode::kDeferQ:
        MarkStale(stripe, /*p=*/false, /*q=*/true);
        break;
      case Raid6Mode::kDeferBoth:
        MarkStale(stripe, /*p=*/true, /*q=*/true);
        break;
    }

    // Pre-read phase: old data for every written segment, plus old P/Q spans
    // when the corresponding parity is updated in place. A parity that is
    // already stale needs no pre-read (the rebuild recomputes from scratch).
    int32_t reads = 0;
    if (update_p || update_q) {
      reads += static_cast<int32_t>(segs.size());
    }
    if (update_p) {
      ++reads;
    }
    if (update_q) {
      ++reads;
    }
    if (reads == 0) {
      write_phase(true);
      return;
    }
    JoinBlock* read_join = joins_.Make(reads, write_phase);
    if (update_p || update_q) {
      for (const Segment& seg : segs) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                    /*is_write=*/false, DiskOpPurpose::kOldDataRead,
                    [read_join](bool) { read_join->Dec(true); });
      }
    }
    if (update_p) {
      const BlockLoc pl = layout_->ParityLocation(stripe, 0);
      IssueDiskOp(pl.disk, pl.byte_offset + span_lo,
                  span_hi - span_lo, /*is_write=*/false, DiskOpPurpose::kOldParityRead,
                  [read_join](bool) { read_join->Dec(true); });
    }
    if (update_q) {
      const BlockLoc ql = layout_->ParityLocation(stripe, 1);
      IssueDiskOp(ql.disk, ql.byte_offset + span_lo,
                  span_hi - span_lo, /*is_write=*/false, DiskOpPurpose::kOldParityRead,
                  [read_join](bool) { read_join->Dec(true); });
    }
  });
}

void Raid6Controller::MaybeStartRebuild() {
  // No background parity freshening while a disk is missing or the sweep is
  // repopulating a replacement: the stale stripes need the failure machinery's
  // reconstruct logic, not a delta rebuild against garbage blocks.
  if (failed_disk() >= 0 || recovering_disk() >= 0) {
    return;
  }
  if (rebuilding_ || q_stale_.DirtyCount() == 0) {
    if (!rebuilding_ && drain_done_ != nullptr && q_stale_.DirtyCount() == 0) {
      auto done = std::move(drain_done_);
      drain_done_ = nullptr;
      done();
    }
    return;
  }
  rebuilding_ = true;
  RebuildNext();
}

void Raid6Controller::RebuildNext() {
  // A disk that dies mid-pass stops it, as it stops AFRAID's: its stale
  // stripes need the sweep's reconstruct step, not a refresh that reads the
  // dead (or blank) block. The pass resumes once the sweep is done.
  if (failed_disk() >= 0 || recovering_disk() >= 0) {
    rebuilding_ = false;
    return;
  }
  const int64_t stripe = q_stale_.NextDirty(rebuild_cursor_);
  if (stripe < 0) {
    rebuilding_ = false;
    if (drain_done_ != nullptr) {
      auto done = std::move(drain_done_);
      drain_done_ = nullptr;
      done();
    }
    return;
  }
  JoinBlock* step_join = joins_.Make(1, [this, stripe](bool ok) {
    rebuild_cursor_ = stripe + 1;
    if (ok) {
      ++stripes_rebuilt_;
    }
    const bool keep_going = drain_done_ != nullptr || clients_in_flight() == 0;
    if (keep_going && q_stale_.DirtyCount() > 0) {
      RebuildNext();
    } else {
      rebuilding_ = false;
      if (drain_done_ != nullptr && q_stale_.DirtyCount() == 0) {
        auto done = std::move(drain_done_);
        drain_done_ = nullptr;
        done();
      }
    }
  });
  RebuildStripe(stripe, step_join);
}

void Raid6Controller::RebuildStripe(int64_t stripe, JoinBlock* step_join) {
  locks_.Acquire(stripe, LockMode::kExclusive, [this, stripe, step_join] {
    const int32_t n = layout_->data_blocks_per_stripe();
    const int64_t unit = layout_->stripe_unit();
    const bool p_needed = p_stale_.IsDirty(stripe);

    // A failed read or write leaves the stripe stale: its parity was not
    // recomputed from the whole data.
    auto writes = [this, stripe, unit, p_needed, step_join](bool reads_ok) {
      if (!reads_ok) {
        locks_.Release(stripe, LockMode::kExclusive);
        step_join->Dec(false);
        return;
      }
      JoinBlock* join =
          joins_.Make(p_needed ? 2 : 1, [this, stripe, step_join](bool ok) {
            if (ok) {
              ClearStale(stripe);
            }
            locks_.Release(stripe, LockMode::kExclusive);
            step_join->Dec(ok);
          });
      if (p_needed) {
        const BlockLoc pl = layout_->ParityLocation(stripe, 0);
        IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/true,
                    DiskOpPurpose::kRebuildWrite, [this, stripe, join](bool ok) {
                      if (ok && content_ != nullptr) {
                        content_->RefreshParity(stripe);
                      }
                      join->Dec(ok);
                    });
      }
      const BlockLoc ql = layout_->ParityLocation(stripe, 1);
      IssueDiskOp(ql.disk, ql.byte_offset, unit, /*is_write=*/true,
                  DiskOpPurpose::kRebuildWrite, [this, stripe, join](bool ok) {
                    if (ok && content_ != nullptr) {
                      RefreshQ(stripe);
                    }
                    join->Dec(ok);
                  });
    };

    JoinBlock* read_join = joins_.Make(n, writes);
    for (int32_t j = 0; j < n; ++j) {
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kRebuildRead, [read_join](bool ok) { read_join->Dec(ok); });
    }
  });
}

void Raid6Controller::RebuildAll(std::function<void()> done) {
  if (q_stale_.DirtyCount() == 0) {
    sim_->After(0, std::move(done));
    return;
  }
  drain_done_ = std::move(done);
  if (!rebuilding_) {
    rebuilding_ = true;
    RebuildNext();
  }
}

// --- Failure machinery ------------------------------------------------------------

void Raid6Controller::DegradedWriteStripe(uint64_t request_id, int64_t stripe,
                                          Span<Segment> segs,
                                          JoinBlock* group_join) {
  // Degraded analogue of AFRAID's forced-RAID 5 mode: with a disk out,
  // deferring parity would leave the new data unprotected against the failure
  // already in progress, so the write becomes a synchronous reconstruct-write:
  // read the surviving untouched data blocks, write the data, and rewrite both
  // live parities from scratch.
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs,
                                                group_join] {
    const int32_t n = layout_->data_blocks_per_stripe();
    const int64_t unit = layout_->stripe_unit();
    const BlockLoc p_loc = layout_->ParityLocation(stripe, 0);
    const BlockLoc q_loc = layout_->ParityLocation(stripe, 1);
    const bool p_avail = !DiskUnavailable(p_loc.disk, stripe);
    const bool q_avail = !DiskUnavailable(q_loc.disk, stripe);

    assert(n <= 62);
    uint64_t written = 0;
    for (const Segment& seg : segs) {
      written |= 1ull << seg.block_in_stripe;
    }

    // If the unavailable disk holds a data block this group does not rewrite
    // and both parities were stale when the disk died, the recompute below
    // enshrines a value nobody can vouch for: that block's old bytes are lost
    // (Section 3.2's small-loss mode, RAID 6 flavour).
    if (p_stale_.IsDirty(stripe) && q_stale_.IsDirty(stripe)) {
      for (int32_t j = 0; j < n; ++j) {
        if ((written & (1ull << j)) != 0) {
          continue;
        }
        if (DiskUnavailable(layout_->DataDisk(stripe, j), stripe)) {
          RecordLoss(LossCause::kStaleParityReconstruction, stripe, unit);
        }
      }
    }

    // Logical state first (the exclusive lock spans the whole exchange, so
    // content may lead the timing ops): data tags, then fresh P and Q. A
    // parity on the unavailable disk stays stale-marked; the reconstruction
    // sweep rewrites it.
    if (content_ != nullptr) {
      for (const Segment& seg : segs) {
        StoreWrite(request_id, seg, seg.block_in_stripe);
      }
      if (p_avail) {
        content_->RefreshParity(stripe);
      }
      if (q_avail) {
        RefreshQ(stripe);
      }
    }
    if (p_avail) {
      p_stale_.Clear(stripe);
    }
    // q_stale_ must stay a superset of p_stale_ (UpdateExposure's subtraction
    // relies on it), so Q only goes fresh once P is fresh too.
    if (q_avail && !p_stale_.IsDirty(stripe)) {
      q_stale_.Clear(stripe);
    }
    UpdateExposure();
    ++sync_mode_writes_;

    // Timing: read surviving untouched data blocks, then write data and the
    // live parities. Ops aimed at the unavailable disk produce no traffic;
    // their join slots resolve through a zero-delay event.
    int32_t reads = 0;
    for (int32_t j = 0; j < n; ++j) {
      if ((written & (1ull << j)) != 0 ||
          DiskUnavailable(layout_->DataDisk(stripe, j), stripe)) {
        continue;
      }
      ++reads;
    }
    const int32_t writes = segs.count + (p_avail ? 1 : 0) + (q_avail ? 1 : 0);
    auto write_phase = [this, stripe, segs, unit, writes, p_avail, q_avail,
                        p_loc, q_loc, group_join](bool) {
      JoinBlock* join = joins_.Make(writes, [this, stripe, group_join](bool) {
        locks_.Release(stripe, LockMode::kExclusive);
        group_join->Dec(true);
      });
      for (const Segment& seg : segs) {
        const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
        if (DiskUnavailable(dl.disk, stripe)) {
          sim_->After(0, [join] { join->Dec(true); });
          continue;
        }
        IssueDiskOp(dl.disk, dl.byte_offset + seg.offset_in_block, seg.length,
                    /*is_write=*/true, DiskOpPurpose::kClientWrite,
                    [join](bool) { join->Dec(true); });
      }
      if (p_avail) {
        IssueDiskOp(p_loc.disk, p_loc.byte_offset, unit, /*is_write=*/true,
                    DiskOpPurpose::kParityWrite, [join](bool) { join->Dec(true); });
      }
      if (q_avail) {
        IssueDiskOp(q_loc.disk, q_loc.byte_offset, unit, /*is_write=*/true,
                    DiskOpPurpose::kParityWrite, [join](bool) { join->Dec(true); });
      }
    };
    if (reads == 0) {
      write_phase(true);
      return;
    }
    JoinBlock* read_join = joins_.Make(reads, std::move(write_phase));
    for (int32_t j = 0; j < n; ++j) {
      if ((written & (1ull << j)) != 0) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      if (DiskUnavailable(dl.disk, stripe)) {
        continue;
      }
      IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kReconstructRead,
                  [read_join](bool) { read_join->Dec(true); });
    }
  });
}

void Raid6Controller::ReconstructStripe(int64_t stripe, int32_t column) {
  const int32_t target = recovering_disk();
  const int32_t n = layout_->data_blocks_per_stripe();
  const int64_t unit = layout_->stripe_unit();
  const int32_t j_target = column < n ? column : -1;
  const int32_t parity_target = column < n ? -1 : column - n;
  const bool p_stale = p_stale_.IsDirty(stripe);
  const bool q_stale = q_stale_.IsDirty(stripe);
  // q_stale_ is a superset of p_stale_, so a data block always rebuilds
  // through P: either P is live, or both parities are stale.
  assert(!p_stale || q_stale);
  // The sweep leaves every stripe behind the frontier fully redundant: it
  // rewrites the replaced disk's block plus any parity that was stale.
  const bool write_p = parity_target == 0 || p_stale;
  const bool write_q = parity_target == 1 || q_stale;

  if (j_target >= 0 && p_stale && q_stale) {
    // Both parities were stale when the disk died: nothing vouches for the
    // lost block. What lands on the replacement is the xor of the
    // survivors against the stale P (the Section 3.2 small-loss mode).
    RecordLoss(LossCause::kStaleParityReconstruction, stripe, unit);
  }

  // Logical recovery first, under the lock, in dependency order: the data
  // block from P, then the parities from the data.
  if (content_ != nullptr) {
    if (j_target >= 0) {
      content_->ReconstructBlock(stripe, j_target);
    }
    if (write_p) {
      content_->RefreshParity(stripe);
    }
    if (write_q) {
      RefreshQ(stripe);
    }
  }

  auto advance = [this, stripe, write_p, write_q](bool) {
    if (write_p) {
      p_stale_.Clear(stripe);
    }
    if (write_q) {
      q_stale_.Clear(stripe);
    }
    UpdateExposure();
    ++stripes_rebuilt_;
    StripeReconstructed(stripe);
  };

  // Timing: n reads either way (n-1 survivors + a live parity for a data
  // target; all n data blocks for a parity target), then the target write
  // plus any refreshed parity.
  const int32_t writes =
      (j_target >= 0 ? 1 : 0) + (write_p ? 1 : 0) + (write_q ? 1 : 0);
  const int64_t target_off =
      j_target >= 0 ? layout_->DataLocation(stripe, j_target).byte_offset : 0;
  auto write_phase = [this, stripe, unit, target, target_off, j_target,
                      write_p, write_q, writes, advance](bool) {
    JoinBlock* join = joins_.Make(writes, advance);
    if (j_target >= 0) {
      IssueDiskOp(target, target_off, unit, /*is_write=*/true,
                  DiskOpPurpose::kRecoveryWrite, [join](bool) { join->Dec(true); });
    }
    if (write_p) {
      const BlockLoc pl = layout_->ParityLocation(stripe, 0);
      IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/true,
                  DiskOpPurpose::kRecoveryWrite, [join](bool) { join->Dec(true); });
    }
    if (write_q) {
      const BlockLoc ql = layout_->ParityLocation(stripe, 1);
      IssueDiskOp(ql.disk, ql.byte_offset, unit, /*is_write=*/true,
                  DiskOpPurpose::kRecoveryWrite, [join](bool) { join->Dec(true); });
    }
  };
  JoinBlock* read_join = joins_.Make(n, std::move(write_phase));
  if (j_target >= 0) {
    for (int32_t j = 0; j < n; ++j) {
      if (j == j_target) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kRecoveryRead, [read_join](bool) { read_join->Dec(true); });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe, 0);
    IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/false,
                DiskOpPurpose::kRecoveryRead, [read_join](bool) { read_join->Dec(true); });
  } else {
    for (int32_t j = 0; j < n; ++j) {
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                  DiskOpPurpose::kRecoveryRead, [read_join](bool) { read_join->Dec(true); });
    }
  }
}

// --- ArrayScheme snapshots --------------------------------------------------------

const char* Raid6Controller::SchemeName() const {
  switch (mode_) {
    case Raid6Mode::kSynchronous:
      return "raid6";
    case Raid6Mode::kDeferQ:
      return "raid6-deferQ";
    case Raid6Mode::kDeferBoth:
      return "raid6-deferPQ";
  }
  return "raid6";
}

SchemeState Raid6Controller::State() const {
  SchemeState st;
  st.failed_disk = failed_disk();
  st.recovering_disk = recovering_disk();
  st.reconstruction_active = reconstruction_active();
  st.rebuild_active = rebuilding_;
  st.dirty_marks = StaleP() + StaleQ();
  st.parity_lag_bytes = both_stale_.Current();
  st.last_write_raid5 = false;
  st.loss_events = LossEvents();
  st.bytes_lost = BytesLost();
  return st;
}

SchemeStats Raid6Controller::Stats() const {
  SchemeStats s;
  s.mean_parity_lag_bytes = MeanFullyExposedBytes();
  s.t_unprot_fraction = TBothStaleFraction();
  s.max_dirty_stripes = max_stale_stripes_;
  s.stripes_rebuilt = stripes_rebuilt_;
  s.afraid_mode_writes = deferred_mode_writes_;
  s.raid5_mode_writes = sync_mode_writes_;
  s.disk_ops_total = TotalDiskOps();
  s.loss_events = LossEvents();
  s.bytes_lost = BytesLost();
  return s;
}

}  // namespace afraid
