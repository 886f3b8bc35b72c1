#include "core/afraid_controller.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "array/decluster.h"
#include "disk/geometry.h"

namespace afraid {

AfraidController::AfraidController(Simulator* sim, const ArrayConfig& config,
                                   std::unique_ptr<ParityPolicy> policy,
                                   const AvailabilityParams& avail_params, Probe probe)
    : ArrayScheme(sim, config.disk_spec, config.num_disks,
                  MakeLayout(config.layout, config.num_disks,
                             config.stripe_unit_bytes,
                             DiskGeometry(config.disk_spec.zones, config.disk_spec.heads,
                                          config.disk_spec.sector_bytes)
                                 .CapacityBytes(),
                             config.parity_blocks, config.decluster_width),
                  ContentShape{config.track_content, config.parity_blocks}, probe),
      cfg_(config),
      policy_(std::move(policy)),
      avail_params_(avail_params),
      nvram_(layout_->num_stripes() * config.marks_per_stripe),
      read_cache_(config.read_cache_bytes, config.stripe_unit_bytes),
      staging_(config.write_staging_bytes, config.stripe_unit_bytes),
      start_time_(sim->Now()),
      unprot_bytes_(sim->Now()),
      busy_clients_(sim->Now()) {
  assert(cfg_.parity_blocks == 1);  // RAID 6 lives in Raid6Controller.
  assert(cfg_.marks_per_stripe >= 1);
  // Bands must be sector-aligned on every block.
  assert((cfg_.stripe_unit_bytes / cfg_.disk_spec.sector_bytes) %
             cfg_.marks_per_stripe ==
         0);
  idle_detector_ = std::make_unique<IdleDetector>(sim_, cfg_.idle_delay, [this] {
    // The array has been completely idle for the configured delay: start
    // processing pending parity updates if the policy permits.
    if (rebuilding_ || scrub_active_ || reconstruction_active() || failed_disk() >= 0 ||
        nvram_.failed() || nvram_.DirtyCount() == 0) {
      return;
    }
    if (cfg_.use_idle_predictor) {
      // [Golding95]: skip gaps predicted too short for even one rebuild
      // step -- starting one would only collide with the next burst.
      const SimDuration predicted = idle_predictor_.PredictRemaining(cfg_.idle_delay);
      if (idle_predictor_.Observations() >= 4 &&
          static_cast<double>(predicted) < rebuild_step_estimate_ns_) {
        ++predictor_skips_;
        return;
      }
    }
    if (policy_->RebuildOnIdle(MakePolicyContext())) {
      BeginRebuildPass();
      RebuildNext();
    }
  });
}

AfraidController::~AfraidController() = default;

std::string AfraidController::PolicyLabel() const { return policy_->Name(); }

SchemeState AfraidController::State() const {
  SchemeState st;
  st.failed_disk = failed_disk();
  st.recovering_disk = recovering_disk();
  st.reconstruction_active = reconstruction_active();
  st.rebuild_active = rebuilding_;
  st.dirty_marks = nvram_.DirtyCount();
  st.parity_lag_bytes = CurrentParityLagBytes();
  st.last_write_raid5 = last_write_raid5_;
  st.loss_events = LossEvents();
  st.bytes_lost = BytesLost();
  return st;
}

SchemeStats AfraidController::Stats() const {
  SchemeStats s;
  s.mean_parity_lag_bytes = MeanParityLagBytes();
  s.t_unprot_fraction = TUnprotFraction();
  s.max_dirty_stripes = MaxDirtyStripes();
  s.stripes_rebuilt = stripes_rebuilt_;
  s.rebuild_passes = rebuild_passes_;
  s.afraid_mode_writes = afraid_mode_writes_;
  s.raid5_mode_writes = raid5_mode_writes_;
  s.disk_ops_total = TotalDiskOps();
  s.disk_ops_rebuild = DiskOps(DiskOpPurpose::kRebuildRead) +
                       DiskOps(DiskOpPurpose::kRebuildWrite);
  s.disk_ops_parity = DiskOps(DiskOpPurpose::kParityWrite) +
                      DiskOps(DiskOpPurpose::kOldDataRead) +
                      DiskOps(DiskOpPurpose::kOldParityRead);
  s.cache_hits = CacheHits();
  s.idle_fraction = IdleFraction();
  s.loss_events = LossEvents();
  s.bytes_lost = BytesLost();
  return s;
}

PolicyContext AfraidController::MakePolicyContext() const {
  PolicyContext ctx;
  ctx.now = sim_->Now();
  ctx.elapsed = sim_->Now() - start_time_;
  ctx.dirty_stripes = nvram_.DirtyCount();
  ctx.t_unprot_fraction = TUnprotFraction();
  ctx.mean_parity_lag_bytes = MeanParityLagBytes();
  ctx.idle_fraction = IdleFraction();
  ctx.array_busy = ArrayBusy();
  ctx.avail = &avail_params_;
  return ctx;
}

// --- Bookkeeping helpers ------------------------------------------------------

void AfraidController::NoteClientStart() {
  if (outstanding_clients_ == 0) {
    busy_clients_.Set(sim_->Now(), 1.0);
    idle_detector_->NoteBusy();
    // The idle period that just ended is a predictor observation -- but only
    // if it outlived the detector delay: the prediction is consumed at
    // detector-fire time, so the relevant population is the periods that
    // got that far (inter-request micro-gaps would otherwise swamp the mean).
    const SimDuration period = sim_->Now() - idle_started_at_;
    if (period >= cfg_.idle_delay && period > 0) {
      idle_predictor_.ObserveIdlePeriod(period);
    }
  }
  ++outstanding_clients_;
}

void AfraidController::NoteClientEnd() {
  assert(outstanding_clients_ > 0);
  --outstanding_clients_;
  if (outstanding_clients_ == 0) {
    busy_clients_.Set(sim_->Now(), 0.0);
    idle_detector_->NoteIdle();
    idle_started_at_ = sim_->Now();
  }
  TriggerRebuildCheck();
}

std::pair<int32_t, int32_t> AfraidController::BandsOfRange(int32_t offset_in_block,
                                                           int32_t length) const {
  const int64_t band_height = layout_->stripe_unit() / cfg_.marks_per_stripe;
  const auto first = static_cast<int32_t>(offset_in_block / band_height);
  const auto last = static_cast<int32_t>((offset_in_block + length - 1) / band_height);
  return {first, last};
}

void AfraidController::MarkBands(int64_t stripe, int32_t first_band,
                                 int32_t last_band) {
  assert(!nvram_.failed());
  assert(first_band >= 0 && last_band < cfg_.marks_per_stripe);
  for (int32_t b = first_band; b <= last_band; ++b) {
    if (nvram_.Mark(stripe * cfg_.marks_per_stripe + b)) {
      unprot_bytes_.Add(sim_->Now(), static_cast<double>(BandBytesPerStripe()));
      max_dirty_ = std::max(max_dirty_, nvram_.DirtyCount());
    }
  }
}

void AfraidController::ClearBandKey(int64_t key) {
  if (nvram_.Clear(key)) {
    unprot_bytes_.Add(sim_->Now(), -static_cast<double>(BandBytesPerStripe()));
  }
  CheckWatchers(key);
}

void AfraidController::ClearAllBands(int64_t stripe) {
  for (int32_t b = 0; b < cfg_.marks_per_stripe; ++b) {
    ClearBandKey(stripe * cfg_.marks_per_stripe + b);
  }
}

bool AfraidController::AnyBandDirty(int64_t stripe) const {
  for (int32_t b = 0; b < cfg_.marks_per_stripe; ++b) {
    if (nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
      return true;
    }
  }
  return false;
}

bool AfraidController::RangeDirty(int64_t stripe, int32_t offset_in_block,
                                  int32_t length) const {
  const auto [first, last] = BandsOfRange(offset_in_block, length);
  for (int32_t b = first; b <= last; ++b) {
    if (nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
      return true;
    }
  }
  return false;
}

void AfraidController::CheckWatchers(int64_t cleared_stripe) {
  for (size_t i = 0; i < watchers_.size();) {
    watchers_[i].waiting.erase(cleared_stripe);
    if (watchers_[i].waiting.empty()) {
      auto done = std::move(watchers_[i].done);
      watchers_.erase(watchers_.begin() + static_cast<ptrdiff_t>(i));
      done();
    } else {
      ++i;
    }
  }
}

bool AfraidController::WantRaid5Write() {
  if (nvram_.failed()) {
    return true;  // Without marking memory, deferring parity is unsafe.
  }
  return policy_->UseRaid5Write(MakePolicyContext());
}

// --- Client entry point -------------------------------------------------------

void AfraidController::Submit(const ClientRequest& request, RequestDone done) {
  assert(request.size > 0);
  assert(request.offset >= 0 &&
         request.offset + request.size <= layout_->data_capacity_bytes());
  NoteClientStart();
  // The client-completion + NoteClientEnd pair is folded into the request's
  // join callback (DoRead/DoWrite) so no intermediate wrapper is needed.
  if (request.is_write) {
    DoWrite(request, std::move(done));
  } else {
    DoRead(request, std::move(done));
  }
}

// --- Reads ----------------------------------------------------------------------

void AfraidController::DoRead(const ClientRequest& r, RequestDone done) {
  // Every continuation captures its Segment by value, so scratch segments
  // are only read within this synchronous loop.
  const Span<Segment> segs = SegmentsOf(r);
  JoinBlock* join = joins_.Make(segs.count,
                                [this, done = std::move(done)](bool) mutable {
                                  done();
                                  NoteClientEnd();
                                });
  for (const Segment& seg : segs) {
    const int32_t disk = layout_->DataDisk(seg.stripe, seg.block_in_stripe);
    if (DiskUnavailable(disk, seg.stripe)) {
      DegradedReadSegment(seg, join);
      continue;
    }
    const int64_t key = BlockKey(seg.stripe, seg.block_in_stripe);
    if (read_cache_.Lookup(key) || staging_.Lookup(key)) {
      sim_->After(cfg_.cache_hit_time, [join] { join->Dec(true); });
      continue;
    }
    const int64_t disk_off =
        layout_->DataLocation(seg.stripe, seg.block_in_stripe).byte_offset +
        seg.offset_in_block;
    IssueDiskOp(disk, disk_off, seg.length, /*is_write=*/false,
                DiskOpPurpose::kClientRead, [this, seg, key, join](bool ok) {
                  if (ok) {
                    if (seg.length == layout_->stripe_unit()) {
                      read_cache_.Insert(key);
                    }
                    join->Dec(true);
                  } else {
                    // The disk died mid-flight: recover via parity.
                    DegradedReadSegment(seg, join);
                  }
                });
  }
}

void AfraidController::DegradedReadSegment(const Segment& seg, JoinBlock* parent) {
  const int64_t stripe = seg.stripe;
  locks_.Acquire(stripe, LockMode::kExclusive, [this, seg, stripe, parent] {
    const int32_t n = layout_->data_blocks_per_stripe();
    auto finish = [this, seg, stripe, parent](bool) {
      if (RangeDirty(stripe, seg.offset_in_block, seg.length)) {
        // Parity was stale for this band when the disk died: the
        // reconstructed bytes are not the data the client wrote. Record the
        // loss (Section 3.2).
        RecordLoss(LossCause::kStaleParityDegradedRead, stripe, seg.length);
      }
      locks_.Release(stripe, LockMode::kExclusive);
      parent->Dec(true);
    };
    JoinBlock* join = joins_.Make(n, finish);  // n-1 data reads + parity.
    for (int32_t j = 0; j < n; ++j) {
      if (j == seg.block_in_stripe) {
        continue;
      }
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      const int64_t off = dl.byte_offset + seg.offset_in_block;
      IssueDiskOp(dl.disk, off, seg.length, /*is_write=*/false,
                  DiskOpPurpose::kReconstructRead, [join](bool ok) { join->Dec(ok); });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe);
    const int64_t poff = pl.byte_offset + seg.offset_in_block;
    IssueDiskOp(pl.disk, poff, seg.length, /*is_write=*/false,
                DiskOpPurpose::kReconstructRead, [join](bool ok) { join->Dec(ok); });
  });
}

// --- Writes ---------------------------------------------------------------------

void AfraidController::DoWrite(const ClientRequest& r, RequestDone done) {
  // The segments must stay alive (and in place) until the request's join
  // fires; the per-stripe groups are spans into them. A pooled vector holds
  // them, owned by the join. Split emits nondecreasing stripe numbers, so
  // the old std::map grouping is equivalent to a contiguous-run scan -- same
  // groups, same ascending order.
  std::vector<Segment>* pooled = seg_pool_.Acquire();
  layout_->SplitInto(r.offset, r.size, pooled);
  const Segment* base = pooled->data();
  const size_t count = pooled->size();
  int32_t n_groups = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i == 0 || base[i].stripe != base[i - 1].stripe) {
      ++n_groups;
    }
  }
  JoinBlock* join =
      joins_.Make(n_groups, [this, done = std::move(done), pooled](bool) mutable {
        seg_pool_.Release(pooled);
        done();
        NoteClientEnd();
      });
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count && base[j].stripe == base[i].stripe) {
      ++j;
    }
    RunStripeWriteGroup(r.id, base[i].stripe,
                        Span<Segment>{base + i, static_cast<int32_t>(j - i)}, 0,
                        join);
    i = j;
  }
}

void AfraidController::RunStripeWriteGroup(uint64_t request_id, int64_t stripe,
                                           Span<Segment> segs, int32_t attempt,
                                           JoinBlock* group_join) {
  const bool degraded =
      failed_disk() >= 0 ||
      (recovering_disk() >= 0 && stripe >= recovery_frontier());
  // Per-region redundancy classes (Section 5) override the policy.
  const RedundancyClass cls = RegionClassOf(stripe);
  if (!degraded && cls == RedundancyClass::kAlwaysAfraid) {
    ++afraid_mode_writes_;
    AfraidWriteGroup(request_id, stripe, segs, attempt, group_join);
    return;
  }
  if (!degraded && cls == RedundancyClass::kNeverParity) {
    // RAID 0-style region: mark-and-forget (the rebuilder skips it).
    ++afraid_mode_writes_;
    AfraidWriteGroup(request_id, stripe, segs, attempt, group_join);
    return;
  }
  const bool forced_raid5 = cls == RedundancyClass::kAlwaysRaid5;
  // RAID 5 mode exists to avoid *adding* exposure. A write whose bands are
  // all already stale adds none -- they are unprotected either way until the
  // background rebuild reaches them -- so it can take the cheap AFRAID path
  // even in RAID 5 mode. (Degraded operation is the exception: parity must
  // be kept current to stand in for the missing disk.)
  bool already_exposed = !degraded && !forced_raid5;
  if (already_exposed) {
    for (const Segment& seg : segs) {
      const auto [first, last] = BandsOfRange(seg.offset_in_block, seg.length);
      for (int32_t b = first; b <= last; ++b) {
        if (!nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
          already_exposed = false;
          break;
        }
      }
      if (!already_exposed) {
        break;
      }
    }
  }
  // Evaluation order matters: WantRaid5Write() consults (and may advance)
  // the policy, so it must stay short-circuited exactly as before.
  const bool use_raid5 = degraded || forced_raid5 || (!already_exposed && WantRaid5Write());
  if (ctrl_probe_ && use_raid5 != last_write_raid5_) {
    ctrl_probe_.Instant(use_raid5 ? "mode: RAID5" : "mode: AFRAID", sim_->Now());
  }
  last_write_raid5_ = use_raid5;
  if (use_raid5) {
    ++raid5_mode_writes_;
    Raid5WriteGroup(request_id, stripe, segs, attempt, group_join);
  } else {
    ++afraid_mode_writes_;
    AfraidWriteGroup(request_id, stripe, segs, attempt, group_join);
  }
}

void AfraidController::AfraidWriteGroup(uint64_t request_id, int64_t stripe,
                                        Span<Segment> segs, int32_t attempt,
                                        JoinBlock* group_join) {
  locks_.Acquire(stripe, LockMode::kShared, [this, request_id, stripe, segs,
                                             attempt, group_join] {
    // Mark first: the bands must read as unredundant before any new data is
    // on disk, or a crash window would hide the stale parity.
    for (const Segment& seg : segs) {
      const auto [first, last] = BandsOfRange(seg.offset_in_block, seg.length);
      MarkBands(stripe, first, last);
    }
    TriggerRebuildCheck();

    auto finish = [this, request_id, stripe, segs, attempt,
                   group_join](bool all_ok) {
      locks_.Release(stripe, LockMode::kShared);
      if (!all_ok && attempt < 2) {
        // A disk died under us: rerun this group through the (now degraded)
        // RAID 5 path, which routes around the failed mechanism.
        RunStripeWriteGroup(request_id, stripe, segs, attempt + 1, group_join);
        return;
      }
      group_join->Dec(true);
    };
    JoinBlock* join = joins_.Make(segs.count, finish);
    for (const Segment& seg : segs) {
      const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
      const int64_t off = dl.byte_offset + seg.offset_in_block;
      IssueDiskOp(dl.disk, off, seg.length, /*is_write=*/true, DiskOpPurpose::kClientWrite,
                  [this, request_id, seg, join](bool ok) {
                    if (ok) {
                      ApplyDataWrite(request_id, seg);
                    }
                    join->Dec(ok);
                  });
    }
  });
}

void AfraidController::ApplyDataWrite(uint64_t request_id, const Segment& seg) {
  const int64_t key = BlockKey(seg.stripe, seg.block_in_stripe);
  if (seg.length == layout_->stripe_unit()) {
    staging_.Insert(key);
    read_cache_.Invalidate(key);
  } else {
    // Partial overwrite: any cached full-block copy is stale.
    staging_.Invalidate(key);
    read_cache_.Invalidate(key);
  }
  if (content_ != nullptr) {
    const int32_t sector = cfg_.disk_spec.sector_bytes;
    const int32_t first = seg.offset_in_block / sector;
    const int32_t count = seg.length / sector;
    const int64_t logical_first = seg.logical_offset / sector;
    for (int32_t i = 0; i < count; ++i) {
      content_->SetData(seg.stripe, seg.block_in_stripe, first + i,
                        ContentModel::MixTag(request_id, logical_first + i));
    }
  }
}

void AfraidController::Raid5WriteGroup(uint64_t request_id, int64_t stripe,
                                       Span<Segment> segs, int32_t attempt,
                                       JoinBlock* group_join) {
  locks_.Acquire(stripe, LockMode::kExclusive, [this, request_id, stripe, segs,
                                                attempt, group_join] {
    const int32_t n = layout_->data_blocks_per_stripe();
    const int64_t unit = layout_->stripe_unit();
    // A stale band under any written range forces a from-scratch parity
    // recompute; stale bands *outside* the written ranges do not (per-band
    // parity validity is exactly what sub-stripe marking buys).
    bool dirty = false;
    for (const Segment& seg : segs) {
      if (RangeDirty(stripe, seg.offset_in_block, seg.length)) {
        dirty = true;
        break;
      }
    }

    // Which data blocks does this group touch, and fully or partially? The
    // by-block table is reused scratch, consumed synchronously below (the
    // write steps re-derive anything they need from the segment span).
    by_block_scratch_.assign(static_cast<size_t>(n), nullptr);
    int32_t covered = 0;
    int32_t fully_covered = 0;
    for (const Segment& seg : segs) {
      assert(by_block_scratch_[static_cast<size_t>(seg.block_in_stripe)] == nullptr);
      by_block_scratch_[static_cast<size_t>(seg.block_in_stripe)] = &seg;
      ++covered;
      if (seg.length == unit) {
        ++fully_covered;
      }
    }
    const bool full_stripe = (fully_covered == n);
    // A stale-parity stripe cannot be RMW'd (the old parity is garbage), and
    // neither can a degraded stripe (a pre-read might need the dead or
    // not-yet-reconstructed disk); both recompute parity from scratch.
    // Otherwise pick reconstruct-write when the group touches more than the
    // configured fraction of the stripe.
    const bool degraded =
        failed_disk() >= 0 ||
        (recovering_disk() >= 0 && stripe >= recovery_frontier());
    const bool reconstruct =
        !full_stripe &&
        (dirty || degraded ||
         static_cast<double>(covered) >
             cfg_.reconstruct_write_fraction * static_cast<double>(n));

    const bool full_parity_rewrite = full_stripe || reconstruct;
    auto finish = [this, request_id, stripe, segs, attempt, full_parity_rewrite,
                   group_join](bool all_ok) {
      if (all_ok && full_parity_rewrite) {
        ClearAllBands(stripe);  // The full parity unit is fresh again.
      }
      locks_.Release(stripe, LockMode::kExclusive);
      if (!all_ok && attempt < 2) {
        RunStripeWriteGroup(request_id, stripe, segs, attempt + 1, group_join);
        return;
      }
      group_join->Dec(true);
    };
    JoinBlock* fin = joins_.Make(1, finish);

    if (full_stripe) {
      WriteFullStripe(request_id, stripe, segs, fin);
    } else if (reconstruct) {
      ReconstructWrite(request_id, stripe, segs, fin);
    } else {
      ReadModifyWrite(request_id, stripe, segs, fin);
    }
  });
}

void AfraidController::WriteFullStripe(uint64_t request_id, int64_t stripe,
                                       Span<Segment> segs, JoinBlock* fin) {
  const int64_t unit = layout_->stripe_unit();
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const auto spu = static_cast<int32_t>(unit / sector);

  // Precompute the new parity: xor of the new data values at each position.
  // The pooled buffer lives until this step's join fires (the parity-write
  // callback reads it); released in the join's completion.
  std::vector<uint64_t>* pv = nullptr;
  if (content_ != nullptr) {
    pv = u64_pool_.Acquire();
    pv->assign(static_cast<size_t>(spu), 0);
    for (const Segment& seg : segs) {
      const int64_t logical_first = seg.logical_offset / sector;
      for (int32_t i = 0; i < spu; ++i) {
        (*pv)[static_cast<size_t>(i)] ^=
            ContentModel::MixTag(request_id, logical_first + i);
      }
    }
  }

  JoinBlock* join = joins_.Make(segs.count + 1, [this, pv, fin](bool ok) {
    if (pv != nullptr) {
      u64_pool_.Release(pv);
    }
    fin->Dec(ok);
  });
  for (const Segment& seg : segs) {
    const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
    if (dl.disk == failed_disk()) {
      // The data lives on implicitly via parity (degraded full-stripe write).
      sim_->After(0, [join] { join->Dec(true); });
      continue;
    }
    IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/true,
                DiskOpPurpose::kClientWrite, [this, request_id, seg, join](bool ok) {
                  if (ok) {
                    ApplyDataWrite(request_id, seg);
                  }
                  join->Dec(ok);
                });
  }
  const BlockLoc pl = layout_->ParityLocation(stripe);
  if (pl.disk == failed_disk()) {
    sim_->After(0, [join] { join->Dec(true); });
  } else {
    IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/true, DiskOpPurpose::kParityWrite,
                [this, stripe, pv, spu, join](bool ok) {
                  if (ok && content_ != nullptr) {
                    for (int32_t i = 0; i < spu; ++i) {
                      content_->SetParity(stripe, i, (*pv)[static_cast<size_t>(i)]);
                    }
                  }
                  join->Dec(ok);
                });
  }
}

void AfraidController::ReconstructWrite(uint64_t request_id, int64_t stripe,
                                        Span<Segment> segs, JoinBlock* fin) {
  const int32_t n = layout_->data_blocks_per_stripe();
  const int64_t unit = layout_->stripe_unit();
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  const auto spu = static_cast<int32_t>(unit / sector);

  // Precompute the post-write parity now: the exclusive lock guarantees no
  // other mutation of this stripe until we finish, so current content is
  // exactly what the companion reads will observe. by_block_scratch_ (filled
  // by the caller) is consumed synchronously within this call; the pooled
  // parity buffer lives until the write phase's join fires.
  std::vector<uint64_t>* pv = nullptr;
  if (content_ != nullptr) {
    pv = u64_pool_.Acquire();
    pv->assign(static_cast<size_t>(spu), 0);
    for (int32_t j = 0; j < n; ++j) {
      const Segment* seg = by_block_scratch_[static_cast<size_t>(j)];
      for (int32_t i = 0; i < spu; ++i) {
        uint64_t v = content_->GetData(stripe, j, i);
        if (seg != nullptr) {
          const int32_t first = seg->offset_in_block / sector;
          const int32_t count = seg->length / sector;
          if (i >= first && i < first + count) {
            v = ContentModel::MixTag(request_id,
                                     seg->logical_offset / sector + (i - first));
          }
        }
        (*pv)[static_cast<size_t>(i)] ^= v;
      }
    }
  }

  // Phase 1: read (fully) every data block that is not fully overwritten.
  auto write_phase = [this, request_id, stripe, segs, spu, pv,
                      fin](bool reads_ok) {
    if (!reads_ok) {
      if (pv != nullptr) {
        u64_pool_.Release(pv);
      }
      fin->Dec(false);
      return;
    }
    const int64_t unit2 = layout_->stripe_unit();
    JoinBlock* join = joins_.Make(segs.count + 1, [this, pv, fin](bool ok) {
      if (pv != nullptr) {
        u64_pool_.Release(pv);
      }
      fin->Dec(ok);
    });
    for (const Segment& seg : segs) {
      const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
      if (dl.disk == failed_disk()) {
        sim_->After(0, [join] { join->Dec(true); });
        continue;
      }
      const int64_t off = dl.byte_offset + seg.offset_in_block;
      IssueDiskOp(dl.disk, off, seg.length, /*is_write=*/true,
                  DiskOpPurpose::kClientWrite, [this, request_id, seg, join](bool ok) {
                    if (ok) {
                      ApplyDataWrite(request_id, seg);
                    }
                    join->Dec(ok);
                  });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe);
    if (pl.disk == failed_disk()) {
      sim_->After(0, [join] { join->Dec(true); });
    } else {
      IssueDiskOp(pl.disk, pl.byte_offset, unit2, /*is_write=*/true,
                  DiskOpPurpose::kParityWrite,
                  [this, stripe, pv, spu, join](bool ok) {
                    if (ok && content_ != nullptr) {
                      for (int32_t i = 0; i < spu; ++i) {
                        content_->SetParity(stripe, i,
                                            (*pv)[static_cast<size_t>(i)]);
                      }
                    }
                    join->Dec(ok);
                  });
    }
  };

  int32_t reads_needed = 0;
  for (int32_t j = 0; j < n; ++j) {
    const Segment* seg = by_block_scratch_[static_cast<size_t>(j)];
    const bool fully = seg != nullptr && seg->length == unit;
    const int32_t disk = layout_->DataDisk(stripe, j);
    if (!fully && disk != failed_disk()) {
      ++reads_needed;
    }
  }
  if (reads_needed == 0) {
    write_phase(true);
    return;
  }
  JoinBlock* read_join = joins_.Make(reads_needed, write_phase);
  for (int32_t j = 0; j < n; ++j) {
    const Segment* seg = by_block_scratch_[static_cast<size_t>(j)];
    const bool fully = seg != nullptr && seg->length == unit;
    const BlockLoc dl = layout_->DataLocation(stripe, j);
    if (fully || dl.disk == failed_disk()) {
      continue;
    }
    IssueDiskOp(dl.disk, dl.byte_offset, unit, /*is_write=*/false,
                DiskOpPurpose::kReconstructRead,
                [read_join](bool ok) { read_join->Dec(ok); });
  }
}

void AfraidController::ReadModifyWrite(uint64_t request_id, int64_t stripe,
                                       Span<Segment> segs, JoinBlock* fin) {
  const int32_t sector = cfg_.disk_spec.sector_bytes;

  // The parity span: the union byte range within the stripe unit touched by
  // any segment (parity changes exactly where data changes).
  int32_t span_lo = INT32_MAX;
  int32_t span_hi = 0;
  for (const Segment& seg : segs) {
    span_lo = std::min(span_lo, seg.offset_in_block);
    span_hi = std::max(span_hi, seg.offset_in_block + seg.length);
  }

  // Precompute the xor delta (old ^ new) per parity sector in the span; the
  // exclusive lock makes "old" well defined for the whole group lifetime.
  // Pooled buffer, released when the write phase's join fires (or on a
  // failed read phase).
  const int32_t span_sectors = (span_hi - span_lo) / sector;
  std::vector<uint64_t>* delta = nullptr;
  if (content_ != nullptr) {
    delta = u64_pool_.Acquire();
    delta->assign(static_cast<size_t>(span_sectors), 0);
    for (const Segment& seg : segs) {
      const int32_t first = seg.offset_in_block / sector;
      const int32_t count = seg.length / sector;
      const int64_t logical_first = seg.logical_offset / sector;
      for (int32_t i = 0; i < count; ++i) {
        const uint64_t old_v =
            content_->GetData(stripe, seg.block_in_stripe, first + i);
        const uint64_t new_v = ContentModel::MixTag(request_id, logical_first + i);
        (*delta)[static_cast<size_t>(first + i - span_lo / sector)] ^= old_v ^ new_v;
      }
    }
  }

  auto write_phase = [this, request_id, stripe, segs, span_lo, span_hi, sector,
                      delta, fin](bool reads_ok) {
    if (!reads_ok) {
      if (delta != nullptr) {
        u64_pool_.Release(delta);
      }
      fin->Dec(false);
      return;
    }
    JoinBlock* join = joins_.Make(segs.count + 1, [this, delta, fin](bool ok) {
      if (delta != nullptr) {
        u64_pool_.Release(delta);
      }
      fin->Dec(ok);
    });
    for (const Segment& seg : segs) {
      const BlockLoc dl = layout_->DataLocation(stripe, seg.block_in_stripe);
      const int64_t off = dl.byte_offset + seg.offset_in_block;
      IssueDiskOp(dl.disk, off, seg.length, /*is_write=*/true,
                  DiskOpPurpose::kClientWrite, [this, request_id, seg, join](bool ok) {
                    if (ok) {
                      ApplyDataWrite(request_id, seg);
                    }
                    join->Dec(ok);
                  });
    }
    const BlockLoc pl = layout_->ParityLocation(stripe);
    IssueDiskOp(pl.disk, pl.byte_offset + span_lo, span_hi - span_lo, /*is_write=*/true,
                DiskOpPurpose::kParityWrite,
                [this, stripe, span_lo, sector, delta, join](bool ok) {
                  if (ok && content_ != nullptr) {
                    const int32_t first = span_lo / sector;
                    for (size_t i = 0; i < delta->size(); ++i) {
                      const auto s = first + static_cast<int32_t>(i);
                      content_->SetParity(stripe, s,
                                          content_->GetParity(stripe, s) ^ (*delta)[i]);
                    }
                  }
                  join->Dec(ok);
                });
  };

  // Phase 1: pre-read old data (skipped on controller cache hits) and old
  // parity. These are the extra critical-path I/Os AFRAID eliminates. The
  // need-read table is reused scratch, consumed before this call returns.
  int32_t reads_needed = 1;  // Parity span.
  need_read_scratch_.clear();
  for (const Segment& seg : segs) {
    const int64_t key = BlockKey(stripe, seg.block_in_stripe);
    if (read_cache_.Lookup(key) || staging_.Lookup(key)) {
      continue;  // Old contents already in the controller.
    }
    need_read_scratch_.push_back(&seg);
    ++reads_needed;
  }
  JoinBlock* read_join = joins_.Make(reads_needed, write_phase);
  for (const Segment* seg : need_read_scratch_) {
    const BlockLoc dl = layout_->DataLocation(stripe, seg->block_in_stripe);
    const int64_t off = dl.byte_offset + seg->offset_in_block;
    IssueDiskOp(dl.disk, off, seg->length, /*is_write=*/false,
                DiskOpPurpose::kOldDataRead,
                [read_join](bool ok) { read_join->Dec(ok); });
  }
  const BlockLoc pl = layout_->ParityLocation(stripe);
  IssueDiskOp(pl.disk, pl.byte_offset + span_lo, span_hi - span_lo, /*is_write=*/false,
              DiskOpPurpose::kOldParityRead,
              [read_join](bool ok) { read_join->Dec(ok); });
}

// --- Background parity rebuild ---------------------------------------------------

void AfraidController::TriggerRebuildCheck() {
  if (rebuilding_ || scrub_active_ || reconstruction_active() || failed_disk() >= 0 ||
      nvram_.failed() || nvram_.DirtyCount() == 0) {
    return;
  }
  const bool forced = !watchers_.empty() || policy_->ForceRebuild(MakePolicyContext());
  if (forced) {
    BeginRebuildPass();
    RebuildNext();
  }
}

void AfraidController::BeginRebuildPass() {
  assert(!rebuilding_);
  rebuilding_ = true;
  ++rebuild_passes_;
  if (rebuild_probe_) {
    rebuild_probe_.AsyncBegin("rebuild pass", rebuild_passes_, sim_->Now());
  }
}

void AfraidController::EndRebuildPass() {
  assert(rebuilding_);
  rebuilding_ = false;
  if (rebuild_probe_) {
    rebuild_probe_.AsyncEnd("rebuild pass", rebuild_passes_, sim_->Now());
  }
}

void AfraidController::SetRegionClass(int64_t offset, int64_t length,
                                      RedundancyClass cls) {
  assert(length > 0);
  assert(offset >= 0 && offset + length <= layout_->data_capacity_bytes());
  Region r;
  r.first_stripe = layout_->StripeOfOffset(offset);
  r.last_stripe = layout_->StripeOfOffset(offset + length - 1);
  r.cls = cls;
  // Newest-first precedence: prepend.
  regions_.insert(regions_.begin(), r);
}

AfraidController::RedundancyClass AfraidController::RegionClassOf(
    int64_t stripe) const {
  for (const Region& r : regions_) {
    if (stripe >= r.first_stripe && stripe <= r.last_stripe) {
      return r.cls;
    }
  }
  return RedundancyClass::kPolicyDefault;
}

// First dirty band key at/after `from` (wrapping) whose stripe's region
// permits parity maintenance; -1 if none.
int64_t AfraidController::PickRebuildableKey(int64_t from) const {
  // NextDirty wraps, so walking key+1 from the first hit visits every dirty
  // key exactly once in the same order the ordered-set scan used to.
  const int64_t first = nvram_.NextDirty(from);
  if (first < 0) {
    return -1;
  }
  int64_t key = first;
  do {
    if (RegionClassOf(key / cfg_.marks_per_stripe) != RedundancyClass::kNeverParity) {
      return key;
    }
    key = nvram_.NextDirty(key + 1);
  } while (key != first);
  return -1;
}

void AfraidController::RebuildNext() {
  assert(rebuilding_);
  if (failed_disk() >= 0 || nvram_.failed()) {
    EndRebuildPass();
    return;
  }
  const int64_t key = PickRebuildableKey(rebuild_cursor_);
  if (key < 0) {
    EndRebuildPass();
    return;
  }
  const SimTime step_start = sim_->Now();
  JoinBlock* step_join = joins_.Make(1, [this, key, step_start](bool ok) {
    rebuild_cursor_ = key + 1;
    if (rebuild_probe_) {
      rebuild_probe_.Complete("band", step_start, sim_->Now());
    }
    if (!ok) {
      EndRebuildPass();
      return;
    }
    // Keep the predictor's rebuild-quantum estimate fresh (EWMA).
    rebuild_step_estimate_ns_ +=
        0.2 * (static_cast<double>(sim_->Now() - step_start) -
               rebuild_step_estimate_ns_);
    const PolicyContext ctx = MakePolicyContext();
    const bool keep_going = !watchers_.empty() || policy_->ForceRebuild(ctx) ||
                            (!ArrayBusy() && policy_->RebuildOnIdle(ctx));
    if (keep_going && nvram_.DirtyCount() > 0) {
      RebuildNext();
    } else {
      EndRebuildPass();
    }
  });
  RebuildBand(key, step_join);
}

void AfraidController::RebuildBand(int64_t band_key, JoinBlock* step_join) {
  const int64_t stripe = band_key / cfg_.marks_per_stripe;
  const auto band = static_cast<int32_t>(band_key % cfg_.marks_per_stripe);
  locks_.Acquire(stripe, LockMode::kExclusive, [this, band_key, stripe, band,
                                                step_join] {
    if (!nvram_.IsDirty(band_key)) {
      // A racing RAID 5-mode write refreshed the parity while we waited.
      locks_.Release(stripe, LockMode::kExclusive);
      step_join->Dec(true);
      return;
    }
    const int32_t n = layout_->data_blocks_per_stripe();
    const int64_t unit = layout_->stripe_unit();
    const int64_t band_height = unit / cfg_.marks_per_stripe;
    const int64_t band_rel = band * band_height;  // Offset within the unit.
    const int32_t sector = cfg_.disk_spec.sector_bytes;
    const auto first_sector = static_cast<int32_t>(band_rel / sector);
    const auto band_sectors = static_cast<int32_t>(band_height / sector);

    // Read every data block's band; once all are in, write the recomputed
    // parity band, then release the lock and report to the step join.
    JoinBlock* read_join = joins_.Make(
        n, [this, band_key, stripe, band_rel, band_height, first_sector,
            band_sectors, step_join](bool reads_ok) {
          if (!reads_ok) {
            locks_.Release(stripe, LockMode::kExclusive);
            step_join->Dec(false);
            return;
          }
          const BlockLoc pl = layout_->ParityLocation(stripe);
          IssueDiskOp(pl.disk, pl.byte_offset + band_rel, band_height,
                      /*is_write=*/true,
                      DiskOpPurpose::kRebuildWrite,
                      [this, band_key, stripe, first_sector, band_sectors,
                       step_join](bool ok) {
                        if (ok) {
                          if (content_ != nullptr) {
                            content_->RefreshParity(stripe, first_sector,
                                                    band_sectors);
                          }
                          ClearBandKey(band_key);
                          ++stripes_rebuilt_;
                        }
                        locks_.Release(stripe, LockMode::kExclusive);
                        step_join->Dec(ok);
                      });
        });
    for (int32_t j = 0; j < n; ++j) {
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset + band_rel, band_height,
                  /*is_write=*/false, DiskOpPurpose::kRebuildRead,
                  [read_join](bool ok) { read_join->Dec(ok); });
    }
  });
}

// --- Paritypoints / quiesce -------------------------------------------------------

void AfraidController::ParityPoint(int64_t offset, int64_t length,
                                   std::function<void()> done) {
  assert(length > 0);
  assert(offset >= 0 && offset + length <= layout_->data_capacity_bytes());
  Watcher w;
  const int64_t first = layout_->StripeOfOffset(offset);
  const int64_t last = layout_->StripeOfOffset(offset + length - 1);
  for (int64_t s = first; s <= last; ++s) {
    if (RegionClassOf(s) == RedundancyClass::kNeverParity) {
      continue;
    }
    for (int32_t b = 0; b < cfg_.marks_per_stripe; ++b) {
      const int64_t key = s * cfg_.marks_per_stripe + b;
      if (nvram_.IsDirty(key)) {
        w.waiting.insert(key);
      }
    }
  }
  if (w.waiting.empty()) {
    sim_->After(0, std::move(done));
    return;
  }
  w.done = std::move(done);
  watchers_.push_back(std::move(w));
  TriggerRebuildCheck();
}

void AfraidController::RebuildAll(std::function<void()> done) {
  Watcher w;
  for (int64_t key : nvram_.DirtyStripes()) {
    if (RegionClassOf(key / cfg_.marks_per_stripe) != RedundancyClass::kNeverParity) {
      w.waiting.insert(key);
    }
  }
  if (w.waiting.empty()) {
    sim_->After(0, std::move(done));
    return;
  }
  w.done = std::move(done);
  watchers_.push_back(std::move(w));
  TriggerRebuildCheck();
}

// --- Failure recovery -------------------------------------------------------------

void AfraidController::ReconstructStripe(int64_t stripe, int32_t column) {
  const int32_t n = layout_->data_blocks_per_stripe();
  const int64_t unit = layout_->stripe_unit();

  if (column == ParityColumn()) {
    // The replaced disk held this stripe's parity: recompute from data.
    // Note this is lossless even for a dirty stripe.
    const BlockLoc ploc = layout_->ParityLocation(stripe);
    JoinBlock* join = joins_.Make(n, [this, stripe, unit, ploc](bool) {
      IssueDiskOp(ploc.disk, ploc.byte_offset, unit, /*is_write=*/true,
                  DiskOpPurpose::kRecoveryWrite, [this, stripe](bool) {
                    if (content_ != nullptr) {
                      content_->RefreshParity(stripe);
                    }
                    ClearAllBands(stripe);
                    StripeReconstructed(stripe);
                  });
    });
    for (int32_t j = 0; j < n; ++j) {
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset, unit,
                  /*is_write=*/false, DiskOpPurpose::kRecoveryRead,
                  [join](bool ok) { join->Dec(ok); });
    }
    return;
  }

  // The replaced disk held data block `column`: rebuild it as the xor of the
  // other data blocks and the parity. If the stripe's parity was stale at
  // failure time, the xor is *not* the lost data -- that block is gone
  // (the Section 3.2 small-loss mode); we record it and move on.
  const int32_t j_target = column;
  int32_t dirty_bands = 0;
  for (int32_t b = 0; b < cfg_.marks_per_stripe; ++b) {
    if (nvram_.IsDirty(stripe * cfg_.marks_per_stripe + b)) {
      ++dirty_bands;
    }
  }
  const BlockLoc target = layout_->DataLocation(stripe, j_target);
  auto write = [this, stripe, unit, target, j_target, dirty_bands](bool) {
    IssueDiskOp(target.disk, target.byte_offset, unit, /*is_write=*/true,
                DiskOpPurpose::kRecoveryWrite,
                [this, stripe, j_target, dirty_bands](bool) {
                  if (content_ != nullptr) {
                    content_->ReconstructBlock(stripe, j_target);
                  }
                  if (dirty_bands > 0) {
                    // Only the stale bands of the lost block are gone.
                    RecordLoss(LossCause::kStaleParityReconstruction, stripe,
                               dirty_bands *
                                   (layout_->stripe_unit() / cfg_.marks_per_stripe));
                  }
                  ClearAllBands(stripe);
                  StripeReconstructed(stripe);
                });
  };
  JoinBlock* join = joins_.Make(n, std::move(write));  // n-1 data + parity reads.
  for (int32_t j = 0; j < n; ++j) {
    if (j == j_target) {
      continue;
    }
    const BlockLoc dl = layout_->DataLocation(stripe, j);
    IssueDiskOp(dl.disk, dl.byte_offset, unit,
                /*is_write=*/false, DiskOpPurpose::kRecoveryRead,
                [join](bool ok) { join->Dec(ok); });
  }
  const BlockLoc ploc = layout_->ParityLocation(stripe);
  IssueDiskOp(ploc.disk, ploc.byte_offset, unit, /*is_write=*/false,
              DiskOpPurpose::kRecoveryRead, [join](bool ok) { join->Dec(ok); });
}

bool AfraidController::FailNvram() {
  nvram_.Fail();
  if (ctrl_probe_) {
    ctrl_probe_.Instant("nvram loss", sim_->Now());
  }
  return true;
}

bool AfraidController::StartFullScrub(std::function<void()> done) {
  if (scrub_active_ || rebuilding_) {
    return false;
  }
  scrub_active_ = true;
  scrub_done_ = std::move(done);
  if (rebuild_probe_) {
    rebuild_probe_.AsyncBegin("scrub", 1, sim_->Now());
  }
  ScrubNextStripe(0);
  return true;
}

void AfraidController::ScrubNextStripe(int64_t stripe) {
  if (stripe >= layout_->num_stripes()) {
    scrub_active_ = false;
    if (rebuild_probe_) {
      rebuild_probe_.AsyncEnd("scrub", 1, sim_->Now());
    }
    nvram_.Repair();
    // Every stripe's parity is fresh: the true unprotected volume is zero
    // again (the marking bits lost in the NVRAM failure are irrelevant now).
    unprot_bytes_.Set(sim_->Now(), 0.0);
    auto done = std::move(scrub_done_);
    if (done) {
      done();
    }
    return;
  }
  locks_.Acquire(stripe, LockMode::kExclusive, [this, stripe] {
    const int32_t n = layout_->data_blocks_per_stripe();
    const int64_t unit = layout_->stripe_unit();
    auto write = [this, stripe, unit](bool ok) {
      auto advance = [this, stripe](bool) {
        locks_.Release(stripe, LockMode::kExclusive);
        ScrubNextStripe(stripe + 1);
      };
      if (!ok) {
        advance(false);
        return;
      }
      const BlockLoc pl = layout_->ParityLocation(stripe);
      IssueDiskOp(pl.disk, pl.byte_offset, unit, /*is_write=*/true,
                  DiskOpPurpose::kRebuildWrite, [this, stripe, advance](bool ok2) {
                    if (ok2 && content_ != nullptr) {
                      content_->RefreshParity(stripe);
                    }
                    advance(ok2);
                  });
    };
    JoinBlock* join = joins_.Make(n, std::move(write));
    for (int32_t j = 0; j < n; ++j) {
      const BlockLoc dl = layout_->DataLocation(stripe, j);
      IssueDiskOp(dl.disk, dl.byte_offset, unit,
                  /*is_write=*/false, DiskOpPurpose::kRebuildRead,
                  [join](bool ok) { join->Dec(ok); });
    }
  });
}

// --- Functional read-back ------------------------------------------------------------

std::vector<uint64_t> AfraidController::ReadLogicalCurrent(int64_t offset,
                                                           int64_t length) const {
  assert(content_ != nullptr);
  const int32_t sector = cfg_.disk_spec.sector_bytes;
  assert(offset % sector == 0 && length % sector == 0);
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(length / sector));
  layout_->SplitInto(offset, length, &read_back_scratch_);
  for (const Segment& seg : read_back_scratch_) {
    const bool degraded =
        DiskUnavailable(layout_->DataDisk(seg.stripe, seg.block_in_stripe), seg.stripe);
    const int32_t first = seg.offset_in_block / sector;
    const int32_t count = seg.length / sector;
    for (int32_t i = 0; i < count; ++i) {
      if (degraded) {
        out.push_back(content_->ReconstructData(seg.stripe, seg.block_in_stripe,
                                                first + i));
      } else {
        out.push_back(content_->GetData(seg.stripe, seg.block_in_stripe, first + i));
      }
    }
  }
  return out;
}

}  // namespace afraid
