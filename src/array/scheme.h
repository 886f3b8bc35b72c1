// The common lifecycle of every array organization, and the one failure
// engine they all run on.
//
// An ArrayScheme is an ArrayController (it serves client requests) plus the
// management surface the rest of the system drives uniformly: single-disk
// failure injection, replacement and reconstruction, an optional NVRAM
// marking-memory loss drill, a degraded/rebuild state snapshot, a flat
// statistics block, and the data-loss observer hook. Experiment, the fleet
// volume manager, faultsim and the bench grids all construct schemes through
// the registry (src/core/scheme_registry.h) and talk only to this interface;
// no caller switches on the concrete controller type.
//
// The class also implements everything the organizations share, once: it
// builds the disks from one compiled DiskMechanics; owns the layout, the
// stripe locks, the join and segment pools and the optional content model;
// issues every disk op (per-purpose counts, per-disk probe spans); and runs
// the healthy -> failed (FailDisk) -> recovering (ReplaceDisk) -> sweeping
// (StartReconstruction) -> healthy state machine. The sweep walks the
// replaced disk's stripes in ascending order behind a frontier: stripes
// below it hold valid data on the replacement, at or above it the disk is
// unavailable (DiskUnavailable).
//
// The engine is also the one client front end (Submit): it counts client
// requests in and out (driving an optional idle detector, DetectIdle),
// splits each request once, reads each segment (ReadSegment; by default the
// data disk, or the one degraded read, DegradedReadSegment, which rebuilds a
// block on an unavailable disk through parity 0 and serves again a read its
// disk dropped) and hands a write to the scheme one stripe group at a time
// (WriteStripe). A concrete scheme keeps what tells it apart: how a write
// updates redundancy, its degraded writes, its background work and one
// per-stripe reconstruct step (ReconstructStripe); ColumnOnDisk,
// OnReconstructionDone, RangeStale and OnClientStart/OnClientEnd are its
// other hooks.
//
// Management calls return bool rather than asserting: `false` means the
// operation is refused in the current state (disk index out of range, no
// failure outstanding, capability not implemented) and the array state is
// unchanged. The fleet layer counts refusals per operation kind instead of
// crashing a shard on a mistimed management op.

#ifndef AFRAID_ARRAY_SCHEME_H_
#define AFRAID_ARRAY_SCHEME_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/content.h"
#include "array/controller.h"
#include "array/idle_detector.h"
#include "array/layout.h"
#include "array/request.h"
#include "array/stripe_lock.h"
#include "disk/disk_model.h"
#include "disk/disk_spec.h"
#include "obs/probe.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace afraid {

// What each disk I/O was for (statistics; also drives Figure 1's I/O counts).
enum class DiskOpPurpose : int32_t {
  kClientRead = 0,
  kClientWrite,
  kOldDataRead,      // Read-modify-write pre-read of old data.
  kOldParityRead,    // Read-modify-write pre-read of old parity.
  kParityWrite,      // Parity written in the write's critical path (or logged).
  kReconstructRead,  // Reconstruct-write / degraded-mode companion reads.
  kRebuildRead,      // Background redundancy refresh (rebuild, scrub, replay).
  kRebuildWrite,
  kRecoveryRead,     // Failed-disk reconstruction sweep.
  kRecoveryWrite,
  kNumPurposes,
};

// Human-readable purpose label (trace span names, reports).
const char* DiskOpPurposeName(DiskOpPurpose purpose);

// Why data was lost (Section 3.2's small-loss modes, as the controllers'
// failure machinery actually encounters them).
enum class LossCause : int32_t {
  // A degraded read reconstructed a range whose redundancy was stale when
  // the disk died: the bytes returned are not what the client wrote.
  kStaleParityDegradedRead = 0,
  // The replacement-disk sweep rebuilt a data block from stale redundancy:
  // the stale bands of that block are unrecoverable.
  kStaleParityReconstruction,
};

// One data-loss incident, as observed by a scheme's failure machinery.
// The Monte-Carlo fault-injection campaign (src/faultsim/) and the failure
// drill example consume these instead of re-deriving loss from counters.
struct LossEvent {
  SimTime time = 0;
  LossCause cause = LossCause::kStaleParityDegradedRead;
  int64_t stripe = -1;
  int64_t bytes = 0;
};

const char* LossCauseName(LossCause cause);

// Observer of data-loss incidents. At most one listener; pass nullptr to
// clear. Listeners fire synchronously from the simulation event that detects
// the loss, after the scheme's counters have been updated.
using LossListener = std::function<void(const LossEvent&)>;

// Instantaneous degraded/rebuild state, cheap enough to sample per metrics
// snapshot (plain loads, no allocation).
struct SchemeState {
  int32_t failed_disk = -1;       // -1 = all disks healthy.
  int32_t recovering_disk = -1;   // Replacement installed, sweep not finished.
  bool reconstruction_active = false;
  bool rebuild_active = false;    // Background redundancy-freshening pass.
  // Scheme-specific stale-redundancy marks currently outstanding (NVRAM
  // dirty bands for AFRAID, stale P+Q stripes for deferred RAID 6, buffered
  // parity-update images for the parity log, 0 for always-sync schemes).
  int64_t dirty_marks = 0;
  double parity_lag_bytes = 0.0;  // Bytes of data not currently redundant.
  bool last_write_raid5 = false;  // Mode gauge for deferred-parity schemes.
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
};

// Whole-run statistics block: every field the report harvest and the fleet
// shard reports consume. Schemes fill what applies and leave the rest zero.
struct SchemeStats {
  double mean_parity_lag_bytes = 0.0;
  double t_unprot_fraction = 0.0;
  int64_t max_dirty_stripes = 0;
  uint64_t stripes_rebuilt = 0;
  uint64_t rebuild_passes = 0;
  uint64_t afraid_mode_writes = 0;
  uint64_t raid5_mode_writes = 0;
  uint64_t disk_ops_total = 0;
  uint64_t disk_ops_rebuild = 0;
  uint64_t disk_ops_parity = 0;
  uint64_t cache_hits = 0;
  double idle_fraction = 0.0;
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
};

class ArrayScheme : public ArrayController {
 public:
  ~ArrayScheme() override;

  // The registry name this instance was constructed under ("afraid",
  // "raid6-deferQ", "mirror", ...).
  virtual const char* SchemeName() const = 0;
  // The per-run label reports print in their policy column (the parity
  // policy's name for AFRAID, the mode/scheme label otherwise).
  virtual std::string PolicyLabel() const = 0;

  // The one client front end. Counts the request in (OnClientStart), splits
  // it once and serves a read segment by segment (ReadSegment) or a write
  // stripe group by stripe group (WriteStripe); counts it out
  // (OnClientEnd) after `done` has run.
  void Submit(const ClientRequest& request, RequestDone done) final;
  int64_t DataCapacityBytes() const override { return layout_->data_capacity_bytes(); }
  // The logical-to-physical layout client offsets are resolved through.
  const ArrayLayout& layout() const { return *layout_; }
  int32_t num_disks() const { return static_cast<int32_t>(disks_.size()); }
  DiskModel& disk(int32_t d) { return *disks_[static_cast<size_t>(d)]; }
  const DiskModel& disk(int32_t d) const { return *disks_[static_cast<size_t>(d)]; }
  // Functional content tracking, if enabled; nullptr otherwise.
  const ContentModel* content() const { return content_.get(); }

  // --- Management -------------------------------------------------------------
  // Fails one disk. At most one failure is tolerated at a time, and none
  // while a replacement is recovering -- so every op the sweep issues
  // completes with ok == true.
  bool FailDisk(int32_t disk);
  // Installs a blank replacement for the previously failed disk.
  bool ReplaceDisk(int32_t disk);
  // Rebuilds the replaced disk's contents stripe by stripe, concurrent with
  // client I/O; `done` fires when the array is fully redundant again.
  bool StartReconstruction(std::function<void()> done);
  // NVRAM marking-memory loss + conservative whole-array scrub. Only
  // meaningful for schemes that keep deferred-redundancy marks.
  virtual bool FailNvram() { return false; }
  virtual bool StartFullScrub(std::function<void()> done) {
    (void)done;
    return false;
  }

  // --- Introspection ----------------------------------------------------------
  virtual SchemeState State() const = 0;
  virtual SchemeStats Stats() const = 0;
  void SetLossListener(LossListener listener) { loss_listener_ = std::move(listener); }

  uint64_t DiskOps(DiskOpPurpose p) const { return disk_ops_[static_cast<size_t>(p)]; }
  uint64_t TotalDiskOps() const;
  uint64_t LossEvents() const { return loss_events_; }
  int64_t BytesLost() const { return bytes_lost_; }

 protected:
  // Shape of the optional functional content model: one column per data
  // block of the layout plus `parity_columns` redundancy columns.
  struct ContentShape {
    bool tracked = false;
    int32_t parity_columns = 1;
  };

  // Builds `num_disks` disks from one compilation of `spec`. A non-null
  // `probe` turns tracing on: one track per disk (purpose-labelled service
  // spans + queue-depth counters), a "controller" track (fail/replace
  // instants, data-loss incidents) and a "rebuild" track (the
  // reconstruction sweep), opened in that order.
  ArrayScheme(Simulator* sim, const DiskSpec& spec, int32_t num_disks,
              std::unique_ptr<ArrayLayout> layout, ContentShape content, Probe probe);

  // --- Hooks ------------------------------------------------------------------
  // One stripe's share of client write `request_id`: its segments in
  // `stripe`, in request order. They stay valid, in place, until the request
  // completes. Runs `join->Dec(true)` once the group is written.
  virtual void WriteStripe(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                           JoinBlock* join) = 0;
  // Reads one client segment and runs `join->Dec(true)` once it is served.
  // The default reads the data disk, or degraded when that disk is
  // unavailable; a read whose disk op fails (the disk died under it) is
  // re-run degraded.
  virtual void ReadSegment(const Segment& seg, JoinBlock* join);
  // Run once a client request is counted in, and once it is counted out
  // after its `done` (clients_in_flight() already includes / excludes it).
  virtual void OnClientStart() {}
  virtual void OnClientEnd() {}
  // One sweep step. Called with the stripe locked exclusively, for each
  // stripe with a unit on the replaced disk; `column` is that unit
  // (ColumnOnDisk). Restores it, then calls StripeReconstructed(stripe)
  // once its I/O is done.
  virtual void ReconstructStripe(int64_t stripe, int32_t column) = 0;
  // The content column `disk` holds in `stripe`: data block j is column j,
  // parity w is ParityColumn(w); -1 when the stripe has no unit there. The
  // default walks the layout.
  virtual int32_t ColumnOnDisk(int64_t stripe, int32_t disk) const;
  // Runs after the sweep's `done` callback (deferred work may resume).
  virtual void OnReconstructionDone() {}
  // True when the parity covering [offset_in_block, offset_in_block + length)
  // of every data block in `stripe` is stale, so a block rebuilt through it
  // is not what the client wrote. Asked by DegradedReadSegment with the
  // stripe locked exclusively. The default (parity always live) is false.
  virtual bool RangeStale(int64_t /*stripe*/, int32_t /*offset_in_block*/,
                          int32_t /*length*/) const {
    return false;
  }

  // --- Services ---------------------------------------------------------------
  // Submits one disk op and counts it under `purpose`; `done(ok)` fires at
  // completion. Traced runs get a purpose-labelled span on the disk's track.
  // `done` is wrapped once (with the span when traced) into the op's record,
  // inline: one type-erased layer per op.
  template <typename F>
  void IssueDiskOp(int32_t disk, int64_t byte_offset, int64_t length, bool is_write,
                   DiskOpPurpose purpose, F&& done) {
    assert(disk >= 0 && disk < num_disks());
    assert(byte_offset % sector_bytes_ == 0);
    assert(length > 0 && length % sector_bytes_ == 0);
    ++disk_ops_[static_cast<size_t>(purpose)];
    // Built inline so the record copies it from registers, not from memory.
    const DiskOp op{byte_offset / sector_bytes_,
                    static_cast<int32_t>(length / sector_bytes_), is_write};
    DiskModel& target = *disks_[static_cast<size_t>(disk)];
    const Probe disk_probe = disk_probes_[static_cast<size_t>(disk)];
    if (!disk_probe) {
      target.Submit(op, [done = std::forward<F>(done)](const DiskOpResult& r) mutable {
        done(r.ok);
      });
      return;
    }
    auto traced = [disk_probe, purpose,
                   done = std::forward<F>(done)](const DiskOpResult& r) mutable {
      if (r.ok) {
        // Emitted at completion, so per-track spans are ordered by finish
        // time (tests/obs asserts this invariant).
        disk_probe.Complete(DiskOpPurposeName(purpose), r.service_start, r.finish);
      }
      done(r.ok);
    };
    static_assert(DiskOpCallback::kFitsInline<decltype(traced)>,
                  "disk-op continuation outgrows DiskOpCallback's inline buffer");
    target.Submit(op, std::move(traced));
  }
  // Central loss accounting: updates the counters, marks the controller
  // track and notifies the listener.
  void RecordLoss(LossCause cause, int64_t stripe, int64_t bytes);
  // Ends a sweep step: advances the frontier past `stripe`, releases its
  // lock and moves on to the next stripe.
  void StripeReconstructed(int64_t stripe);
  // Starts the idle detector (call from the constructor): `on_idle` fires
  // once no client request has been in flight for `delay`, and re-arms
  // after the next busy period.
  void DetectIdle(SimDuration delay, std::function<void()> on_idle);
  int32_t clients_in_flight() const { return clients_; }
  // Content tracking: column `column` of `seg`'s stripe now holds the tags
  // client write `request_id` put in `seg` (data block j is column j,
  // redundancy block w is ParityColumn(w)). A no-op when content is off.
  void StoreWrite(uint64_t request_id, const Segment& seg, int32_t column);
  // The degraded read: takes the stripe exclusively, then reads the block
  // from the replacement if the sweep restored it during the lock wait, or
  // else rebuilds it from the other n-1 data blocks and parity 0, billing
  // kStaleParityDegradedRead when RangeStale. Releases the lock and runs
  // `parent->Dec(true)`.
  void DegradedReadSegment(const Segment& seg, JoinBlock* parent);
  // True when `disk` cannot serve valid data for `stripe` right now: it is
  // the failed disk, or the replacement and the sweep has not reached
  // `stripe` yet.
  bool DiskUnavailable(int32_t disk, int64_t stripe) const {
    return disk == failed_disk_ ||
           (disk == recovering_disk_ && stripe >= recovery_frontier_);
  }
  int32_t ParityColumn(int32_t which = 0) const {
    return layout_->data_blocks_per_stripe() + which;
  }

  int32_t failed_disk() const { return failed_disk_; }
  int32_t recovering_disk() const { return recovering_disk_; }
  int64_t recovery_frontier() const { return recovery_frontier_; }
  bool reconstruction_active() const { return reconstruction_active_; }

  Simulator* const sim_;
  const int32_t sector_bytes_;
  const std::unique_ptr<const ArrayLayout> layout_;
  StripeLockTable locks_;
  JoinPool joins_;
  std::unique_ptr<ContentModel> content_;
  // Tracing handles (all null when observability is off).
  Probe ctrl_probe_;
  Probe rebuild_probe_;

 private:
  void ReconstructNextStripe(int64_t stripe);

  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::vector<Probe> disk_probes_;  // One per disk, same track as its DiskModel.
  // Each request's split, alive until the request completes (write groups
  // are spans into it).
  VecPool<Segment> seg_pool_;
  int32_t clients_ = 0;  // Client requests in flight.
  std::unique_ptr<IdleDetector> idle_detector_;

  int32_t failed_disk_ = -1;
  int32_t recovering_disk_ = -1;
  int64_t recovery_frontier_ = 0;
  bool reconstruction_active_ = false;
  std::function<void()> reconstruction_done_;

  std::array<uint64_t, static_cast<size_t>(DiskOpPurpose::kNumPurposes)> disk_ops_{};
  uint64_t loss_events_ = 0;
  int64_t bytes_lost_ = 0;
  LossListener loss_listener_;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_SCHEME_H_
