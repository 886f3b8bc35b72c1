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
// stripe locks, the join pool and the optional content model; issues every
// disk op (per-purpose counts, per-disk probe spans); and runs the
// healthy -> failed (FailDisk) -> recovering (ReplaceDisk) -> sweeping
// (StartReconstruction) -> healthy state machine. The sweep walks the
// replaced disk's stripes in ascending order behind a frontier: stripes
// below it hold valid data on the replacement, at or above it the disk is
// unavailable (DiskUnavailable). A concrete scheme keeps its client paths,
// its degraded reads and writes, its background work and one per-stripe
// reconstruct step (ReconstructStripe); ColumnOnDisk and
// OnReconstructionDone are its other two hooks.
//
// Management calls return bool rather than asserting: `false` means the
// operation is refused in the current state (disk index out of range, no
// failure outstanding, capability not implemented) and the array state is
// unchanged. The fleet layer counts refusals per operation kind instead of
// crashing a shard on a mistimed management op.

#ifndef AFRAID_ARRAY_SCHEME_H_
#define AFRAID_ARRAY_SCHEME_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/content.h"
#include "array/controller.h"
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

  // --- Services ---------------------------------------------------------------
  // Submits one disk op and counts it under `purpose`; `done(ok)` fires at
  // completion. Traced runs get a purpose-labelled span on the disk's track.
  void IssueDiskOp(int32_t disk, int64_t byte_offset, int64_t length, bool is_write,
                   DiskOpPurpose purpose, DiskDone done);
  // Central loss accounting: updates the counters, marks the controller
  // track and notifies the listener.
  void RecordLoss(LossCause cause, int64_t stripe, int64_t bytes);
  // Ends a sweep step: advances the frontier past `stripe`, releases its
  // lock and moves on to the next stripe.
  void StripeReconstructed(int64_t stripe);
  // True when `disk` cannot serve valid data for `stripe` right now: it is
  // the failed disk, or the replacement and the sweep has not reached
  // `stripe` yet.
  bool DiskUnavailable(int32_t disk, int64_t stripe) const {
    return disk == failed_disk_ ||
           (disk == recovering_disk_ && stripe >= recovery_frontier_);
  }
  // A request's Split() into scratch that the next call overwrites: callers
  // consume it synchronously (continuations capture segments by value).
  Span<Segment> SegmentsOf(const ClientRequest& r);
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
  std::vector<Segment> split_scratch_;  // SegmentsOf (consumed synchronously).

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
