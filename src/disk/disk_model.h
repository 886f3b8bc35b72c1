// An event-driven model of a single disk mechanism.
//
// Timing follows [Ruemmler94]: per-command controller overhead, a
// distance-dependent seek (plus write settle on writes), rotational latency
// against a continuously spinning platter, and zone-dependent media transfer
// with head-switch and track-switch costs. Tracks are skewed so that
// sequential transfers crossing a track boundary lose only the switch time,
// not a full revolution.
//
// The disk services its queue FCFS (the paper's arrays used FCFS at the
// back-end device drivers) and is non-preemptive: once started, an operation
// runs to completion. Spin-synchronisation across an array falls out of the
// model for free: all disks share the simulator clock and have the same RPM,
// so their angular positions are identical at all times.

#ifndef AFRAID_DISK_DISK_MODEL_H_
#define AFRAID_DISK_DISK_MODEL_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/arena.h"
#include "sim/callback.h"

#include "disk/disk_spec.h"
#include "disk/geometry.h"
#include "disk/mechanics.h"
#include "obs/probe.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "stats/time_weighted.h"

namespace afraid {

struct DiskOpResult {
  bool ok = true;                 // False if the disk failed.
  SimTime submitted = 0;          // When Submit() was called.
  SimTime service_start = 0;      // When the mechanism picked the op up.
  SimTime finish = 0;             // Completion time.
  ServiceBreakdown breakdown;     // Zero for failed ops.
};

// Sized for the controllers' completion continuations, which the engine's
// IssueDiskOp wraps once (src/array/scheme.h) and requires to fit inline.
// The fattest is a traced mirror client write: the span's probe and purpose
// around [this, request id, segment, side, pair join], 88 bytes.
using DiskOpCallback = SmallCallback<void(const DiskOpResult&), 88>;

class DiskModel {
 public:
  // `mechanics` is the array's compiled disk spec, shared read-only by all
  // its disks. `probe`, when non-null, should be bound to this disk's trace
  // track; the model emits a queue-depth counter timeline on it (array-level
  // code emits the purpose-labelled service spans).
  DiskModel(Simulator* sim, std::shared_ptr<const DiskMechanics> mechanics,
            int32_t disk_id, Probe probe = {});
  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  // Enqueues an operation. The callback, built in the op's record, fires
  // there at completion time; if the disk is (or becomes) failed, it fires
  // with ok=false.
  template <typename F>
  void Submit(const DiskOp& op, F&& done) {
    assert(op.sectors > 0);
    if (failed_) {
      FailAtSubmit(DiskOpCallback(std::forward<F>(done)));
      return;
    }
    OpRecord* rec = AcquireRecord();
    rec->op = op;
    rec->submitted = sim_->Now();
    rec->done.Emplace(std::forward<F>(done));
    Enqueue(rec);
  }

  // Marks the disk failed. Everything queued completes with ok=false at the
  // failure time; later Submits fail at submit time. The in-flight op, if
  // any, is not cut short: it completes at its scheduled finish time with
  // ok=false, and until then the disk is still busy -- Replace() must wait
  // for that completion.
  void Fail();

  // Installs a fresh (replacement) mechanism: clears the failure, resets the
  // arm to cylinder 0. Queue must be empty (callers drain by failing first).
  void Replace();

  bool failed() const { return failed_; }
  int32_t disk_id() const { return disk_id_; }
  const DiskMechanics& mechanics() const { return *mech_; }
  const DiskSpec& spec() const { return mech_->spec(); }
  const DiskGeometry& geometry() const { return mech_->geometry(); }
  int64_t TotalSectors() const { return mech_->geometry().TotalSectors(); }

  // True when no operation is in flight or queued.
  bool Idle() const { return !busy_ && queue_.empty(); }
  size_t QueueDepth() const { return queue_.size() + (busy_ ? 1 : 0); }

  // Where the arm currently rests (the position a replica-choice dispatcher
  // estimates positioning cost from; see core/mirror_controller.h).
  int32_t CurrentCylinder() const { return current_cylinder_; }

  // Pure timing query: what would servicing `op` cost if started at `start`
  // with the arm at cylinder `from_cylinder`? Does not disturb disk state.
  // Also reports the cylinder where the arm ends up.
  ServiceBreakdown ComputeService(SimTime start, const DiskOp& op,
                                  int32_t from_cylinder, int32_t* end_cylinder) const {
    return mech_->ComputeService(start, op, from_cylinder, end_cylinder);
  }

  // Lifetime statistics.
  uint64_t OpsCompleted() const { return ops_completed_; }
  int64_t SectorsTransferred() const { return sectors_transferred_; }
  double UtilizationTo(SimTime now) const { return busy_time_.PositiveFractionTo(now); }

 private:
  // One op's context from Submit to completion, at a stable address: filled
  // in place, queued by pointer, and its callback run in place, so the
  // completion event captures only [this, record] and nothing is moved or
  // heap-allocated once the pool has warmed up. A record per op (not a
  // single in-service member) deliberately preserves the existing completion
  // semantics: Complete runs the callback after releasing the mechanism, so
  // a re-entrant Submit can overlap with the trailing StartNext (see
  // ROADMAP).
  struct OpRecord {
    DiskOp op;
    SimTime submitted = 0;
    SimTime service_start = 0;
    ServiceBreakdown bd;
    DiskOpCallback done;
  };

  OpRecord* AcquireRecord();
  void ReleaseRecord(OpRecord* rec);
  void Enqueue(OpRecord* rec);
  void FailAtSubmit(DiskOpCallback done);  // ok=false from a zero-delay event.
  void StartNext();
  void Complete(OpRecord* rec);

  Simulator* sim_;
  std::shared_ptr<const DiskMechanics> mech_;
  int32_t disk_id_;
  Probe probe_;
  std::string queue_counter_name_;  // Built once; empty when probe_ is null.

  RingQueue<OpRecord*> queue_;
  std::vector<std::unique_ptr<OpRecord>> records_;
  std::vector<OpRecord*> free_records_;
  bool busy_ = false;
  bool failed_ = false;
  int32_t current_cylinder_ = 0;

  uint64_t ops_completed_ = 0;
  int64_t sectors_transferred_ = 0;
  TimeWeightedValue busy_time_;
};

}  // namespace afraid

#endif  // AFRAID_DISK_DISK_MODEL_H_
