// RAID 6 + AFRAID (Section 5 extension).
//
// "A RAID 6 array keeps two parity blocks for each stripe, and thus pays an
// even higher penalty for doing small updates than does RAID 5. The AFRAID
// technique could be combined with the RAID 6 parity scheme to delay either
// or both parity-block updates: if only one was deferred, partial redundancy
// protection would be available immediately, and full redundancy once the
// parity-rebuild happened for the other parity block."
//
// This controller implements the three operating points:
//   kSynchronous -- classic RAID 6: a small write pre-reads old data, old P
//                   and old Q, then writes data, P and Q (6 I/Os).
//   kDeferQ      -- data + P synchronous (4 I/Os, like RAID 5), Q deferred
//                   to idle time: single-failure tolerance immediately, dual
//                   tolerance after the rebuild.
//   kDeferBoth   -- pure AFRAID write (1 I/O); both parities rebuilt in idle.
//
// P is the xor parity; Q is the GF(256) Reed-Solomon parity
// Q = sum_j g^j D_j (see array/gf256.h). Per-stripe staleness is tracked in
// two NVRAM bitmaps (2 bits per stripe, vs AFRAID's 1).
//
// Failure machinery (ArrayScheme): single-disk failure with degraded reads
// (reconstruct through P), degraded writes that switch to synchronous
// full-stripe parity recompute, and a replacement-disk reconstruction sweep
// that recomputes a lost data block from P and the surviving data, or a lost
// parity from the data. Every stripe with stale P also has stale Q (a write
// marks Q alone or both, and Q goes fresh only once P is), so P is never
// stale while Q is live. A stripe whose P *and* Q were both stale when the
// disk died is unrecoverable; the machinery charges a LossEvent exactly as
// the AFRAID controller does.

#ifndef AFRAID_CORE_RAID6_CONTROLLER_H_
#define AFRAID_CORE_RAID6_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <memory>
#include <vector>

#include "array/content.h"
#include "array/controller.h"
#include "array/scheme.h"
#include "array/gf256.h"
#include "array/idle_detector.h"
#include "array/layout.h"
#include "array/nvram.h"
#include "array/stripe_lock.h"
#include "core/array_config.h"
#include "disk/disk_model.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "stats/time_weighted.h"

namespace afraid {

enum class Raid6Mode {
  kSynchronous,  // Update P and Q in the write's critical path.
  kDeferQ,       // Update P synchronously; defer Q to idle periods.
  kDeferBoth,    // Defer P and Q (full AFRAID behaviour).
};

std::string Raid6ModeName(Raid6Mode mode);

class Raid6Controller : public ArrayScheme {
 public:
  Raid6Controller(Simulator* sim, const ArrayConfig& config, Raid6Mode mode);
  ~Raid6Controller() override;

  void Submit(const ClientRequest& request, RequestDone done) override;
  int64_t DataCapacityBytes() const override { return layout_->data_capacity_bytes(); }

  // Forces both parities of every stale stripe fresh; for tests/quiesce.
  void RebuildAll(std::function<void()> done);

  // --- ArrayScheme interface ---
  const char* SchemeName() const override;
  std::string PolicyLabel() const override { return Raid6ModeName(mode_); }
  int32_t num_disks() const override { return cfg_.num_disks; }
  DiskModel& disk(int32_t d) override { return *disks_[d]; }
  bool FailDisk(int32_t disk) override;
  bool ReplaceDisk(int32_t disk) override;
  bool StartReconstruction(std::function<void()> done) override;
  SchemeState State() const override;
  SchemeStats Stats() const override;
  void SetLossListener(LossListener listener) override {
    loss_listener_ = std::move(listener);
  }

  // --- Introspection ---
  const ArrayLayout& layout() const override { return *layout_; }
  const ContentModel* content() const override { return content_.get(); }
  Raid6Mode mode() const { return mode_; }
  int32_t failed_disk() const { return failed_disk_; }
  int32_t recovering_disk() const { return recovering_disk_; }
  uint64_t LossEvents() const { return loss_events_; }
  int64_t BytesLost() const { return bytes_lost_; }
  int64_t StaleP() const { return p_stale_.DirtyCount(); }
  int64_t StaleQ() const { return q_stale_.DirtyCount(); }
  uint64_t StripesRebuilt() const { return stripes_rebuilt_; }
  uint64_t DiskOpsIssued() const { return disk_ops_; }
  // Time-average bytes covered by fewer than 2 / fewer than 1 parities.
  double MeanSingleExposedBytes() const { return q_only_stale_.MeanTo(sim_->Now()); }
  double MeanFullyExposedBytes() const { return both_stale_.MeanTo(sim_->Now()); }
  double TQStaleFraction() const { return q_only_stale_.PositiveFractionTo(sim_->Now()); }
  double TBothStaleFraction() const { return both_stale_.PositiveFractionTo(sim_->Now()); }

  // True iff stripe's P (and Q) match the data per the content model.
  bool StripeFullyConsistent(int64_t stripe) const;

  // Pure Q algebra (exposed for tests): Q value of one sector position.
  static uint64_t QOfData(const ContentModel& content, int64_t stripe,
                          int32_t data_blocks, int32_t sector);

 private:
  void DoRead(const ClientRequest& r, RequestDone done);
  void DoWrite(const ClientRequest& r, RequestDone done);
  void WriteStripeGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                        JoinBlock* group_join);
  // Degraded path: reconstructs one read segment from the surviving blocks
  // and P; runs `parent->Dec(true)` on completion.
  void DegradedReadSegment(const Segment& seg, JoinBlock* parent);
  // Degraded write: synchronous full-stripe P+Q recompute around the
  // unavailable disk (the RAID 6 analogue of AFRAID's forced RAID 5 mode).
  void DegradedWriteStripe(uint64_t request_id, int64_t stripe,
                           Span<Segment> segs, JoinBlock* group_join);
  void ReconstructNextStripe(int64_t stripe);
  // True when `disk` cannot serve valid data for `stripe` right now.
  bool DiskUnavailable(int32_t disk, int64_t stripe) const {
    return disk == failed_disk_ ||
           (disk == recovering_disk_ && stripe >= recovery_frontier_);
  }
  void RecordLoss(LossCause cause, int64_t stripe, int64_t bytes);
  void MaybeStartRebuild();
  void RebuildNext();
  void RebuildStripe(int64_t stripe, JoinBlock* step_join);
  void IssueDiskOp(int32_t disk, int64_t byte_offset, int64_t length, bool is_write,
                   DiskDone done);
  // Content model: Q becomes the GF(256) syndrome of the data blocks.
  void RefreshQ(int64_t stripe);
  void MarkStale(int64_t stripe, bool p, bool q);
  void ClearStale(int64_t stripe);
  void UpdateExposure();
  void NoteClientStart();
  void NoteClientEnd();

  Simulator* sim_;
  ArrayConfig cfg_;
  Raid6Mode mode_;
  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::unique_ptr<ArrayLayout> layout_;
  StripeLockTable locks_;
  NvramBitmap p_stale_;
  NvramBitmap q_stale_;
  std::unique_ptr<ContentModel> content_;
  std::unique_ptr<IdleDetector> idle_detector_;

  // Steady-state pooled storage (see DESIGN.md, "Arena reuse contract"):
  // write splits live in a seg_pool_ vector owned by the request's join;
  // dp/dq parity deltas live in u64_pool_ vectors until the write join fires.
  JoinPool joins_;
  VecPool<Segment> seg_pool_;
  VecPool<uint64_t> u64_pool_;
  std::vector<Segment> read_split_scratch_;  // DoRead (synchronous).

  int32_t outstanding_clients_ = 0;
  bool rebuilding_ = false;
  int64_t max_stale_stripes_ = 0;
  int64_t rebuild_cursor_ = 0;
  uint64_t stripes_rebuilt_ = 0;
  uint64_t disk_ops_ = 0;
  std::function<void()> drain_done_;

  // Failure machinery (mirrors the AfraidController state machine).
  int32_t failed_disk_ = -1;
  int32_t recovering_disk_ = -1;
  int64_t recovery_frontier_ = 0;
  bool reconstruction_active_ = false;
  std::function<void()> reconstruction_done_;
  uint64_t deferred_mode_writes_ = 0;  // Stripe writes with deferred parity.
  uint64_t sync_mode_writes_ = 0;      // Stripe writes with in-path parity.
  uint64_t loss_events_ = 0;
  int64_t bytes_lost_ = 0;
  LossListener loss_listener_;

  TimeWeightedValue q_only_stale_;  // Bytes protected by P only.
  TimeWeightedValue both_stale_;    // Bytes with no live parity.
};

}  // namespace afraid

#endif  // AFRAID_CORE_RAID6_CONTROLLER_H_
