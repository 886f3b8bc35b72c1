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
// Failure machinery (over ArrayScheme's shared fail/replace/sweep engine):
// reads go through the engine's degraded read, which rebuilds through P and
// asks RangeStale (P's stale bit); degraded writes switch to synchronous
// full-stripe parity recompute; and a per-stripe reconstruct step
// recomputes a lost data block from P and the surviving data, or a lost
// parity from the data. Every stripe with stale P also has stale Q (a write
// marks Q alone or both, and Q goes fresh only once P is), so P is never
// stale while Q is live. A stripe whose P *and* Q were both stale when the
// disk died is unrecoverable; the machinery charges a LossEvent exactly as
// the AFRAID controller does. Every stale mark changes under the stripe's
// exclusive lock, so a degraded read sees the marks its lock grant saw.

#ifndef AFRAID_CORE_RAID6_CONTROLLER_H_
#define AFRAID_CORE_RAID6_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "array/nvram.h"
#include "array/scheme.h"
#include "core/array_config.h"
#include "obs/probe.h"
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
  Raid6Controller(Simulator* sim, const ArrayConfig& config, Raid6Mode mode,
                  Probe probe = {});
  ~Raid6Controller() override;

  // Forces both parities of every stale stripe fresh; for tests/quiesce.
  void RebuildAll(std::function<void()> done);

  // --- ArrayScheme interface ---
  const char* SchemeName() const override;
  std::string PolicyLabel() const override { return Raid6ModeName(mode_); }
  SchemeState State() const override;
  SchemeStats Stats() const override;

  // --- Introspection ---
  Raid6Mode mode() const { return mode_; }
  int64_t StaleP() const { return p_stale_.DirtyCount(); }
  int64_t StaleQ() const { return q_stale_.DirtyCount(); }
  uint64_t StripesRebuilt() const { return stripes_rebuilt_; }
  // Time-average bytes covered by no live parity.
  double MeanFullyExposedBytes() const { return both_stale_.MeanTo(sim_->Now()); }
  double TQStaleFraction() const { return q_only_stale_.PositiveFractionTo(sim_->Now()); }
  double TBothStaleFraction() const { return both_stale_.PositiveFractionTo(sim_->Now()); }

  // True iff stripe's P (and Q) match the data per the content model.
  bool StripeFullyConsistent(int64_t stripe) const;

 private:
  // A degraded array takes DegradedWriteStripe; otherwise the mode decides
  // which parities the write updates in place and which it marks stale.
  void WriteStripe(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                   JoinBlock* group_join) override;
  // A block rebuilt through P is lost when P (and so Q) is stale.
  bool RangeStale(int64_t stripe, int32_t offset_in_block,
                  int32_t length) const override;
  // Degraded write: synchronous full-stripe P+Q recompute around the
  // unavailable disk (the RAID 6 analogue of AFRAID's forced RAID 5 mode).
  void DegradedWriteStripe(uint64_t request_id, int64_t stripe,
                           Span<Segment> segs, JoinBlock* group_join);
  void ReconstructStripe(int64_t stripe, int32_t column) override;
  // Deferred-parity work that queued up behind the sweep may resume.
  void OnReconstructionDone() override { MaybeStartRebuild(); }
  void MaybeStartRebuild();
  void RebuildNext();
  void RebuildStripe(int64_t stripe, JoinBlock* step_join);
  // Content model: Q becomes the GF(256) syndrome of the data blocks.
  void RefreshQ(int64_t stripe);
  void MarkStale(int64_t stripe, bool p, bool q);
  void ClearStale(int64_t stripe);
  void UpdateExposure();

  Raid6Mode mode_;
  NvramBitmap p_stale_;
  NvramBitmap q_stale_;

  // Steady-state pooled storage (see DESIGN.md, "Arena reuse contract"):
  // dp/dq parity deltas live in u64_pool_ vectors until the write join fires.
  VecPool<uint64_t> u64_pool_;

  bool rebuilding_ = false;
  int64_t max_stale_stripes_ = 0;
  int64_t rebuild_cursor_ = 0;
  uint64_t stripes_rebuilt_ = 0;
  std::function<void()> drain_done_;

  uint64_t deferred_mode_writes_ = 0;  // Stripe writes with deferred parity.
  uint64_t sync_mode_writes_ = 0;      // Stripe writes with in-path parity.

  TimeWeightedValue q_only_stale_;  // Bytes protected by P only.
  TimeWeightedValue both_stale_;    // Bytes with no live parity.
};

}  // namespace afraid

#endif  // AFRAID_CORE_RAID6_CONTROLLER_H_
