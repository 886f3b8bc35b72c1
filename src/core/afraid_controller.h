// The AFRAID array controller.
//
// One controller class implements the whole family the paper compares --
// exactly as the paper did it: "almost all of the code was the same between
// the various array models ... we modelled RAID 0 as an AFRAID that simply
// never did parity updates." The injected ParityPolicy decides, per write,
// whether parity is updated synchronously (RAID 5 mode) or deferred (AFRAID
// mode), and when background rebuilds run.
//
// Write paths:
//   AFRAID mode:  take the stripe shared, write the data, mark the stripe
//                 unredundant in NVRAM. One disk I/O in the critical path.
//   RAID 5 mode:  take the stripe exclusively, then either
//                   - reconstruct-write (read untouched blocks, recompute
//                     parity from scratch) when most of the stripe changes
//                     (a full-stripe write reads nothing) or when the
//                     stripe's parity is already stale, or
//                   - read-modify-write (pre-read old data + old parity,
//                     xor-delta, write data + parity) for small updates --
//                 the classic 4-I/O small-update penalty of Section 1.
//
// Background parity rebuilds sweep the NVRAM dirty set in ascending stripe
// order (adjacent dirty stripes coalesce into near-sequential disk access),
// one stripe at a time, preemptable between stripes.
//
// Failure machinery: degraded writes and the per-stripe reconstruct step
// over ArrayScheme's shared fail/replace/sweep engine and its degraded read
// (RangeStale answers from the NVRAM bands), NVRAM marking-memory loss with
// the conservative whole-array parity scrub, and host-requested
// paritypoints (Section 5).

#ifndef AFRAID_CORE_AFRAID_CONTROLLER_H_
#define AFRAID_CORE_AFRAID_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "array/cache.h"
#include "array/idle_predictor.h"
#include "array/nvram.h"
#include "array/scheme.h"
#include "avail/model.h"
#include "core/array_config.h"
#include "core/policy.h"
#include "obs/probe.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "stats/time_weighted.h"

namespace afraid {

class AfraidController : public ArrayScheme {
 public:
  // A non-null `probe` turns tracing on (see ArrayScheme); this controller
  // adds mode flips and NVRAM loss to the "controller" track and rebuild
  // passes, band steps and scrubs to the "rebuild" track.
  AfraidController(Simulator* sim, const ArrayConfig& config,
                   std::unique_ptr<ParityPolicy> policy,
                   const AvailabilityParams& avail_params, Probe probe = {});
  ~AfraidController() override;

  // --- ArrayScheme interface ---------------------------------------------------
  const char* SchemeName() const override { return "afraid"; }
  std::string PolicyLabel() const override;
  SchemeState State() const override;
  SchemeStats Stats() const override;

  // --- NVRAM failure ------------------------------------------------------------
  // Loses the NVRAM marking memory (all dirty knowledge gone).
  bool FailNvram() override;
  // The conservative recovery from NVRAM loss: recompute parity everywhere.
  bool StartFullScrub(std::function<void()> done) override;

  // --- Section 5 refinements ---------------------------------------------------
  // Host-requested "paritypoint": force the given byte range redundant;
  // `done` fires once every stripe overlapping the range has fresh parity.
  // Stripes in a kNeverParity region are excluded.
  void ParityPoint(int64_t offset, int64_t length, std::function<void()> done);
  // Forces every dirty stripe redundant (used by tests to quiesce).
  void RebuildAll(std::function<void()> done);

  // Per-region redundancy classes: "stripe-aligned subsets of an AFRAID's
  // storage space could be permanently flagged with different redundancy
  // properties, from full RAID 5 redundancy-preservation to zero-redundancy
  // RAID 0-style storage" (Section 5). Regions override the policy for the
  // stripes they cover; unflagged stripes follow the installed policy.
  enum class RedundancyClass {
    kPolicyDefault,  // Follow the installed ParityPolicy.
    kAlwaysRaid5,    // Synchronous parity, always.
    kAlwaysAfraid,   // Deferred parity, regardless of policy reversion.
    kNeverParity,    // RAID 0-style: parity never maintained.
  };
  // Flags the stripes overlapping [offset, offset+length). Later calls
  // override earlier ones where they overlap.
  void SetRegionClass(int64_t offset, int64_t length, RedundancyClass cls);
  RedundancyClass RegionClassOf(int64_t stripe) const;

  // --- Introspection -----------------------------------------------------------
  const NvramBitmap& nvram() const { return nvram_; }
  bool RebuildInProgress() const { return rebuilding_; }

  // Parity-lag accounting (Section 3.2). Mean over [start, now].
  double MeanParityLagBytes() const { return unprot_bytes_.MeanTo(sim_->Now()); }
  double TUnprotFraction() const { return unprot_bytes_.PositiveFractionTo(sim_->Now()); }
  double CurrentParityLagBytes() const { return unprot_bytes_.Current(); }

  // Time-average client-idle fraction (no client requests in flight).
  double IdleFraction() const { return 1.0 - busy_clients_.PositiveFractionTo(sim_->Now()); }

  uint64_t StripesRebuilt() const { return stripes_rebuilt_; }
  uint64_t RebuildPasses() const { return rebuild_passes_; }
  // Idle windows the predictor judged too short to start a rebuild in.
  uint64_t PredictorSkips() const { return predictor_skips_; }
  const IdlePredictor& idle_predictor() const { return idle_predictor_; }
  uint64_t AfraidModeStripeWrites() const { return afraid_mode_writes_; }
  uint64_t Raid5ModeStripeWrites() const { return raid5_mode_writes_; }
  int64_t MaxDirtyStripes() const { return max_dirty_; }
  uint64_t CacheHits() const { return read_cache_.Hits() + staging_.Hits(); }
  const ParityPolicy& policy() const { return *policy_; }

  // Functional read-back of current logical content (content tracking only):
  // per-sector values, reconstructing across a failed disk where possible.
  std::vector<uint64_t> ReadLogicalCurrent(int64_t offset, int64_t length) const;

  // Builds the policy context snapshot (exposed for tests).
  PolicyContext MakePolicyContext() const;

 private:
  // --- Client paths ---
  // Checks the controller cache after the disk's availability (a lookup
  // counts a hit or a miss and moves the LRU order).
  void ReadSegment(const Segment& seg, JoinBlock* join) override;
  // The write-path plumbing hands pooled storage around: `segs` spans point
  // into the engine's split of the request, `fin`/`group_join` are pooled
  // join blocks, and the callbacks must not retain any of them past their
  // completion (the arena reuse contract, see DESIGN.md).
  void WriteStripe(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                   JoinBlock* join) override {
    RunStripeWriteGroup(request_id, stripe, segs, 0, join);
  }
  void RunStripeWriteGroup(uint64_t request_id, int64_t stripe,
                           Span<Segment> segs, int32_t attempt,
                           JoinBlock* group_join);
  void AfraidWriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                        int32_t attempt, JoinBlock* group_join);
  void Raid5WriteGroup(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                       int32_t attempt, JoinBlock* group_join);
  // Each runs `fin->Dec(ok)` exactly once when the whole step completes. A
  // full-stripe write is a reconstruct-write with nothing to pre-read.
  void ReconstructWrite(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                        JoinBlock* fin);
  void ReadModifyWrite(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                       JoinBlock* fin);
  // Post-completion bookkeeping of one data-segment write (caches, content).
  void ApplyDataWrite(uint64_t request_id, const Segment& seg);

  // --- Rebuild engine ---
  void TriggerRebuildCheck();
  // The rebuilding_ flag only flips through these, so the trace's
  // rebuild-pass spans cannot drift out of sync with the engine state.
  void BeginRebuildPass();
  void EndRebuildPass();
  void RebuildNext();
  // Runs `step_join->Dec(ok)` when the band step completes.
  void RebuildBand(int64_t band_key, JoinBlock* step_join);

  // --- Recovery sweeps ---
  void ReconstructStripe(int64_t stripe, int32_t column) override;
  void OnReconstructionDone() override { TriggerRebuildCheck(); }
  void ScrubNextStripe(int64_t stripe);

  // --- Helpers ---
  // Sub-stripe marking (Section 5): the NVRAM bitmap is keyed by *band*,
  // band key = stripe * M + band, where band b covers byte range
  // [b*S/M, (b+1)*S/M) of every block in the stripe. M = 1 (the paper's
  // baseline) degenerates to one mark per stripe.
  int32_t BandsPerStripe() const { return cfg_.marks_per_stripe; }
  int64_t BandBytesPerStripe() const {
    return layout_->data_blocks_per_stripe() * layout_->stripe_unit() /
           cfg_.marks_per_stripe;
  }
  // Bands covered by a byte range within the stripe unit (inclusive).
  std::pair<int32_t, int32_t> BandsOfRange(int32_t offset_in_block,
                                           int32_t length) const;
  void MarkBands(int64_t stripe, int32_t first_band, int32_t last_band);
  void ClearBandKey(int64_t key);
  void ClearAllBands(int64_t stripe);
  // Any NVRAM band under the range dirty (degraded reads and RAID 5 writes).
  bool RangeStale(int64_t stripe, int32_t offset_in_block,
                  int32_t length) const override;
  // Busy-time, idle-predictor and rebuild-check bookkeeping.
  void OnClientStart() override;
  void OnClientEnd() override;
  // Data-block cache key: global data-block index.
  int64_t BlockKey(int64_t stripe, int32_t j) const {
    return stripe * layout_->data_blocks_per_stripe() + j;
  }
  // True if writes must take the RAID 5 path right now (policy or degraded).
  bool WantRaid5Write();
  void CheckWatchers(int64_t cleared_stripe);
  // First dirty band key at/after `from` (wrapping) outside kNeverParity
  // regions; -1 if none.
  int64_t PickRebuildableKey(int64_t from) const;

  ArrayConfig cfg_;
  std::unique_ptr<ParityPolicy> policy_;
  AvailabilityParams avail_params_;

  NvramBitmap nvram_;
  BlockLruCache read_cache_;
  BlockLruCache staging_;

  // Request-path scratch arena (the join and segment pools are
  // ArrayScheme's): pooled parity/delta buffers, and synchronous-only
  // scratch vectors reused across calls.
  VecPool<uint64_t> u64_pool_;
  mutable std::vector<Segment> read_back_scratch_;   // ReadLogicalCurrent.
  std::vector<const Segment*> by_block_scratch_;     // Raid5WriteGroup.
  std::vector<const Segment*> need_read_scratch_;    // ReadModifyWrite.

  SimTime start_time_;

  // Rebuild engine.
  bool rebuilding_ = false;
  int64_t rebuild_cursor_ = 0;
  uint64_t stripes_rebuilt_ = 0;
  uint64_t rebuild_passes_ = 0;

  // Idleness prediction (optional; Section 4.1 / [Golding95]).
  IdlePredictor idle_predictor_;
  SimTime idle_started_at_ = 0;
  // EWMA of observed per-band rebuild step durations, used as the quantum
  // the predictor must fit. Seeded with a few revolutions' worth.
  double rebuild_step_estimate_ns_ = 35e6;
  uint64_t predictor_skips_ = 0;

  // NVRAM-loss scrub.
  bool scrub_active_ = false;
  std::function<void()> scrub_done_;

  // Paritypoint / quiesce watchers.
  struct Watcher {
    std::set<int64_t> waiting;
    std::function<void()> done;
  };
  std::vector<Watcher> watchers_;

  // Redundancy-class regions, newest-first precedence.
  struct Region {
    int64_t first_stripe;
    int64_t last_stripe;  // Inclusive.
    RedundancyClass cls;
  };
  std::vector<Region> regions_;

  // Accounting.
  TimeWeightedValue unprot_bytes_;
  TimeWeightedValue busy_clients_;
  uint64_t afraid_mode_writes_ = 0;
  uint64_t raid5_mode_writes_ = 0;
  bool last_write_raid5_ = false;
  int64_t max_dirty_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_CORE_AFRAID_CONTROLLER_H_
