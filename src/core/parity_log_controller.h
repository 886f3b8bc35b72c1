// Parity logging [Stodolsky93]: the closest prior solution to the small-
// update problem, and the main comparison point of the paper's Section 2.
//
// A parity-logging array keeps full redundancy at all times. A small write
// performs the usual read-modify-write on the *data* block, but instead of
// read-modify-writing the parity block it appends the xor of old and new
// data (the "parity update image") to a log: first into an NVRAM buffer,
// then -- when the buffer fills -- as one large sequential write to a log
// region on disk. When the on-disk log region fills, the array must *replay*
// it: read the log and the affected parity en masse, apply the xors, and
// rewrite the parity, reclaiming the log.
//
// Section 2's qualitative comparison, which this model reproduces:
//   * "AFRAID avoids a pre-read of the old data in the critical path for
//     writes, and thus saves a complete disk revolution on most small
//     writes" -- parity logging still pays read-old + write-new on the data
//     disk (2 I/Os, rotationally coupled); AFRAID pays 1.
//   * "the parity logging scheme applies a batch of parity updates at a
//     time, which can interfere with foreground I/O requests" -- replay here
//     is a burst of large sequential transfers that foreground requests
//     queue behind (it cannot be preempted mid-batch).
//   * "There is no parity log to fill up in AFRAID -- all that happens is
//     that the data becomes less well protected."
//
// The log is modelled as a dedicated region at the end of each disk,
// rotated across disks per log segment; full redundancy means the exposure
// statistics of this controller are identically zero.
//
// Failure machinery (over ArrayScheme's shared fail/replace/sweep engine):
// because every parity-update image is durable (NVRAM first, then the
// on-disk log), the stripe's parity information is recoverable at all times
// -- reads go through the engine's degraded read with the default
// RangeStale (never stale), the replacement-disk reconstruction sweep is
// lossless, and the content model tracks the post-replay parity directly. A
// write whose data disk is out exists only as its image until the sweep
// restores the block; log flushes and replay parity updates simply skip the
// dead disk.

#ifndef AFRAID_CORE_PARITY_LOG_CONTROLLER_H_
#define AFRAID_CORE_PARITY_LOG_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "array/scheme.h"
#include "core/array_config.h"
#include "obs/probe.h"
#include "sim/arena.h"
#include "sim/simulator.h"

namespace afraid {

struct ParityLogConfig {
  // Replay starts when the log passes kHighWater and drains to kLowWater.
  // NVRAM staging for parity-update images; flushed to disk when full.
  int64_t nvram_buffer_bytes = 256 * 1024;
  // On-disk log region per disk; a replay is forced when the total fills.
  int64_t log_region_bytes = 8 * 1024 * 1024;
  // Images applied per parity-region transfer during replay (batching).
  int32_t replay_batch_stripes = 64;

  // Shrinks the log region (and, if needed, the NVRAM buffer) so the log
  // fits a disk of `disk_capacity_bytes` with room left for data. A no-op
  // when the defaults already fit (any realistic disk); on tiny test disks
  // the region clamps to a quarter of the disk.
  ParityLogConfig FittedTo(int64_t disk_capacity_bytes) const;
};

class ParityLogController : public ArrayScheme {
 public:
  ParityLogController(Simulator* sim, const ArrayConfig& config,
                      const ParityLogConfig& log_config, Probe probe = {});
  ~ParityLogController() override;

  // --- ArrayScheme interface ---
  const char* SchemeName() const override { return "parity-log"; }
  std::string PolicyLabel() const override { return "ParityLog"; }
  SchemeState State() const override;
  SchemeStats Stats() const override;

  // --- Introspection ---
  uint64_t LogFlushes() const { return log_flushes_; }
  uint64_t LogReplays() const { return log_replays_; }
  // Writes that arrived while the log was hard-full and had to wait for a
  // replay batch to reclaim space (the Section 2 interference mode).
  uint64_t HardStalls() const { return hard_stalls_; }
  int64_t PendingImagesBytes() const { return nvram_used_ + log_used_; }
  // Always zero: parity logging never relinquishes redundancy. Kept so the
  // comparison harness can treat all controllers uniformly.
  double TUnprotFraction() const { return 0.0; }
  double MeanParityLagBytes() const { return 0.0; }
  bool ReplayInProgress() const { return replaying_; }

 private:
  // A write segment parked while the log is hard-full, resumed (in arrival
  // order) when a replay batch reclaims space.
  struct StalledWrite {
    uint64_t request_id = 0;
    Segment seg;
    JoinBlock* join = nullptr;
  };

  // Each segment waits for a replay while the log is hard-full, else is
  // written (WriteSegment), in request order.
  void WriteStripe(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                   JoinBlock* join) override;
  void WriteSegment(uint64_t request_id, const Segment& seg, JoinBlock* join);
  void ReconstructStripe(int64_t stripe, int32_t column) override;
  // Content bookkeeping for one committed write segment: data tags plus the
  // always-recoverable parity over the touched range.
  void UpdateContentForWrite(uint64_t request_id, const Segment& seg);
  // Appends `bytes` of parity-update images to the NVRAM buffer; may
  // trigger a buffer flush to the on-disk log, and then a full replay.
  void AppendImages(int64_t bytes);
  void FlushBuffer();
  void StartReplay();
  void ReplayNextBatch();

  ParityLogConfig log_cfg_;

  // Steady-state pooled storage (see DESIGN.md, "Arena reuse contract").
  std::vector<StalledWrite> stalled_;   // Writes waiting for replay.
  std::vector<StalledWrite> runnable_scratch_;

  uint64_t stripes_rebuilt_ = 0;  // Stripes restored by reconstruction sweeps.

  int64_t nvram_used_ = 0;   // Bytes of images in the NVRAM buffer.
  int64_t log_used_ = 0;     // Bytes of images in the on-disk log region.
  int32_t log_disk_cursor_ = 0;  // Round-robin disk for log segment writes.
  bool replaying_ = false;

  int64_t replay_position_ = 0;  // Stripe cursor for replayed parity units.
  static constexpr double kHighWater = 0.75;
  static constexpr double kLowWater = 0.25;

  uint64_t log_flushes_ = 0;
  uint64_t log_replays_ = 0;
  uint64_t hard_stalls_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_CORE_PARITY_LOG_CONTROLLER_H_
