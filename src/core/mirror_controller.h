// Mirrored striping (RAID 1/0): the paper's Section 2 baseline that "solves
// the small-write problem by brute force" -- every block lives on two disks,
// so a small write costs two parallel writes and no parity arithmetic at all,
// at the price of 50% space efficiency.
//
// The array pairs its disks into columns: column c is the mirror pair
// (2c, 2c+1), and client data rotates across columns through a parity-free
// StripeLayout. Reads exploit the duplicate: the dispatcher picks, per
// segment, the replica that will position fastest -- fewest queued operations
// first, then the shorter estimated positioning time from each arm's current
// cylinder (the classic shortest-positioning-time mirror read policy), with
// the lower disk id as the deterministic tie-break.
//
// Failure machinery (over ArrayScheme's shared fail/replace/sweep engine):
// with a disk out, reads simply fall to the surviving twin (a read the dying
// disk dropped is re-issued there) and writes update it alone, so degraded
// service is lossless and there is no exposure window at all. The
// per-stripe reconstruct step copies twin -> replacement, after which the
// pair is redundant again. Exposure statistics are identically zero.

#ifndef AFRAID_CORE_MIRROR_CONTROLLER_H_
#define AFRAID_CORE_MIRROR_CONTROLLER_H_

#include <cstdint>
#include <string>

#include "array/scheme.h"
#include "core/array_config.h"
#include "obs/probe.h"
#include "sim/arena.h"
#include "sim/simulator.h"

namespace afraid {

class MirrorController : public ArrayScheme {
 public:
  // `config.num_disks` must be even (>= 2); the registry's Normalize rounds
  // odd widths down.
  MirrorController(Simulator* sim, const ArrayConfig& config, Probe probe = {});
  ~MirrorController() override;

  // --- ArrayScheme interface ---
  const char* SchemeName() const override { return "mirror"; }
  std::string PolicyLabel() const override { return "Mirror-SPTF"; }
  SchemeState State() const override;
  SchemeStats Stats() const override;

  // --- Introspection ---
  uint64_t StripesRebuilt() const { return stripes_rebuilt_; }

  // Replica-choice core, exposed for the dispatch benchmark: picks the disk
  // (primary or twin) that serves `op` fastest right now.
  int32_t ChooseReplica(int64_t stripe, int32_t primary, const DiskOp& op) const;

 private:
  // Reads one segment from the replica ChooseReplica picks; a read whose
  // disk op fails is re-issued, which lands on the surviving twin.
  void ReadSegment(const Segment& seg, JoinBlock* join) override;
  // Writes each segment to both copies (WriteSegment), in request order.
  void WriteStripe(uint64_t request_id, int64_t stripe, Span<Segment> segs,
                   JoinBlock* join) override;
  void WriteSegment(uint64_t request_id, const Segment& seg, JoinBlock* join);
  void ReconstructStripe(int64_t stripe, int32_t column) override;
  // Disks 2c and 2c+1 hold column c's primary copy and its twin: data
  // column j and twin column ParityColumn(j) of the content model.
  int32_t ColumnOnDisk(int64_t stripe, int32_t disk) const override;

  uint64_t stripes_rebuilt_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_CORE_MIRROR_CONTROLLER_H_
