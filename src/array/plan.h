// Precompiled request plans: the replay-time half of the compiled replay
// pipeline.
//
// Every trace record's layout mapping -- its Split() into stripe-unit
// segments, plus the (disk, physical offset) of its first unit -- depends
// only on the record and the array geometry, not on any simulated state. A
// RequestPlan therefore resolves a run of records through the ArrayLayout
// once, ahead of their arrivals, into two flat POD arrays: one PlanRecord
// per trace record and one shared Segment pool the records' spans point
// into. Replay then walks the plan instead of re-deriving the mapping per
// request, and the controllers consume the precompiled segments via
// ClientRequest::plan_segs/plan_seg_count (see request.h) instead of calling
// SplitInto in the hot loop. The replayer (plan_stream.h) compiles a trace
// one fixed window of records at a time into recycled plans.
//
// The plan encodes the *same* mapping SplitInto produces (a pure
// precomputation; tests assert segment-for-segment equality), so a planned
// replay follows the bit-identical event trajectory of an unplanned one.

#ifndef AFRAID_ARRAY_PLAN_H_
#define AFRAID_ARRAY_PLAN_H_

#include <cstdint>
#include <vector>

#include "array/layout.h"
#include "sim/arena.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace afraid {

// One trace record, pre-resolved through the layout. POD; lives in a flat
// array with one entry per compiled record.
struct PlanRecord {
  SimTime time = 0;              // Arrival time (same as the trace record).
  int64_t offset = 0;            // Logical byte offset.
  int32_t size = 0;              // Bytes.
  bool is_write = false;
  int64_t stripe = 0;            // Stripe of the first touched unit.
  int32_t block_in_stripe = 0;   // Data-block index of the first unit.
  int32_t disk = 0;              // Disk holding that unit.
  int64_t disk_offset = 0;       // Physical byte offset of the first touched byte.
  uint32_t seg_begin = 0;        // First segment in the plan's segment pool.
  uint32_t seg_count = 0;        // Number of segments.
};

class RequestPlan {
 public:
  // An empty plan, to be filled by Compile(). The replayer keeps a small
  // ring of these and recompiles them in place, window after window.
  RequestPlan() = default;

  // Pre-resolves every record of `trace` against `layout`. The layout must
  // match the array the plan will replay against (same disks, stripe unit,
  // capacity, parity blocks).
  RequestPlan(const Trace& trace, const ArrayLayout& layout) {
    Compile(trace.records.data(), trace.records.size(), layout);
  }

  // Recompiles this plan over `records`, reusing the flat arrays' capacity.
  // Any Span previously returned by segments() is invalidated -- callers
  // (the slot ring) must not recompile a plan while replay still holds
  // segments into it.
  void Compile(const TraceRecord* records, size_t count,
               const ArrayLayout& layout);

  // Resident bytes of the flat arrays (capacity, not size): the replay
  // pipeline's per-slot contribution to peak-memory accounting.
  size_t MemoryBytes() const {
    return records_.capacity() * sizeof(PlanRecord) +
           segments_.capacity() * sizeof(Segment) +
           scratch_.capacity() * sizeof(Segment);
  }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const PlanRecord& record(size_t i) const { return records_[i]; }

  // The precompiled Split() of record i. Stable for the plan's lifetime, so
  // controllers can hold it across asynchronous continuations without
  // copying into pooled scratch.
  Span<Segment> segments(size_t i) const {
    const PlanRecord& r = records_[i];
    return Span<Segment>{segments_.data() + r.seg_begin,
                         static_cast<int32_t>(r.seg_count)};
  }

  size_t TotalSegments() const { return segments_.size(); }

 private:
  std::vector<PlanRecord> records_;
  std::vector<Segment> segments_;  // All records' segments, back to back.
  std::vector<Segment> scratch_;   // SplitInto scratch, reused per record.
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_PLAN_H_
