// Precompiled request plans: every trace record's layout mapping -- its
// Split() into stripe-unit segments, plus the (disk, physical offset) of its
// first unit -- resolved through the ArrayLayout ahead of replay, into two
// flat POD arrays: one PlanRecord per trace record and one shared Segment
// pool the records' spans point into.
//
// The plan is off the replay path. Replay submits each record with
// HostDriver::Submit and the controller splits it once, so a plan compiled
// alongside would split every record a second time. It is kept only for
// perfbench's array.plan_compile_ms probe, which times the layout mapping
// of a whole trace; tests assert segment-for-segment equality with
// SplitInto.

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
  // An empty plan, to be filled by Compile().
  RequestPlan() = default;

  // Pre-resolves every record of `trace` against `layout`. The layout must
  // match the array the plan will replay against (same disks, stripe unit,
  // capacity, parity blocks).
  RequestPlan(const Trace& trace, const ArrayLayout& layout) {
    Compile(trace.records.data(), trace.records.size(), layout);
  }

  // Recompiles this plan over `records`, reusing the flat arrays' capacity.
  // Any Span previously returned by segments() is invalidated.
  void Compile(const TraceRecord* records, size_t count,
               const ArrayLayout& layout);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const PlanRecord& record(size_t i) const { return records_[i]; }

  // The precompiled Split() of record i. Stable until the next Compile().
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
