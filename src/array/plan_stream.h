// The replay half of the compiled replay pipeline, and its only replay
// path: every replay -- an in-memory Trace, a streamed trace file, one fleet
// shard -- hands StreamingPlanReplayer spans of trace records, and the
// replayer compiles them into recycled RequestPlan slots one fixed window at
// a time. Plan memory is O(window), independent of trace length.
//
// Lifetime is the crux. Controllers hold Span<Segment> views into a plan
// across asynchronous continuations (request.h), so a plan slot must not be
// recompiled while any request submitted from it is still in flight. The
// replayer therefore keeps every window's plan "live" until (a) all its
// records have been submitted and (b) all its submitted requests have
// completed -- tracked via the driver's 1-based sequential completion ids,
// which the replayer mirrors because it is the driver's only submitter. Only
// then does the slot return to the ring for reuse. Under the paper's
// open-loop arrivals the in-flight window is tiny, so the ring converges to
// two or three slots.
//
// Arrivals are chained: each arrival event submits, then schedules the next
// arrival at max(record.time, now). The next window is compiled only when
// the current one is exhausted, inside that arrival event; compiling touches
// no simulated state, so windowing cannot move an event. When a fed span
// runs dry the replayer goes "starved"; the driving loop feeds the next span
// *before* stepping the simulator again, so the next arrival is inserted
// into the event queue at the same point in the event sequence as if the
// whole trace were one span. Tests assert byte-identical reports at every
// chunk size.

#ifndef AFRAID_ARRAY_PLAN_STREAM_H_
#define AFRAID_ARRAY_PLAN_STREAM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "array/host_driver.h"
#include "array/layout.h"
#include "array/plan.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace afraid {

// Trace records compiled into one plan slot: about 0.75 MiB of plan (a
// 56-byte PlanRecord plus at least one 32-byte Segment per record).
inline constexpr size_t kPlanWindowRecords = 8192;

// A grow-on-demand pool of reusable RequestPlan slots. Acquire() prefers a
// released slot; the ring only grows while replay genuinely needs more
// windows in flight at once.
class PlanSlotRing {
 public:
  RequestPlan* Acquire() {
    if (free_.empty()) {
      slots_.push_back(std::make_unique<RequestPlan>());
      return slots_.back().get();
    }
    RequestPlan* plan = free_.back();
    free_.pop_back();
    return plan;
  }

  void Release(const RequestPlan* plan) {
    // The ring owns the slots non-const; consumers only see const plans.
    free_.push_back(const_cast<RequestPlan*>(plan));
  }

  // Refresh the high-water mark of all slots' resident bytes. Call after
  // each Compile; capacity only changes there.
  void NotePeak() {
    size_t now = 0;
    for (const auto& slot : slots_) {
      now += slot->MemoryBytes();
    }
    if (now > peak_bytes_) {
      peak_bytes_ = now;
    }
  }

  int32_t slots() const { return static_cast<int32_t>(slots_.size()); }
  size_t peak_bytes() const { return peak_bytes_; }

 private:
  std::vector<std::unique_ptr<RequestPlan>> slots_;
  std::vector<RequestPlan*> free_;
  size_t peak_bytes_ = 0;
};

// Replays fed spans of trace records through chained arrival events,
// compiling each span kPlanWindowRecords at a time and retiring each
// window's slot once fully submitted and completed. Push model: the driving
// loop alternates Feed(span) with stepping the simulator until starved()
// (out of records) or Idle().
//
// The replayer must be the driver's only submitter, and the driver's
// completion listener must forward every completion id to OnComplete()
// (composing with any other listener work, e.g. per-request latency capture).
class StreamingPlanReplayer {
 public:
  // `layout` must outlive the replayer (the owning controller does).
  StreamingPlanReplayer(Simulator* sim, HostDriver* driver,
                        const ArrayLayout& layout)
      : sim_(sim), driver_(driver), layout_(&layout) {}

  // Hands a starved replayer the next span of records. The span must stay
  // valid until the replayer starves again: its windows are compiled as
  // replay reaches them. The first arrival is scheduled at once (before any
  // simulator step, preserving event order). A destroyed replayer counts the
  // span as dropped.
  void Feed(const TraceRecord* records, size_t count);

  // Out of records to submit: the driving loop must Feed the next span, or
  // drain the simulator when the trace is done.
  bool starved() const { return starved_; }

  // Forward from the driver's completion listener.
  void OnComplete(uint64_t id);

  // Stop submitting (fleet mgmt "destroy"): cancels the pending arrival and
  // counts every record not yet submitted -- the rest of the current window,
  // the uncompiled rest of the span and every later span -- as dropped.
  // In-flight requests still complete and retire their slots.
  void Destroy();
  bool destroyed() const { return destroyed_; }

  const PlanSlotRing& ring() const { return ring_; }
  uint64_t submitted() const { return submitted_; }
  uint64_t dropped() const { return dropped_; }
  int64_t submitted_read_bytes() const { return submitted_read_bytes_; }
  int64_t submitted_write_bytes() const { return submitted_write_bytes_; }

 private:
  // One compiled window. Windows before cur_ are fully submitted; the front
  // one retires once its requests have all completed.
  struct LivePlan {
    const RequestPlan* plan = nullptr;
    uint64_t outstanding = 0;  // Submitted but not yet completed.
    uint64_t first_id = 0;     // Driver ids of this window's submissions
    uint64_t last_id = 0;      // (0 = none submitted yet).
  };

  void ScheduleNext();
  void Fire();
  void TryRetire();

  Simulator* sim_;
  HostDriver* driver_;
  const ArrayLayout* layout_;
  PlanSlotRing ring_;
  std::deque<LivePlan> live_;
  const TraceRecord* uncompiled_ = nullptr;  // Rest of the fed span.
  size_t uncompiled_count_ = 0;
  size_t cur_ = 0;       // Index into live_ of the window being submitted.
  size_t next_rec_ = 0;  // Next record within live_[cur_].
  uint64_t next_id_ = 1;  // Mirrors the driver's sequential id assignment.
  EventId pending_{};
  bool pending_valid_ = false;
  bool starved_ = true;
  bool destroyed_ = false;
  uint64_t submitted_ = 0;
  uint64_t dropped_ = 0;
  int64_t submitted_read_bytes_ = 0;
  int64_t submitted_write_bytes_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_PLAN_STREAM_H_
