// The one trace-arrival path: every replay -- an in-memory Trace, a streamed
// trace file, one fleet shard, faultsim's endless generated workload, the
// bench harnesses -- hands TraceReplayer spans of trace records, and the
// replayer submits each record to the host driver at its arrival time. The
// controller splits the request itself (ArrayScheme::SegmentsOf and the
// write paths' pooled segment vectors), so nothing is precompiled and the
// replayer holds no per-request state beyond its position in the span.
//
// Arrivals are chained: each arrival event submits one record with
// HostDriver::Submit, then schedules the next arrival at max(time, now).
// When a fed span runs dry the replayer goes "starved"; the driving loop
// feeds the next span *before* stepping the simulator again, so the next
// arrival is inserted into the event queue at the same point in the event
// sequence as if the whole trace were one span. Tests assert byte-identical
// reports at every chunk size.

#ifndef AFRAID_ARRAY_REPLAYER_H_
#define AFRAID_ARRAY_REPLAYER_H_

#include <cstddef>
#include <cstdint>

#include "array/host_driver.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace afraid {

// Replays fed spans of trace records through chained arrival events. Push
// model: the driving loop alternates Feed(span) with stepping the simulator
// until starved() (out of records) or Idle(). A record that reaches past the
// array's data capacity is rejected at its arrival: counted, never submitted.
class TraceReplayer {
 public:
  TraceReplayer(Simulator* sim, HostDriver* driver)
      : sim_(sim), driver_(driver),
        capacity_bytes_(driver->array().DataCapacityBytes()) {}
  TraceReplayer(const TraceReplayer&) = delete;
  TraceReplayer& operator=(const TraceReplayer&) = delete;

  // Hands a starved replayer the next span of records. The span must stay
  // valid until the replayer starves again. The first arrival is scheduled
  // at once (before any simulator step, preserving event order). A destroyed
  // replayer counts the span as dropped.
  void Feed(const TraceRecord* records, size_t count);

  // Out of records to submit: the driving loop must Feed the next span, or
  // drain the simulator when the trace is done.
  bool starved() const { return starved_; }

  // Stops submitting until Resume(): cancels the pending arrival. In-flight
  // requests still complete.
  void Pause();

  // Reschedules the next arrival with its gap kept, not its absolute time:
  // it arrives as long after now as it was due after the last record that
  // arrived, submitted or rejected (or, if none of this span has, after the
  // instant the span was fed), and the rest of the span keeps its gaps
  // behind it. So a pause never releases a burst of overdue arrivals.
  void Resume();

  // Stop submitting (fleet mgmt "destroy"): cancels the pending arrival and
  // counts every record not yet submitted -- the rest of the current span
  // and every later span -- as dropped. In-flight requests still complete.
  void Destroy();
  bool destroyed() const { return destroyed_; }

  uint64_t submitted() const { return submitted_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t rejected() const { return rejected_; }
  int64_t submitted_read_bytes() const { return submitted_read_bytes_; }
  int64_t submitted_write_bytes() const { return submitted_write_bytes_; }

 private:
  void ScheduleNext();
  void Fire();

  Simulator* sim_;
  HostDriver* driver_;
  int64_t capacity_bytes_;  // The array's, read once.
  const TraceRecord* begin_ = nullptr;  // The fed span: [begin_, end_),
  const TraceRecord* next_ = nullptr;   // next_ the first unsubmitted record.
  const TraceRecord* end_ = nullptr;
  SimTime fed_at_ = 0;     // When the span was fed.
  SimDuration shift_ = 0;  // Added to record times since the last Resume.
  EventId pending_{};
  bool pending_valid_ = false;
  bool starved_ = true;
  bool paused_ = false;
  bool destroyed_ = false;
  uint64_t submitted_ = 0;
  uint64_t dropped_ = 0;
  uint64_t rejected_ = 0;
  int64_t submitted_read_bytes_ = 0;
  int64_t submitted_write_bytes_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_REPLAYER_H_
