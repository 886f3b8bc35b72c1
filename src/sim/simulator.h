// The discrete-event simulation driver: a clock plus an event queue.
//
// Components schedule callbacks against the Simulator; RunUntil()/RunToEnd()
// advance the clock to each event in order and invoke it. This mirrors the
// structure of the Pantheon simulator used in the AFRAID paper: everything in
// the modelled array (disk mechanics, controller state machines, idle
// detection, trace arrival processes) is expressed as events.

#ifndef AFRAID_SIM_SIMULATOR_H_
#define AFRAID_SIM_SIMULATOR_H_

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace afraid {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` at absolute time `when`, which must not be in the past.
  // The callable is built in its event slot and runs there.
  template <typename F>
  EventId At(SimTime when, F&& fn) {
    assert(when >= now_);
    return queue_.Schedule(when, std::forward<F>(fn));
  }

  // Schedules `fn` after a non-negative delay from now.
  template <typename F>
  EventId After(SimDuration delay, F&& fn) {
    assert(delay >= 0);
    return queue_.Schedule(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event; see EventQueue::Cancel.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  // Runs events until the queue is empty or the next event is after
  // `deadline`; the clock finishes at min(deadline, last event time) — i.e.
  // RunUntil leaves Now() at `deadline` if the queue drained earlier events.
  void RunUntil(SimTime deadline);

  // Runs until no events remain.
  void RunToEnd();

  // Executes exactly one event, if any. Returns false if the queue was empty.
  bool Step();

  // True if no pending events remain.
  bool Idle() const { return queue_.Empty(); }

  // Number of pending events.
  size_t PendingEvents() const { return queue_.Size(); }

  // Total events executed since construction.
  uint64_t EventsProcessed() const { return events_processed_; }

  // Time of the next pending event (kSimTimeNever if none).
  SimTime NextEventTime() const { return queue_.NextTime(); }

  // Returns the simulator to its just-constructed state: clock at 0, no
  // pending events, counters cleared. Event-queue slot storage is retained,
  // so a reset simulator re-runs without reallocating — this is what lets a
  // campaign worker reuse one arena across lifetimes (faultsim/campaign.h).
  void Reset() {
    queue_.Clear();
    now_ = 0;
    events_processed_ = 0;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_processed_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_SIM_SIMULATOR_H_
