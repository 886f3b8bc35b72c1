// The host device driver: request queueing, CLOOK dispatch, and the latency
// clock the experiments report.
//
// Matching Section 4.1 of the paper:
//   * "We limited the number of concurrently active client requests inside
//     the array to the number of physical disks it had";
//   * "the host device driver used the clook policy [Worthington94a]";
//   * "The I/O times we report ... start when a request is given to the
//     device driver, and stop when the request is completed by the array.
//     They include both the time spent in the array itself and any time
//     spent queued in the device driver."
//
// CLOOK (circular LOOK): dispatch the queued request with the smallest
// starting offset at or beyond the last dispatched offset; when none
// remains, wrap to the smallest offset overall.

#ifndef AFRAID_ARRAY_HOST_DRIVER_H_
#define AFRAID_ARRAY_HOST_DRIVER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "array/controller.h"
#include "array/request.h"
#include "obs/probe.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "stats/sample_set.h"
#include "stats/streaming.h"
#include "stats/time_weighted.h"

namespace afraid {

// Queueing discipline for requests waiting in the driver.
enum class HostSched {
  kClook,  // The paper's choice [Worthington94a].
  kFcfs,   // Arrival order; baseline for the scheduler ablation.
};

class HostDriver {
 public:
  // `max_active` <= 0 means "unlimited". A non-null `probe` makes the driver
  // open a "driver" trace track carrying one async span per client request
  // (arrival -> completion) and an occupancy counter timeline.
  HostDriver(Simulator* sim, ArrayController* array, int32_t max_active,
             HostSched sched = HostSched::kClook, Probe probe = {});
  HostDriver(const HostDriver&) = delete;
  HostDriver& operator=(const HostDriver&) = delete;

  // Accepts a request at the current simulated time (its arrival).
  // The id field is assigned by the driver.
  void Submit(int64_t offset, int32_t size, bool is_write);

  const ArrayController& array() const { return *array_; }

  // Number of requests accepted / completed so far.
  uint64_t Accepted() const { return accepted_; }
  uint64_t Completed() const { return completed_; }
  bool Drained() const { return accepted_ == completed_; }

  // Latencies in milliseconds (arrival -> completion). Each request's
  // latency is retained once, in AllLatencies(), for exact percentiles; the
  // read and write splits keep a running summary (count, mean, min, max).
  SampleSet& AllLatencies() { return all_ms_; }
  const StreamingStats& ReadLatencies() const { return read_ms_; }
  const StreamingStats& WriteLatencies() const { return write_ms_; }

  // Time-weighted number of requests in the driver (queued + active).
  const TimeWeightedValue& Occupancy() const { return occupancy_; }

  // Pre-sizes the retained latency samples for `n` expected requests, so a
  // measured steady state never reallocates them (allocation-free path).
  void ReserveLatencySamples(size_t n) { all_ms_.Reserve(n); }

  // Per-request completion hook: fires after the latency samples are
  // recorded, with the driver-assigned id (1-based, in submission order)
  // and the measured arrival->completion latency. The fleet layer uses it
  // to join split requests across shards; null (the default) costs nothing.
  using CompletionListener = std::function<void(uint64_t id, double ms, bool is_write)>;
  void SetCompletionListener(CompletionListener listener) {
    completion_listener_ = std::move(listener);
  }

 private:
  void TryDispatch();
  void OnComplete(uint64_t id, bool is_write, SimTime arrival);

  Simulator* sim_;
  ArrayController* array_;
  int32_t max_active_;
  HostSched sched_;
  Probe probe_;  // Bound to the driver's own track when tracing.

  // Queued (not yet dispatched) requests. For CLOOK the key is the starting
  // offset; for FCFS it is the arrival sequence number. multimap: several
  // queued requests may share a key. Tree nodes come from the recycling
  // NodePool, so a bounded queue population stops allocating after warm-up.
  NodePool queue_nodes_;
  std::multimap<int64_t, ClientRequest, std::less<int64_t>,
                PoolAllocator<std::pair<const int64_t, ClientRequest>>>
      queue_;
  int64_t sweep_offset_ = 0;  // CLOOK arm position.
  int32_t active_ = 0;

  uint64_t next_id_ = 1;
  uint64_t accepted_ = 0;
  uint64_t completed_ = 0;
  SampleSet all_ms_;
  StreamingStats read_ms_;
  StreamingStats write_ms_;
  TimeWeightedValue occupancy_;
  CompletionListener completion_listener_;
};

}  // namespace afraid

#endif  // AFRAID_ARRAY_HOST_DRIVER_H_
