#include "array/host_driver.h"

#include <cassert>

namespace afraid {

HostDriver::HostDriver(Simulator* sim, ArrayController* array, int32_t max_active,
                       HostSched sched, Probe probe)
    : sim_(sim),
      array_(array),
      max_active_(max_active),
      sched_(sched),
      probe_(probe.NewTrack("driver")),
      queue_(std::less<int64_t>(),
             PoolAllocator<std::pair<const int64_t, ClientRequest>>(&queue_nodes_)),
      occupancy_(sim->Now()) {}

void HostDriver::Submit(int64_t offset, int32_t size, bool is_write) {
  assert(size > 0);
  assert(offset >= 0 && offset + size <= array_->DataCapacityBytes());
  ClientRequest r;
  r.id = next_id_++;
  r.offset = offset;
  r.size = size;
  r.is_write = is_write;
  r.arrival = sim_->Now();
  ++accepted_;
  occupancy_.Add(sim_->Now(), +1.0);
  if (probe_) {
    probe_.AsyncBegin(is_write ? "write" : "read", r.id, r.arrival,
                      "{\"offset\":" + std::to_string(offset) +
                          ",\"bytes\":" + std::to_string(size) + "}");
    probe_.Counter("driver occupancy", r.arrival, occupancy_.Current());
  }
  // The queue key selects the discipline: offset order for CLOOK, arrival
  // order for FCFS (the request id is the arrival sequence number).
  queue_.emplace(sched_ == HostSched::kClook ? offset : static_cast<int64_t>(r.id),
                 r);
  TryDispatch();
}

void HostDriver::TryDispatch() {
  while (!queue_.empty() && (max_active_ <= 0 || active_ < max_active_)) {
    auto it = queue_.begin();
    if (sched_ == HostSched::kClook) {
      // CLOOK: next request at or beyond the sweep position, else wrap.
      it = queue_.lower_bound(sweep_offset_);
      if (it == queue_.end()) {
        it = queue_.begin();
      }
    }
    ClientRequest r = it->second;
    queue_.erase(it);
    sweep_offset_ = r.offset;
    ++active_;
    // Capture only the fields the completion needs, so the callback stays
    // inside RequestDone's inline buffer.
    array_->Submit(r, [this, id = r.id, is_write = r.is_write,
                       arrival = r.arrival] { OnComplete(id, is_write, arrival); });
  }
}

void HostDriver::OnComplete(uint64_t id, bool is_write, SimTime arrival) {
  --active_;
  ++completed_;
  occupancy_.Add(sim_->Now(), -1.0);
  if (probe_) {
    probe_.AsyncEnd(is_write ? "write" : "read", id, sim_->Now());
    probe_.Counter("driver occupancy", sim_->Now(), occupancy_.Current());
  }
  const double ms = ToMilliseconds(sim_->Now() - arrival);
  all_ms_.Add(ms);
  if (is_write) {
    write_ms_.Add(ms);
  } else {
    read_ms_.Add(ms);
  }
  if (completion_listener_) {
    completion_listener_(id, ms, is_write);
  }
  TryDispatch();
}

}  // namespace afraid
