#include "array/replayer.h"

#include <algorithm>
#include <cassert>

namespace afraid {

void TraceReplayer::Feed(const TraceRecord* records, size_t count) {
  if (destroyed_) {
    dropped_ += count;
    return;
  }
  assert(starved_ && "Feed a replayer only once it starves");
  begin_ = records;
  next_ = records;
  end_ = records + count;
  fed_at_ = sim_->Now();
  shift_ = 0;
  starved_ = false;
  ScheduleNext();
}

void TraceReplayer::ScheduleNext() {
  if (next_ == end_) {
    starved_ = true;
    return;
  }
  pending_ = sim_->At(std::max(next_->time + shift_, sim_->Now()), [this] { Fire(); });
  pending_valid_ = true;
}

void TraceReplayer::Fire() {
  pending_valid_ = false;
  const TraceRecord& r = *next_++;
  if (r.offset > capacity_bytes_ - r.size) {  // offset + size could overflow.
    ++rejected_;
  } else {
    ++submitted_;
    if (r.is_write) {
      submitted_write_bytes_ += r.size;
    } else {
      submitted_read_bytes_ += r.size;
    }
    driver_->Submit(r.offset, r.size, r.is_write);
  }
  ScheduleNext();
}

void TraceReplayer::Pause() {
  assert(!paused_ && !destroyed_);
  paused_ = true;
  if (pending_valid_) {
    sim_->Cancel(pending_);
    pending_valid_ = false;
  }
}

void TraceReplayer::Resume() {
  assert(paused_);
  paused_ = false;
  if (next_ == end_) {
    return;  // Starved (the next Feed schedules) or destroyed.
  }
  const SimTime prev = next_ != begin_ ? next_[-1].time : fed_at_;
  shift_ = sim_->Now() - prev;
  ScheduleNext();
}

void TraceReplayer::Destroy() {
  if (destroyed_) {
    return;
  }
  destroyed_ = true;
  if (pending_valid_) {
    sim_->Cancel(pending_);
    pending_valid_ = false;
  }
  dropped_ += static_cast<uint64_t>(end_ - next_);
  next_ = end_;
  starved_ = false;  // Destroyed shards just drain; no more feeding needed.
}

}  // namespace afraid
