#include "array/plan_stream.h"

#include <algorithm>
#include <cassert>

namespace afraid {

void StreamingPlanReplayer::Feed(const TraceRecord* records, size_t count) {
  if (destroyed_) {
    dropped_ += count;
    return;
  }
  assert(starved_ && "Feed a replayer only once it starves");
  uncompiled_ = records;
  uncompiled_count_ = count;
  starved_ = false;
  ScheduleNext();
}

void StreamingPlanReplayer::ScheduleNext() {
  if (cur_ < live_.size() && next_rec_ >= live_[cur_].plan->size()) {
    ++cur_;
    next_rec_ = 0;
  }
  TryRetire();
  if (cur_ == live_.size()) {
    if (uncompiled_count_ == 0) {
      starved_ = true;
      return;
    }
    // The current window is exhausted: compile the next one into a slot
    // (TryRetire above may just have freed one).
    const size_t n = std::min(uncompiled_count_, kPlanWindowRecords);
    RequestPlan* plan = ring_.Acquire();
    plan->Compile(uncompiled_, n, *layout_);
    ring_.NotePeak();
    live_.push_back(LivePlan{plan});
    uncompiled_ += n;
    uncompiled_count_ -= n;
  }
  const PlanRecord& r = live_[cur_].plan->record(next_rec_);
  pending_ = sim_->At(std::max(r.time, sim_->Now()), [this] { Fire(); });
  pending_valid_ = true;
}

void StreamingPlanReplayer::Fire() {
  pending_valid_ = false;
  LivePlan& lp = live_[cur_];
  const PlanRecord& r = lp.plan->record(next_rec_);
  const Span<Segment> segs = lp.plan->segments(next_rec_);
  // Bookkeeping first: the driver assigns this submission id next_id_, and
  // its completion (always via a later event, but never assume) must find
  // the outstanding count already raised.
  const uint64_t id = next_id_++;
  if (lp.first_id == 0) {
    lp.first_id = id;
  }
  lp.last_id = id;
  ++lp.outstanding;
  ++submitted_;
  if (r.is_write) {
    submitted_write_bytes_ += r.size;
  } else {
    submitted_read_bytes_ += r.size;
  }
  ++next_rec_;
  driver_->SubmitPlanned(r.offset, r.size, r.is_write, segs.data, segs.count);
  ScheduleNext();
}

void StreamingPlanReplayer::TryRetire() {
  // Only windows before the current one are fully submitted.
  while (cur_ > 0 && live_.front().outstanding == 0) {
    ring_.Release(live_.front().plan);
    live_.pop_front();
    --cur_;
  }
}

void StreamingPlanReplayer::OnComplete(uint64_t id) {
  for (LivePlan& lp : live_) {
    if (lp.first_id != 0 && id >= lp.first_id && id <= lp.last_id) {
      --lp.outstanding;
      break;
    }
  }
  TryRetire();
}

void StreamingPlanReplayer::Destroy() {
  if (destroyed_) {
    return;
  }
  destroyed_ = true;
  if (pending_valid_) {
    sim_->Cancel(pending_);
    pending_valid_ = false;
  }
  // Everything not yet submitted is dropped: the current window's tail and
  // the records never compiled. Moving cur_ past the current window lets it
  // retire as soon as its in-flight requests (if any) complete.
  if (cur_ < live_.size()) {
    dropped_ += live_[cur_].plan->size() - next_rec_;
  }
  dropped_ += uncompiled_count_;
  uncompiled_count_ = 0;
  cur_ = live_.size();
  next_rec_ = 0;
  starved_ = false;  // Destroyed shards just drain; no more feeding needed.
  TryRetire();
}

}  // namespace afraid
