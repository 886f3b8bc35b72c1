#include "disk/disk_model.h"

#include <cassert>
#include <utility>

namespace afraid {

DiskModel::DiskModel(Simulator* sim, std::shared_ptr<const DiskMechanics> mechanics,
                     int32_t disk_id, Probe probe)
    : sim_(sim),
      mech_(std::move(mechanics)),
      disk_id_(disk_id),
      probe_(probe),
      busy_time_(sim->Now()) {
  assert(mech_ != nullptr);
  if (probe_) {
    queue_counter_name_ = "disk" + std::to_string(disk_id_) + " queue";
  }
}

DiskModel::OpRecord* DiskModel::AcquireRecord() {
  if (free_records_.empty()) {
    records_.push_back(std::make_unique<OpRecord>());
    return records_.back().get();
  }
  OpRecord* rec = free_records_.back();
  free_records_.pop_back();
  return rec;
}

void DiskModel::ReleaseRecord(OpRecord* rec) {
  rec->done.Reset();  // Drop the callback's captures eagerly.
  free_records_.push_back(rec);
}

void DiskModel::FailAtSubmit(DiskOpCallback done) {
  const SimTime now = sim_->Now();
  DiskOpResult result;
  result.ok = false;
  result.submitted = now;
  result.service_start = now;
  result.finish = now;
  sim_->After(0, [done = std::move(done), result]() mutable { done(result); });
}

void DiskModel::Enqueue(OpRecord* rec) {
  queue_.push_back(rec);
  if (probe_) {
    probe_.Counter(queue_counter_name_, rec->submitted,
                   static_cast<double>(QueueDepth()));
  }
  if (!busy_) {
    StartNext();
  }
}

void DiskModel::StartNext() {
  assert(!busy_);
  if (queue_.empty() || failed_) {
    return;
  }
  OpRecord* rec = queue_.front();
  queue_.pop_front();
  busy_ = true;
  const SimTime now = sim_->Now();
  busy_time_.Set(now, 1.0);

  rec->service_start = now;
  int32_t end_cylinder = current_cylinder_;
  rec->bd = mech_->ComputeService(now, rec->op, current_cylinder_, &end_cylinder);
  current_cylinder_ = end_cylinder;
  sim_->After(rec->bd.Total(), [this, rec] { Complete(rec); });
}

void DiskModel::Complete(OpRecord* rec) {
  const SimTime now = sim_->Now();
  busy_ = false;
  busy_time_.Set(now, 0.0);
  if (probe_) {
    probe_.Counter(queue_counter_name_, now, static_cast<double>(QueueDepth()));
  }

  DiskOpResult result;
  result.submitted = rec->submitted;
  result.service_start = rec->service_start;
  result.finish = now;
  if (failed_) {
    // The mechanism died mid-flight; report failure, do not count the op.
    result.ok = false;
  } else {
    result.ok = true;
    result.breakdown = rec->bd;
    ++ops_completed_;
    sectors_transferred_ += rec->op.sectors;
  }
  // The callback runs in place and may re-enter Submit, which then draws a
  // different record: this one is released only after the callback returns.
  rec->done(result);
  if (!failed_) {
    StartNext();
  }
  ReleaseRecord(rec);
}

void DiskModel::Fail() {
  if (failed_) {
    return;
  }
  failed_ = true;
  // Everything queued (not yet started) fails now. The in-flight op, if any,
  // will observe failed_ when its completion event fires.
  const SimTime now = sim_->Now();
  while (!queue_.empty()) {
    OpRecord* rec = queue_.front();
    queue_.pop_front();
    DiskOpResult result;
    result.ok = false;
    result.submitted = rec->submitted;
    result.service_start = now;
    result.finish = now;
    sim_->After(0, [done = std::move(rec->done), result]() mutable { done(result); });
    ReleaseRecord(rec);
  }
}

void DiskModel::Replace() {
  assert(queue_.empty());
  assert(!busy_);
  failed_ = false;
  current_cylinder_ = 0;
}

}  // namespace afraid
