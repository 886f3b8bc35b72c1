#include "faultsim/exposure.h"

#include <cassert>
#include <utility>

#include "core/scheme_registry.h"

namespace afraid {
namespace {

// Chunk sizing for the endless workload replay: small enough that lazily
// regenerating stays cheap, large enough that chunk seams (rare idle-period
// truncation) do not distort burst statistics.
constexpr uint64_t kChunkRequests = 4096;
constexpr SimDuration kChunkDuration = Minutes(10);

}  // namespace

ExposureModel::ExposureModel(const std::string& scheme, const ArrayConfig& config,
                             const PolicySpec& policy, const WorkloadParams& workload,
                             uint64_t seed, Simulator* sim, Probe probe)
    : cfg_(SchemeRegistry::Normalize(scheme, config)),
      owned_sim_(sim == nullptr ? std::make_unique<Simulator>() : nullptr),
      sim_(sim == nullptr ? owned_sim_.get() : sim), rng_(seed),
      workload_(workload), fault_probe_(probe.NewTrack("faults")) {
  assert(sim_->Now() == 0 && sim_->Idle());
  SchemeContext ctx{sim_, cfg_, policy, AvailabilityParamsFor(cfg_), probe};
  controller_ = SchemeRegistry::Create(scheme, ctx);
  assert(controller_ != nullptr && "ExposureModel: unknown scheme name");
  driver_ = std::make_unique<HostDriver>(sim_, controller_.get(), cfg_.MaxActive(),
                                         cfg_.host_sched, probe);
  replayer_ = std::make_unique<TraceReplayer>(sim_, driver_.get());
  workload_.address_space_bytes = controller_->DataCapacityBytes();
  controller_->SetLossListener(
      [this](const LossEvent& ev) { drill_events_.push_back(ev); });
  FeedChunk();
}

ExposureModel::~ExposureModel() = default;

void ExposureModel::FeedChunk() {
  // Each chunk gets a fresh derived seed so the process never repeats, and
  // starts now: the replayer starved at the previous chunk's last arrival.
  workload_.seed = static_cast<uint64_t>(rng_.engine()());
  chunk_ = GenerateWorkload(workload_, kChunkRequests, kChunkDuration);
  assert(!chunk_.records.empty());
  for (TraceRecord& r : chunk_.records) {
    r.time += sim_->Now();
  }
  replayer_->Feed(chunk_.records.data(), chunk_.records.size());
}

void ExposureModel::Advance(SimDuration d) {
  assert(d >= 0);
  // Feeding right after the step that starved the replayer puts the next
  // chunk's first arrival into the event queue where the last arrival would
  // have chained it.
  const SimTime deadline = sim_->Now() + d;
  while (sim_->NextEventTime() <= deadline) {
    sim_->Step();
    if (replayer_->starved()) {
      FeedChunk();
    }
  }
  sim_->RunUntil(deadline);  // No events remain before it: just advance the clock.
}

void ExposureModel::RunUntilDrained() {
  while (!driver_->Drained()) {
    const bool progressed = sim_->Step();
    assert(progressed);
    (void)progressed;
  }
}

DrillResult ExposureModel::FinishDrill(const DrillResult& partial, SimTime started) {
  if (fault_probe_) {
    fault_probe_.Instant("drill: recovered", sim_->Now());
  }
  DrillResult r = partial;
  r.recovery_time = sim_->Now() - started;
  r.events = std::move(drill_events_);
  drill_events_.clear();
  for (const LossEvent& ev : r.events) {
    r.bytes_lost += ev.bytes;
  }
  r.loss_events = r.events.size();
  replayer_->Resume();
  return r;
}

DrillResult ExposureModel::FailureDrill(int32_t disk) {
  assert(disk >= 0 && disk < cfg_.num_disks);
  DrillResult r;
  r.dirty_bands_at_failure = DirtyBands();
  r.parity_lag_at_failure_bytes = CurrentParityLagBytes();
  drill_events_.clear();
  const SimTime started = sim_->Now();

  // The disk dies at this very instant: whatever was queued or mid-flight
  // completes degraded, through the controller's own failure paths.
  replayer_->Pause();
  if (fault_probe_) {
    fault_probe_.Instant("drill: fail disk" + std::to_string(disk), sim_->Now());
  }
  const bool failed = controller_->FailDisk(disk);
  assert(failed && "FailureDrill: scheme refused the failure");
  (void)failed;
  RunUntilDrained();

  // Replacement + reconstruction sweep; stale stripes with data on the dead
  // disk surface as loss events through the controller hooks.
  const bool replaced = controller_->ReplaceDisk(disk);
  assert(replaced && "FailureDrill: scheme refused the replacement");
  (void)replaced;
  bool done = false;
  const bool sweeping = controller_->StartReconstruction([&done] { done = true; });
  assert(sweeping && "FailureDrill: scheme refused reconstruction");
  (void)sweeping;
  while (!done) {
    const bool progressed = sim_->Step();
    assert(progressed);
    (void)progressed;
  }
  return FinishDrill(r, started);
}

DrillResult ExposureModel::NvramDrill() {
  DrillResult r;
  r.dirty_bands_at_failure = DirtyBands();
  r.parity_lag_at_failure_bytes = CurrentParityLagBytes();
  drill_events_.clear();
  const SimTime started = sim_->Now();

  // Quiesce first: StartFullScrub requires no rebuild pass in flight, and
  // the controller forbids new AFRAID-mode markings while the NVRAM is
  // failed. (The marking-loss semantics do not depend on the exposure state
  // the way a disk failure does.)
  replayer_->Pause();
  RunUntilDrained();
  sim_->RunToEnd();  // Trailing idle-triggered rebuild passes finish here.
  if (fault_probe_) {
    fault_probe_.Instant("drill: nvram loss", sim_->Now());
  }
  // Schemes without marking memory refuse the drill; nothing to lose.
  if (!controller_->FailNvram()) {
    return FinishDrill(r, started);
  }
  bool done = false;
  if (!controller_->StartFullScrub([&done] { done = true; })) {
    return FinishDrill(r, started);
  }
  while (!done) {
    const bool progressed = sim_->Step();
    assert(progressed);
    (void)progressed;
  }
  return FinishDrill(r, started);
}

}  // namespace afraid
