// The array exposure model: a live array scheme sampled by the fault
// timeline.
//
// Disk lifetimes span millions of hours; array mechanics play out in
// milliseconds. Simulating the client workload continuously for a whole
// lifetime is infeasible, and unnecessary: between faults the array's
// exposure state (which bands are unprotected) is a stationary stochastic
// process driven by the workload, and a fault occurring at a random wall
// time samples that process at a random instant. So each lifetime carries
// ONE ns-scale array simulation -- controller, host driver, and an endless
// chunked replay of the workload -- and each timeline fault:
//
//   1. advances the array sim by a random decorrelation interval (sampling a
//      fresh instant of the stationary exposure process, mid-burst or idle);
//   2. injects the fault through the controller's own failure machinery
//      (FailDisk / ReplaceDisk / StartReconstruction, or FailNvram /
//      StartFullScrub) with client requests still in flight;
//   3. reads the loss off the controller's loss-event hooks -- the exact
//      accounting the rest of the repository uses.
//
// The ~48-hour repair windows are not replayed at array scale (they are
// <0.01% of a lifetime); dual failures inside a window are priced by the
// campaign layer from the timeline alone, since the controller models at
// most one concurrent disk failure.

#ifndef AFRAID_FAULTSIM_EXPOSURE_H_
#define AFRAID_FAULTSIM_EXPOSURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/host_driver.h"
#include "array/replayer.h"
#include "array/scheme.h"
#include "core/array_config.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/workload_gen.h"

namespace afraid {

// Outcome of one injected fault, as measured by the controller.
struct DrillResult {
  int64_t bytes_lost = 0;
  uint64_t loss_events = 0;
  // Exposure state at the instant of the fault.
  int64_t dirty_bands_at_failure = 0;
  double parity_lag_at_failure_bytes = 0.0;
  // Array-sim time from fault injection to full redundancy restored.
  SimDuration recovery_time = 0;
  // The individual incidents, from the controller's loss-event hooks.
  std::vector<LossEvent> events;
};

class ExposureModel {
 public:
  // `scheme` is a registry name (src/core/scheme_registry.h); the config is
  // normalised for it. A non-null `probe` traces the embedded array
  // simulation (disk, driver and controller tracks as usual) plus a "faults"
  // track marking each drill's injection and recovery completion. A non-null
  // `sim` is borrowed in place of the internal simulator (it must be freshly
  // reset); the campaign's per-worker LifetimeArena uses this to retain
  // event-queue storage across lifetimes.
  ExposureModel(const std::string& scheme, const ArrayConfig& config,
                const PolicySpec& policy, const WorkloadParams& workload,
                uint64_t seed, Simulator* sim = nullptr, Probe probe = {});
  ~ExposureModel();
  ExposureModel(const ExposureModel&) = delete;
  ExposureModel& operator=(const ExposureModel&) = delete;

  // Runs the workload forward by `d` of array-sim time (new requests keep
  // arriving; idle-triggered rebuilds run as usual).
  void Advance(SimDuration d);

  // Client requests completed so far (campaigns warm up until the array has
  // real write history, not just wall time -- a cold start into one of the
  // workload's long idle periods would sample an artificially empty array).
  uint64_t RequestsCompleted() const { return driver_->Completed(); }

  // Current exposure state (the screening the campaign uses to skip drills
  // that provably cannot lose data).
  int64_t DirtyBands() const { return controller_->State().dirty_marks; }
  double CurrentParityLagBytes() const {
    return controller_->State().parity_lag_bytes;
  }

  // Fails `disk` NOW (requests may be mid-flight), lets outstanding client
  // work finish degraded, then replaces the disk and runs the reconstruction
  // sweep to completion. Returns the measured loss. The array is fully
  // redundant again afterwards; the workload resumes on the next Advance().
  DrillResult FailureDrill(int32_t disk);

  // Loses the NVRAM marking memory and runs the conservative whole-array
  // scrub. With marking-only NVRAM this loses no data (the campaign layer
  // adds the Section 3.4 vulnerable-bytes loss when configured). A no-op
  // (zero loss, zero recovery time) on schemes without marking memory.
  DrillResult NvramDrill();

  // Time-weighted exposure statistics over everything simulated so far.
  double TUnprotFraction() const { return controller_->Stats().t_unprot_fraction; }
  double MeanParityLagBytes() const {
    return controller_->Stats().mean_parity_lag_bytes;
  }

  const ArrayScheme& controller() const { return *controller_; }
  ArrayScheme& controller() { return *controller_; }
  Simulator& sim() { return *sim_; }
  const HostDriver& driver() const { return *driver_; }

 private:
  void FeedChunk();
  void RunUntilDrained();
  DrillResult FinishDrill(const DrillResult& partial, SimTime started);

  ArrayConfig cfg_;
  std::unique_ptr<Simulator> owned_sim_;  // Null when borrowing an arena sim.
  Simulator* sim_;
  Rng rng_;
  WorkloadParams workload_;
  Probe fault_probe_;  // "faults" track; null when not tracing.
  std::unique_ptr<ArrayScheme> controller_;
  std::unique_ptr<HostDriver> driver_;
  std::unique_ptr<TraceReplayer> replayer_;
  Trace chunk_;  // The span the replayer is submitting from.

  std::vector<LossEvent> drill_events_;
};

}  // namespace afraid

#endif  // AFRAID_FAULTSIM_EXPOSURE_H_
