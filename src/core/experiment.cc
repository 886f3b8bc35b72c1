#include "core/experiment.h"

#include <cassert>
#include <memory>

#include "array/host_driver.h"
#include "array/replayer.h"
#include "array/scheme.h"
#include "core/scheme_registry.h"
#include "disk/disk_model.h"
#include "disk/geometry.h"
#include "obs/artifacts.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace afraid {
namespace {

// Registers the standard metric set against the live components. Samplers
// only *read* component state, so a snapshot cannot alter the simulation.
void RegisterMetrics(MetricsRegistry* metrics, const ArrayConfig& config,
                     ArrayScheme* controller, HostDriver* driver) {
  const MetricId parity_lag = metrics->AddGauge("parity_lag_bytes");
  const MetricId dirty_bands = metrics->AddGauge("dirty_bands");
  const MetricId occupancy = metrics->AddGauge("driver_occupancy");
  const MetricId mode_raid5 = metrics->AddGauge("mode_raid5");
  const MetricId requests = metrics->AddCounter("requests_completed");
  const MetricId disk_ops = metrics->AddCounter("disk_ops_total");
  const MetricId rebuilt = metrics->AddCounter("stripes_rebuilt");
  const MetricId losses = metrics->AddCounter("loss_events");
  std::vector<MetricId> disk_util;
  std::vector<MetricId> disk_queue;
  for (int32_t d = 0; d < config.num_disks; ++d) {
    disk_util.push_back(metrics->AddGauge("disk" + std::to_string(d) + "_util"));
    disk_queue.push_back(
        metrics->AddGauge("disk" + std::to_string(d) + "_queue_depth"));
  }
  metrics->AddSampler([=, num_disks = config.num_disks](SimTime now) {
    const SchemeState state = controller->State();
    const SchemeStats stats = controller->Stats();
    metrics->Set(parity_lag, state.parity_lag_bytes);
    metrics->Set(dirty_bands, static_cast<double>(state.dirty_marks));
    metrics->Set(occupancy, driver->Occupancy().Current());
    metrics->Set(mode_raid5, state.last_write_raid5 ? 1.0 : 0.0);
    metrics->Set(requests, static_cast<double>(driver->Completed()));
    metrics->Set(disk_ops, static_cast<double>(stats.disk_ops_total));
    metrics->Set(rebuilt, static_cast<double>(stats.stripes_rebuilt));
    metrics->Set(losses, static_cast<double>(state.loss_events));
    for (int32_t d = 0; d < num_disks; ++d) {
      metrics->Set(disk_util[static_cast<size_t>(d)],
                   controller->disk(d).UtilizationTo(now));
      metrics->Set(disk_queue[static_cast<size_t>(d)],
                   static_cast<double>(controller->disk(d).QueueDepth()));
    }
  });
}

}  // namespace

AvailabilityParams AvailabilityParamsFor(const ArrayConfig& config) {
  AvailabilityParams p;  // Table 1 failure-rate defaults.
  p.num_data_disks = config.num_disks - config.parity_blocks;
  p.stripe_unit_bytes = static_cast<double>(config.stripe_unit_bytes);
  const DiskGeometry geom(config.disk_spec.zones, config.disk_spec.heads,
                          config.disk_spec.sector_bytes);
  p.disk_bytes = static_cast<double>(geom.CapacityBytes());
  return p;
}

SimReport Experiment::Run() {
  cfg_ = SchemeRegistry::Normalize(scheme_, cfg_);
  afraid::Trace generated;
  if (have_workload_) {
    WorkloadParams params = workload_;
    // Size the workload to the array's client-visible capacity.
    params.address_space_bytes = SchemeRegistry::DataCapacityBytes(scheme_, cfg_);
    generated = GenerateWorkload(params, max_requests_, max_duration_);
    trace_ = &generated;
  }
  const bool streaming = !trace_file_.empty();
  assert((trace_ != nullptr || streaming) &&
         "Experiment needs Trace(), TraceFile() or Workload()");

  Simulator sim;
  const AvailabilityParams avail_params = AvailabilityParamsFor(cfg_);

  std::unique_ptr<Tracer> tracer;
  if (observe_ && obs_.trace) {
    tracer = std::make_unique<Tracer>();
  }
  SchemeContext ctx;
  ctx.sim = &sim;
  ctx.config = cfg_;
  ctx.policy = spec_;
  ctx.avail = avail_params;
  ctx.probe = Probe(tracer.get());
  std::unique_ptr<ArrayScheme> controller = SchemeRegistry::Create(scheme_, ctx);
  assert(controller != nullptr && "Experiment: unknown scheme name");
  HostDriver driver(&sim, controller.get(), cfg_.MaxActive(), cfg_.host_sched,
                    Probe(tracer.get()));
  std::unique_ptr<MetricsRegistry> metrics;
  if (observe_ && obs_.metrics) {
    metrics = std::make_unique<MetricsRegistry>();
    RegisterMetrics(metrics.get(), cfg_, controller.get(), &driver);
  }

  std::string workload_name;
  trace_status_ = TraceStatus::Ok();
  stream_stats_ = StreamStats{};

  // Every source replays through the one arrival path.
  TraceReplayer replayer(&sim, &driver);

  // Steps the simulator while `more()` holds, interleaving metric snapshots
  // *between* events: before each event it records every whole sampling
  // interval that elapses strictly before it. The clock never advances for a
  // snapshot, so an observed run (and its SimReport) stays bit-identical to
  // the unobserved one.
  const SimDuration interval =
      obs_.metrics_interval > 0 ? obs_.metrics_interval : Milliseconds(100);
  SimTime next_snap = 0;
  if (metrics != nullptr) {
    metrics->Snapshot(sim.Now());
    next_snap = sim.Now() + interval;
  }
  const auto pump = [&](const auto& more) {
    while (!sim.Idle() && more()) {
      if (metrics != nullptr) {
        const SimTime horizon = sim.NextEventTime();
        while (next_snap < horizon) {
          metrics->Snapshot(next_snap);
          next_snap += interval;
        }
      }
      sim.Step();
    }
  };
  // Feeds one span and replays it until the replayer starves for the next.
  // Feeding happens before the next Step, so the span's first arrival enters
  // the event queue exactly where a chained arrival would have.
  const auto replay = [&](const TraceRecord* records, size_t count) {
    replayer.Feed(records, count);
    pump([&replayer] { return !replayer.starved(); });
  };

  if (streaming) {
    TraceChunkReader reader(trace_file_, stream_opts_);
    while (reader.Next()) {
      driver.ReserveLatencySamples(reader.records_read());
      replay(reader.chunk().records.data(), reader.chunk().records.size());
    }
    trace_status_ = reader.status();
    workload_name = reader.name();
    stream_stats_.chunks = reader.chunks_read();
    stream_stats_.peak_buffer_bytes = reader.peak_buffer_bytes();
  } else {
    workload_name = trace_->name;
    driver.ReserveLatencySamples(trace_->Size());
    replay(trace_->records.data(), trace_->Size());
  }
  // Run whatever work the arrivals leave behind. Background rebuilds
  // triggered by trailing idleness run here too; measurement of the lag
  // statistics ends at the instant the last request completes.
  pump([] { return true; });
  if (metrics != nullptr) {
    metrics->Snapshot(sim.Now());
  }
  stream_stats_.records = replayer.submitted();
  assert(driver.Drained());

  SimReport rep;
  rep.workload = workload_name;
  rep.policy = controller->PolicyLabel();
  rep.requests = driver.Completed();
  rep.reads = driver.ReadLatencies().Count();
  rep.writes = driver.WriteLatencies().Count();
  rep.mean_io_ms = driver.AllLatencies().Mean();
  rep.mean_read_ms = driver.ReadLatencies().Mean();
  rep.mean_write_ms = driver.WriteLatencies().Mean();
  rep.median_io_ms = driver.AllLatencies().Median();
  rep.p95_io_ms = driver.AllLatencies().Percentile(0.95);
  rep.max_io_ms = driver.AllLatencies().Max();

  const SimTime now = sim.Now();
  rep.duration_s = ToSeconds(now);
  rep.mean_queue_depth = driver.Occupancy().MeanTo(now);

  const SchemeStats stats = controller->Stats();
  rep.idle_fraction = stats.idle_fraction;
  rep.mean_parity_lag_bytes = stats.mean_parity_lag_bytes;
  rep.t_unprot_fraction = stats.t_unprot_fraction;
  rep.max_dirty_stripes = stats.max_dirty_stripes;

  rep.stripes_rebuilt = stats.stripes_rebuilt;
  rep.rebuild_passes = stats.rebuild_passes;
  rep.afraid_mode_writes = stats.afraid_mode_writes;
  rep.raid5_mode_writes = stats.raid5_mode_writes;
  rep.disk_ops_total = stats.disk_ops_total;
  rep.disk_ops_rebuild = stats.disk_ops_rebuild;
  rep.disk_ops_parity = stats.disk_ops_parity;
  rep.cache_hits = stats.cache_hits;
  double util = 0.0;
  for (int32_t d = 0; d < cfg_.num_disks; ++d) {
    util += controller->disk(d).UtilizationTo(now);
  }
  rep.disk_utilization = util / cfg_.num_disks;

  // Attach the availability model (Section 3) evaluated on the measured
  // parity-lag statistics.
  rep.avail = MakeAvailabilityReport(avail_params,
                                     SchemeRegistry::AvailSchemeFor(scheme_, spec_),
                                     rep.t_unprot_fraction,
                                     rep.mean_parity_lag_bytes);

  if (metrics != nullptr) {
    // The client I/O latency distribution, from the driver's sample sets
    // (filled after the run; the histogram is a serialization view).
    Histogram* h = metrics->AddHistogram("io_latency_ms", 0.0, 2.0, 50);
    for (double ms : driver.AllLatencies().Samples()) {
      h->Add(ms);
    }
  }
  if (observe_ && !obs_.artifacts_dir.empty()) {
    RunArtifacts artifacts(obs_.artifacts_dir);
    if (artifacts.ok()) {
      artifacts.WriteReport(rep);
      if (metrics != nullptr) {
        artifacts.WriteMetrics(*metrics);
      }
      if (tracer != nullptr) {
        artifacts.WriteTrace(*tracer);
      }
    }
  }
  return rep;
}

}  // namespace afraid
