// The experiment harness: replay a trace against a configured array and
// collect the SimReport. This is the exact loop behind every table and
// figure reproduction in bench/.
//
// The primary entry point is the Experiment builder:
//
//   SimReport rep = Experiment(config)
//                       .Policy(spec)
//                       .Trace(trace)          // or .Workload(params, n, d)
//                       .Observe(opts)         // optional
//                       .Run();
//
// Observe() turns on the src/obs/ layer for the run: a Chrome-trace timeline
// of every component, periodic metric snapshots, and a run directory with
// report.json / metrics.jsonl / trace.json. Observability never perturbs the
// simulation: snapshots are taken between simulator events and the trace is
// written from completion callbacks, so an observed run executes the exact
// same event trajectory -- and produces the bit-identical SimReport -- as an
// unobserved one.

#ifndef AFRAID_CORE_EXPERIMENT_H_
#define AFRAID_CORE_EXPERIMENT_H_

#include <cstdint>
#include <string>

#include "avail/model.h"
#include "core/array_config.h"
#include "core/policy.h"
#include "core/report.h"
#include "trace/trace.h"
#include "trace/trace_stream.h"
#include "trace/workload_gen.h"

namespace afraid {

// Derives the availability-model parameters matching an array configuration
// (N, S, Vdisk from the config; failure-rate assumptions from Table 1).
AvailabilityParams AvailabilityParamsFor(const ArrayConfig& config);

// What Experiment::Observe() records.
struct ObserveOptions {
  // Run directory for report.json / metrics.jsonl / trace.json. Empty keeps
  // everything in memory (useful for tests that inspect the collectors).
  std::string artifacts_dir;
  bool trace = true;    // Chrome Trace Event timeline.
  bool metrics = true;  // Periodic metric snapshots.
  SimDuration metrics_interval = Milliseconds(100);
};

// Accounting from a replay. Every run fills records; chunks and
// peak_buffer_bytes describe the file reader and stay 0 for Trace() and
// Workload(). The reader's peak depends on the chunk size, not on trace
// length.
struct StreamStats {
  int64_t chunks = 0;           // Non-empty file chunks read and replayed.
  uint64_t records = 0;         // Trace records replayed.
  size_t peak_buffer_bytes = 0; // High-water mark of the reader's buffers.
};

class Experiment {
 public:
  explicit Experiment(const ArrayConfig& config) : cfg_(config) {}

  // Array organization to run, by registry name (src/core/scheme_registry.h);
  // defaults to "afraid". The config is normalised for the scheme (parity
  // blocks, mirror disk-count rounding) when Run() constructs the array.
  Experiment& Scheme(const std::string& name) {
    scheme_ = name;
    return *this;
  }

  // Parity-update policy; consulted only by policy-driven schemes ("afraid").
  Experiment& Policy(const PolicySpec& spec) {
    spec_ = spec;
    return *this;
  }

  // Replays `trace` open-loop. The caller keeps it alive through Run().
  Experiment& Trace(const afraid::Trace& trace) {
    trace_ = &trace;
    have_workload_ = false;
    trace_file_.clear();
    return *this;
  }

  // Streams the trace file chunk by chunk (trace/trace_stream.h) into the
  // replay pipeline: O(chunk) memory in the trace length, and a
  // byte-identical trajectory -- per-request latencies and final report --
  // to loading the same file and replaying it via Trace(). Check
  // trace_status() after Run(); on a parse/file error the report covers the
  // prefix replayed before the error.
  Experiment& TraceFile(const std::string& path,
                        const StreamOptions& opts = StreamOptions()) {
    trace_file_ = path;
    stream_opts_ = opts;
    trace_ = nullptr;
    have_workload_ = false;
    return *this;
  }

  // Outcome of the TraceFile() ingest (Ok for Trace()/Workload() runs).
  const TraceStatus& trace_status() const { return trace_status_; }

  // Memory accounting of the last run.
  const StreamStats& stream_stats() const { return stream_stats_; }

  // Generates the synthetic workload, sized to the array's client-visible
  // capacity, and replays it. `max_requests` bounds harness run time.
  Experiment& Workload(const WorkloadParams& params, uint64_t max_requests,
                       SimDuration max_duration) {
    workload_ = params;
    max_requests_ = max_requests;
    max_duration_ = max_duration;
    have_workload_ = true;
    trace_ = nullptr;
    trace_file_.clear();
    return *this;
  }

  Experiment& Observe(const ObserveOptions& opts) {
    obs_ = opts;
    observe_ = true;
    return *this;
  }

  // Builds the array, runs every request to completion (background rebuilds
  // triggered by trailing idleness included) and returns the report. With
  // Observe(), also writes the run directory. Requires Trace() or Workload().
  SimReport Run();

 private:
  ArrayConfig cfg_;
  std::string scheme_ = "afraid";
  PolicySpec spec_{};
  const afraid::Trace* trace_ = nullptr;
  std::string trace_file_;
  StreamOptions stream_opts_{};
  TraceStatus trace_status_{};
  StreamStats stream_stats_{};
  bool have_workload_ = false;
  WorkloadParams workload_{};
  uint64_t max_requests_ = 0;
  SimDuration max_duration_ = 0;
  bool observe_ = false;
  ObserveOptions obs_{};
};

}  // namespace afraid

#endif  // AFRAID_CORE_EXPERIMENT_H_
