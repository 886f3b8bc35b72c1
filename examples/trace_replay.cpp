// Trace replay: the paper's core experiment as a command-line tool.
//
// Replays a workload (a named synthetic preset, or a trace file in the text
// format of src/trace/trace.h) against RAID 0, RAID 5 and AFRAID, and prints
// the latency and availability comparison.
//
//   $ ./examples/trace_replay                     # default: cello-usr
//   $ ./examples/trace_replay ATT 20000           # preset, request cap
//   $ ./examples/trace_replay /tmp/my_trace.txt   # replay a trace file
//
// Flags (before or after the positional arguments):
//   --scheme NAME       replay on one registered array scheme
//                       (src/core/scheme_registry.h) instead of the default
//                       RAID 0 / RAID 5 / AFRAID comparison; `--scheme list`
//                       prints the registry and exits
//   --stream            read the trace in fixed-size chunks
//                       (TraceChunkReader) instead of loading it whole; prints
//                       a trailing "streaming:" line with the chunk count and
//                       peak read-buffer memory
//   --chunk-bytes N     streaming read-chunk size (default 4 MiB)
//   --record PATH       write the resolved workload to PATH in the text trace
//                       format and exit (pin a synthetic preset to disk)
//   --layout NAME       parity layout: left-symmetric (default) or
//                       declustered (block-design placement, stripes narrower
//                       than the array for fast balanced rebuild)
//   --decluster-width K declustered stripe width (units per stripe incl.
//                       parity); 0 picks a width near half the array
//
// Without flags the output is byte-identical to the pinned golden transcript;
// with --stream only the first line and the trailing "streaming:" line differ
// from the in-memory replay of the same trace.
//
// Set AFRAID_OBS_DIR=<dir> to record each scheme's run: <dir>/<scheme>/ gets
// report.json, metrics.jsonl and a Chrome-trace timeline (trace.json) to open
// in chrome://tracing or https://ui.perfetto.dev. The printed comparison is
// identical with or without recording.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <algorithm>
#include <vector>

#include "array/decluster.h"
#include "array/layout.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "disk/geometry.h"
#include "trace/recorder.h"
#include "trace/trace.h"
#include "trace/workload_gen.h"

using namespace afraid;

int main(int argc, char** argv) {
  bool stream = false;
  size_t chunk_bytes = 4u << 20;
  std::string record_path;
  std::string scheme;
  LayoutKind layout = LayoutKind::kLeftSymmetric;
  int32_t decluster_width = 0;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stream") {
      stream = true;
    } else if (arg == "--chunk-bytes" && i + 1 < argc) {
      chunk_bytes = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--record" && i + 1 < argc) {
      record_path = argv[++i];
    } else if (arg == "--scheme" && i + 1 < argc) {
      scheme = argv[++i];
    } else if (arg == "--layout" && i + 1 < argc) {
      if (!LayoutKindFromName(argv[++i], &layout)) {
        std::fprintf(stderr,
                     "unknown layout '%s' (left-symmetric | declustered)\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--decluster-width" && i + 1 < argc) {
      decluster_width = static_cast<int32_t>(std::strtol(argv[++i], nullptr, 10));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      pos.push_back(arg);
    }
  }
  if (scheme == "list") {
    for (const std::string& name : SchemeRegistry::List()) {
      std::printf("%-14s %s\n", name.c_str(),
                  SchemeRegistry::Find(name)->description.c_str());
    }
    return 0;
  }
  if (!scheme.empty() && SchemeRegistry::Find(scheme) == nullptr) {
    std::fprintf(stderr, "unknown scheme '%s' (try '--scheme list')\n",
                 scheme.c_str());
    return 2;
  }
  const std::string which = !pos.empty() ? pos[0] : "cello-usr";
  const uint64_t max_requests =
      pos.size() > 1 ? std::strtoull(pos[1].c_str(), nullptr, 10) : 10000;

  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::HpC3325Like();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  cfg.layout = layout;
  cfg.decluster_width = decluster_width;

  // Resolve the workload: file path or preset name. In streaming mode a file
  // input is never loaded whole -- that is the point of the pipeline.
  Trace trace;
  WorkloadParams params;
  std::string stream_path;    // Set when --stream: the file actually replayed.
  std::string temp_path;      // Synthetic preset pinned to disk for streaming.
  const bool is_file = which.find('/') != std::string::npos;
  if (is_file && stream && record_path.empty()) {
    stream_path = which;
    std::printf("replaying trace file %s (streaming, %zu-byte chunks)\n",
                which.c_str(), chunk_bytes);
  } else if (is_file) {
    if (!ReadTraceFile(which, &trace)) {
      std::fprintf(stderr, "cannot read trace file %s\n", which.c_str());
      return 1;
    }
    std::printf("replaying trace file %s (%zu records)\n", which.c_str(),
                trace.Size());
  } else if (FindWorkload(which, &params)) {
    if (!scheme.empty()) {
      // One scheme: size offsets to its client-visible capacity (smaller than
      // RAID 5's for mirroring and parity logging).
      params.address_space_bytes = SchemeRegistry::DataCapacityBytes(scheme, cfg);
    } else {
      const auto lay =
          MakeLayout(cfg.layout, cfg.num_disks, cfg.stripe_unit_bytes,
                     DiskGeometry(cfg.disk_spec.zones, cfg.disk_spec.heads,
                                  cfg.disk_spec.sector_bytes)
                         .CapacityBytes(),
                     cfg.parity_blocks, cfg.decluster_width);
      params.address_space_bytes = lay->data_capacity_bytes();
    }
    trace = GenerateWorkload(params, max_requests, Hours(24));
    const TraceStats stats = ComputeTraceStats(trace);
    std::printf("workload %s: %zu requests over %.1f s, %.0f%% writes, "
                "mean size %.1f KB, %.0f%% of time in >100ms arrival gaps\n",
                which.c_str(), trace.Size(), ToSeconds(trace.Duration()),
                stats.write_fraction * 100, stats.mean_size_bytes / 1024.0,
                stats.idle_fraction_100ms * 100);
  } else {
    std::fprintf(stderr, "unknown workload '%s'; presets:\n", which.c_str());
    for (const WorkloadParams& p : PaperWorkloads()) {
      std::fprintf(stderr, "  %s\n", p.name.c_str());
    }
    return 1;
  }

  if (!record_path.empty()) {
    const TraceStatus st = RecordTrace(trace, record_path);
    if (!st.ok) {
      std::fprintf(stderr, "record failed: %s\n", st.message.c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded %zu records to %s\n", trace.Size(),
                 record_path.c_str());
    return 0;
  }
  if (stream && stream_path.empty()) {
    // Pin the generated workload so the streaming pipeline has a file to
    // chunk through; removed before exit.
    temp_path = "/tmp/afraid_trace_replay_stream.txt";
    const TraceStatus st = RecordTrace(trace, temp_path);
    if (!st.ok) {
      std::fprintf(stderr, "cannot write %s: %s\n", temp_path.c_str(),
                   st.message.c_str());
      return 1;
    }
    stream_path = temp_path;
  }

  const char* obs_env = std::getenv("AFRAID_OBS_DIR");
  const std::string obs_dir = obs_env != nullptr ? obs_env : "";

  StreamStats peak;  // Max across the schemes (they ingest identically).
  // Default: the paper's three-way policy comparison on the AFRAID scheme.
  // --scheme NAME: one row, any registered organization.
  std::vector<PolicySpec> specs;
  if (scheme.empty()) {
    specs = {PolicySpec::Raid5(), PolicySpec::AfraidBaseline(),
             PolicySpec::Raid0()};
  } else {
    specs = {PolicySpec::AfraidBaseline()};
  }
  std::printf("\n%-10s %10s %10s %10s %10s %12s %12s\n", "scheme", "mean ms",
              "median", "95th", "max", "MTTDL all/h", "MDLR B/h");
  for (const PolicySpec& spec : specs) {
    Experiment exp(cfg);
    exp.Policy(spec);
    if (!scheme.empty()) {
      exp.Scheme(scheme);
    }
    if (stream) {
      StreamOptions sopts;
      sopts.chunk_bytes = chunk_bytes;
      exp.TraceFile(stream_path, sopts);
    } else {
      exp.Trace(trace);
    }
    if (!obs_dir.empty()) {
      ObserveOptions opts;
      opts.artifacts_dir = obs_dir + "/" + (scheme.empty() ? spec.Label() : scheme);
      exp.Observe(opts);
    }
    const SimReport rep = exp.Run();
    if (stream && !exp.trace_status().ok) {
      std::fprintf(stderr, "stream replay failed at line %lld: %s\n",
                   static_cast<long long>(exp.trace_status().line),
                   exp.trace_status().message.c_str());
      return 1;
    }
    if (stream) {
      const StreamStats& s = exp.stream_stats();
      peak.chunks = std::max(peak.chunks, s.chunks);
      peak.records = std::max(peak.records, s.records);
      peak.peak_buffer_bytes =
          std::max(peak.peak_buffer_bytes, s.peak_buffer_bytes);
    }
    std::printf("%-10s %10.2f %10.2f %10.2f %10.1f %12.3g %12.1f\n",
                rep.policy.c_str(), rep.mean_io_ms, rep.median_io_ms, rep.p95_io_ms,
                rep.max_io_ms, rep.avail.mttdl_overall_hours,
                rep.avail.mdlr_overall_bph);
  }
  std::printf("\nAFRAID goal: RAID 0-like latency, RAID 5-like availability.\n");
  if (stream) {
    std::printf("streaming: chunk_bytes=%zu chunks=%lld records=%llu "
                "peak_buffer_bytes=%zu\n",
                chunk_bytes, static_cast<long long>(peak.chunks),
                static_cast<unsigned long long>(peak.records),
                peak.peak_buffer_bytes);
  }
  if (!temp_path.empty()) std::remove(temp_path.c_str());
  if (!obs_dir.empty()) {
    std::fprintf(stderr, "recorded run artifacts under %s/<scheme>/\n",
                 obs_dir.c_str());
  }
  return 0;
}
