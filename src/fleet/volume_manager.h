// The fleet-scale volume manager: one large logical volume striped across N
// independent arrays, serving thousands of tenant sessions at once.
//
// A VolumeManager owns a ShardMap (fleet/sharding.h) that places the
// logical volume over `num_shards` arrays, each a full simulated array
// instance (disks, controller, host driver) built from the same ArrayConfig
// the single-array experiments use. Run() routes a multi-tenant arrival
// stream (fleet/tenants.h) through the map into per-shard record spans,
// replays each through the trace replayer (array/replayer.h) on the
// allocation-free HostDriver fast path, and drives the shards in
// parallel with the deterministic sweep machinery (core/sweep.h): every
// shard is an independent simulation cell, so the fleet result is
// bit-identical for any AFRAID_BENCH_THREADS. RunStreamed() runs the same
// loop chunk by chunk over a recorded trace file.
//
// Requests that straddle a chunk boundary split into per-shard pieces; the
// client-visible latency of a split request is the maximum over its pieces
// (all pieces are issued at the arrival instant, so the per-shard
// measurements compose exactly). The per-request completion listener on
// HostDriver feeds the join.
//
// Online management (modelled on the kimeta-OS2 raid ioctl surface:
// disk_fail / disk_repaired / info / destroy): operations are registered
// with a simulated timestamp and executed inside the owning shard's event
// loop while its traffic keeps flowing -- a disk failure mid-run degrades
// one shard, a repair triggers the online reconstruction sweep, destroy
// decommissions the shard (subsequent arrivals are dropped and counted),
// and info snapshots the shard's state into its report.

#ifndef AFRAID_FLEET_VOLUME_MANAGER_H_
#define AFRAID_FLEET_VOLUME_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/array_config.h"
#include "core/policy.h"
#include "fleet/sharding.h"
#include "fleet/tenants.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "trace/trace_stream.h"

namespace afraid {

struct FleetConfig {
  ArrayConfig array;  // Per-shard array (disks, stripe unit, caches...).
  // Consulted by policy-driven schemes only ("afraid"), so RAID 0 / RAID 5 /
  // any AFRAID policy all come through the one scheme name.
  PolicySpec policy = PolicySpec::AfraidBaseline();
  // Which controller each shard runs, by registry name
  // (src/core/scheme_registry.h): "afraid", "raid6", "raid6-deferQ",
  // "raid6-deferPQ", "parity-log", "mirror", or any scheme registered later.
  std::string scheme = "afraid";
  int32_t num_shards = 8;
  ShardingKind sharding = ShardingKind::kRange;
  int64_t chunk_bytes = 1 << 20;
  int32_t vnodes_per_shard = 64;
  // Logical volume size as a fraction of total shard capacity; headroom
  // absorbs consistent-hash imbalance without overflowing any shard.
  double fill_fraction = 0.8;
  uint64_t seed = 1;
  // Hot-spare pool per shard. >= 0: disk_repaired consumes one spare per
  // installed replacement and is refused outright (the shard stays degraded)
  // when the pool is empty; spare_add restocks the pool online. < 0 keeps
  // the legacy unlimited replacement stock, under which spare_add is refused
  // as meaningless.
  int32_t spares = -1;
};

// One management operation, replayed online at `time` in the owning
// shard's simulation.
struct MgmtOp {
  enum class Kind { kDiskFail, kDiskRepaired, kInfo, kDestroy, kSpareAdd };
  Kind kind = Kind::kInfo;
  SimTime time = 0;
  int32_t shard = 0;
  int32_t disk = -1;  // kDiskFail / kDiskRepaired only.
};

const char* MgmtOpKindName(MgmtOp::Kind kind);

// Snapshot of one shard's state, taken by an `info` op at simulated time.
struct ShardInfo {
  SimTime time = 0;
  int32_t shard = 0;
  bool destroyed = false;
  int32_t failed_disk = -1;
  int32_t recovering_disk = -1;
  uint64_t accepted = 0;
  uint64_t completed = 0;
  int64_t dirty_bands = 0;  // Stale-parity marks (P+Q for RAID 6).
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
  int32_t spares_free = -1;  // Hot spares left in the pool (-1: unlimited).
};

struct ShardReport {
  int32_t shard = 0;
  uint64_t requests = 0;  // Pieces served by this shard.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t dropped = 0;  // Pieces discarded after a destroy.
  int64_t bytes = 0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double duration_s = 0.0;
  double disk_utilization = 0.0;  // AFRAID-family shards only.
  double mean_parity_lag_bytes = 0.0;
  double t_unprot_fraction = 0.0;
  uint64_t stripes_rebuilt = 0;
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
  // Failure/repair outcome. degraded_s covers disk-fail -> reconstruction
  // complete (or end of run if never repaired).
  bool disk_failed = false;
  bool repaired = false;
  double degraded_s = 0.0;
  bool destroyed = false;
  // Management ops this scheme/state refused, by op kind. A refusal leaves
  // the shard unchanged (e.g. failing an out-of-range disk, repairing a disk
  // that never failed, destroying an already-destroyed shard).
  uint64_t mgmt_unsupported_fail = 0;
  uint64_t mgmt_unsupported_repair = 0;
  uint64_t mgmt_unsupported_info = 0;
  uint64_t mgmt_unsupported_destroy = 0;
  uint64_t mgmt_unsupported_spare_add = 0;
  uint64_t MgmtUnsupportedTotal() const {
    return mgmt_unsupported_fail + mgmt_unsupported_repair +
           mgmt_unsupported_info + mgmt_unsupported_destroy +
           mgmt_unsupported_spare_add;
  }
  // Hot-spare pool traffic (FleetConfig::spares >= 0 only).
  uint64_t spares_added = 0;
  uint64_t spares_used = 0;
  // disk_repaired ops refused because the pool was empty; the shard kept
  // serving degraded until a spare_add (or the end of the run).
  uint64_t repairs_refused_no_spare = 0;
  std::vector<ShardInfo> infos;  // One per `info` op, in time order.
};

struct FleetReport {
  std::string workload;
  std::string scheme;
  std::string sharding;
  int32_t num_shards = 0;
  int32_t num_tenants = 0;
  int64_t volume_bytes = 0;

  // Client-visible (logical-request) latency across the whole fleet; split
  // requests count once, at the max of their pieces.
  uint64_t requests = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t dropped = 0;          // Logical requests with any dropped piece.
  uint64_t split_requests = 0;   // Logical requests that crossed shards.
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  double mean_read_ms = 0.0;
  double mean_write_ms = 0.0;

  double duration_s = 0.0;  // Max simulated span over shards.

  // Load balance: per-shard served-piece counts.
  double imbalance_max_mean = 0.0;  // max(shard requests) / mean.
  double imbalance_cv = 0.0;        // Coefficient of variation.
  double byte_imbalance_max_mean = 0.0;

  // Availability under (possibly correlated) failures.
  double degraded_shard_s = 0.0;  // Sum of per-shard degraded seconds.
  uint64_t loss_events = 0;
  int64_t bytes_lost = 0;
  int32_t shards_destroyed = 0;

  std::vector<ShardReport> shards;
};

// Serializes a FleetReport as a JSON object (artifacts, CI validation).
std::string FleetReportToJson(const FleetReport& rep);

class VolumeManager {
 public:
  explicit VolumeManager(const FleetConfig& cfg);

  const FleetConfig& config() const { return cfg_; }
  const ShardMap& shard_map() const { return map_; }
  int64_t VolumeBytes() const { return map_.volume_bytes(); }
  int64_t ShardCapacityBytes() const { return shard_capacity_; }

  // --- Management timeline (applied online during Run) ----------------------
  void DiskFail(SimTime at, int32_t shard, int32_t disk);
  void DiskRepaired(SimTime at, int32_t shard, int32_t disk);
  void InfoAt(SimTime at, int32_t shard);
  void Destroy(SimTime at, int32_t shard);
  // Restocks the shard's hot-spare pool by one (shard -1: every shard).
  void SpareAdd(SimTime at, int32_t shard);
  const std::vector<MgmtOp>& Ops() const { return ops_; }

  struct RunOptions {
    int32_t threads = 0;        // <= 0: SweepThreads() (AFRAID_BENCH_THREADS).
    std::string artifacts_dir;  // Non-empty: write fleet.json here.
    bool trace_shards = false;  // Also write <dir>/shard<k>/trace.json.
  };

  // Routes `trace` as a single chunk, runs every shard to completion
  // (parallel, deterministic) and merges the fleet report. The routed
  // pieces and the completion join scale with the trace.
  FleetReport Run(const FleetTrace& trace, const RunOptions& opts);
  FleetReport Run(const FleetTrace& trace) { return Run(trace, RunOptions()); }

  // Streams a recorded trace file (trace/recorder.h format; the "# tenants"
  // header carries the tenant count into the report) through the chunked
  // pipeline: each chunk is routed through the shard map and replayed --
  // all shards advancing under the deterministic sweep -- before the next
  // chunk is read. Trace text and routed pieces stay O(chunk); only the
  // per-request completion join (one latency and a flag byte per logical
  // request, which Run keeps too) scales with the trace.
  // The FleetReport is field-exact vs loading the same file and calling
  // Run(), for any thread count. On a parse/file error (*status if
  // non-null) the report covers the replayed prefix.
  FleetReport RunStreamed(const std::string& path, const StreamOptions& sopts,
                          const RunOptions& opts,
                          TraceStatus* status = nullptr);

 private:
  void AddOp(MgmtOp::Kind kind, SimTime at, int32_t shard, int32_t disk);

  FleetConfig cfg_;
  int64_t shard_capacity_ = 0;
  ShardMap map_;
  std::vector<MgmtOp> ops_;
};

}  // namespace afraid

#endif  // AFRAID_FLEET_VOLUME_MANAGER_H_
