#include "fleet/volume_manager.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "array/host_driver.h"
#include "array/replayer.h"
#include "array/scheme.h"
#include "core/experiment.h"
#include "core/scheme_registry.h"
#include "core/sweep.h"
#include "disk/disk_model.h"
#include "obs/artifacts.h"
#include "obs/json.h"
#include "obs/probe.h"
#include "obs/tracer.h"
#include "sim/simulator.h"
#include "stats/sample_set.h"
#include "stats/streaming.h"

namespace afraid {

const char* MgmtOpKindName(MgmtOp::Kind kind) {
  switch (kind) {
    case MgmtOp::Kind::kDiskFail:
      return "disk_fail";
    case MgmtOp::Kind::kDiskRepaired:
      return "disk_repaired";
    case MgmtOp::Kind::kInfo:
      return "info";
    case MgmtOp::Kind::kDestroy:
      return "destroy";
    case MgmtOp::Kind::kSpareAdd:
      return "spare_add";
  }
  return "?";
}

namespace {

// The per-shard half of a fleet run: everything derived from the shard's
// inputs only, so shards are pure parallel sweep cells.
struct ShardResult {
  ShardReport report;
  // Piece latency by shard-trace record index; < 0 means dropped.
  std::vector<double> lat;
  std::unique_ptr<Tracer> tracer;
};

// One shard as a persistent replay cell: simulator, controller, driver and
// replayer all live across chunks, so the same cell serves Run (one Feed
// with the whole routed trace) and RunStreamed (one Feed per routed chunk).
// Management ops are scheduled lazily, after the first arrival is -- the
// event insertion order every fleet golden was pinned with.
class ShardCell {
 public:
  ShardCell(const FleetConfig& cfg, int32_t shard,
            const std::vector<MgmtOp>& ops, bool trace_on)
      : cfg_(cfg), shard_(shard), ops_(&ops), spares_(cfg.spares) {
    result.report.shard = shard;
    if (trace_on) {
      result.tracer = std::make_unique<Tracer>();
    }
    const Probe probe(result.tracer.get());
    const ArrayConfig& acfg = cfg_.array;  // Normalised by VolumeManager.
    SchemeContext ctx;
    ctx.sim = &sim_;
    ctx.config = acfg;
    ctx.policy = cfg_.policy;
    ctx.avail = AvailabilityParamsFor(acfg);
    ctx.probe = probe;
    ctrl_ = SchemeRegistry::Create(cfg_.scheme, ctx);
    assert(ctrl_ != nullptr && "fleet: unknown scheme name");
    // Routing sized the shard's address space with the registry's capacity.
    assert(SchemeRegistry::DataCapacityBytes(cfg_.scheme, acfg) ==
           ctrl_->DataCapacityBytes());
    driver_ = std::make_unique<HostDriver>(&sim_, ctrl_.get(), acfg.MaxActive(),
                                           acfg.host_sched, probe);
    replayer_ = std::make_unique<TraceReplayer>(&sim_, driver_.get());
    // Piece latencies by submission order: driver ids are 1-based and
    // assigned in submission order, which is record order.
    driver_->SetCompletionListener(
        [this](uint64_t id, double ms, bool /*is_write*/) {
          result.lat[static_cast<size_t>(id - 1)] = ms;
        });
  }

  // Hands `n` routed records to the replayer; they must stay valid until the
  // next Advance returns.
  // Latency slots are appended (and stay -1.0 for pieces a destroy drops)
  // so the completion join sees every routed piece.
  void Feed(const TraceRecord* recs, size_t n) {
    result.lat.resize(result.lat.size() + n, -1.0);
    replayer_->Feed(recs, n);
  }

  // Steps this shard's simulation until the replayer starves for the next
  // chunk (or a destroyed shard drains).
  void Advance() {
    ScheduleOpsOnce();
    while (!replayer_->starved() && !sim_.Idle()) {
      sim_.Step();
    }
  }

  // No further chunks: drain to completion and harvest the shard report.
  void Finish() {
    ScheduleOpsOnce();
    sim_.RunToEnd();
    assert(driver_->Drained());
    ShardReport& rep = result.report;
    if (degraded_from_ >= 0) {
      // Failed and never repaired: degraded until the end of the run.
      rep.degraded_s += ToSeconds(sim_.Now() - degraded_from_);
    }
    rep.requests = driver_->Completed();
    rep.reads = driver_->ReadLatencies().Count();
    rep.writes = driver_->WriteLatencies().Count();
    rep.dropped = replayer_->dropped();
    rep.bytes =
        replayer_->submitted_read_bytes() + replayer_->submitted_write_bytes();
    rep.mean_ms = driver_->AllLatencies().Mean();
    rep.p99_ms = driver_->AllLatencies().Percentile(0.99);
    rep.max_ms = driver_->AllLatencies().Max();
    rep.duration_s = ToSeconds(sim_.Now());
    double util = 0.0;
    for (int32_t d = 0; d < ctrl_->num_disks(); ++d) {
      util += ctrl_->disk(d).UtilizationTo(sim_.Now());
    }
    rep.disk_utilization = util / ctrl_->num_disks();
    const SchemeStats stats = ctrl_->Stats();
    rep.mean_parity_lag_bytes = stats.mean_parity_lag_bytes;
    rep.t_unprot_fraction = stats.t_unprot_fraction;
    rep.stripes_rebuilt = stats.stripes_rebuilt;
    rep.loss_events = stats.loss_events;
    rep.bytes_lost = stats.bytes_lost;
  }

  ShardResult result;

 private:
  // The online management timeline: each op runs inside this shard's event
  // loop at its simulated time, with client traffic still flowing. Deferred
  // past the first arrival's scheduling (Feed before Advance/Finish) so the
  // event insertion order matches the pre-streaming runner, which called
  // replayer.Start() before scheduling ops.
  void ScheduleOpsOnce() {
    if (ops_scheduled_) {
      return;
    }
    ops_scheduled_ = true;
    for (const MgmtOp& op : *ops_) {
      sim_.At(op.time, [this, op] {
        ShardReport& rep = result.report;
        switch (op.kind) {
          case MgmtOp::Kind::kDiskFail:
            if (ctrl_->FailDisk(op.disk)) {
              rep.disk_failed = true;
              degraded_from_ = sim_.Now();
            } else {
              ++rep.mgmt_unsupported_fail;
            }
            break;
          case MgmtOp::Kind::kDiskRepaired:
            if (spares_ == 0) {
              // Pool exhausted: no replacement to install. The shard stays
              // degraded until a spare_add restocks the pool.
              ++rep.repairs_refused_no_spare;
              break;
            }
            if (ctrl_->ReplaceDisk(op.disk)) {
              if (spares_ > 0) {
                --spares_;
                ++rep.spares_used;
              }
              ctrl_->StartReconstruction([this] {
                result.report.repaired = true;
                if (degraded_from_ >= 0) {
                  result.report.degraded_s +=
                      ToSeconds(sim_.Now() - degraded_from_);
                  degraded_from_ = -1;
                }
              });
            } else {
              ++rep.mgmt_unsupported_repair;
            }
            break;
          case MgmtOp::Kind::kInfo: {
            ShardInfo info;
            info.time = sim_.Now();
            info.shard = shard_;
            info.destroyed = replayer_->destroyed();
            info.accepted = driver_->Accepted();
            info.completed = driver_->Completed();
            const SchemeState state = ctrl_->State();
            info.failed_disk = state.failed_disk;
            info.recovering_disk = state.recovering_disk;
            info.dirty_bands = state.dirty_marks;
            info.loss_events = state.loss_events;
            info.bytes_lost = state.bytes_lost;
            info.spares_free = spares_;
            rep.infos.push_back(info);
            break;
          }
          case MgmtOp::Kind::kDestroy:
            if (replayer_->destroyed()) {
              ++rep.mgmt_unsupported_destroy;
            } else {
              replayer_->Destroy();
              rep.destroyed = true;
            }
            break;
          case MgmtOp::Kind::kSpareAdd:
            if (spares_ < 0) {
              ++rep.mgmt_unsupported_spare_add;  // No pool to restock.
            } else {
              ++spares_;
              ++rep.spares_added;
            }
            break;
        }
      });
    }
  }

  const FleetConfig& cfg_;
  int32_t shard_;
  const std::vector<MgmtOp>* ops_;
  Simulator sim_;
  std::unique_ptr<ArrayScheme> ctrl_;
  std::unique_ptr<HostDriver> driver_;
  std::unique_ptr<TraceReplayer> replayer_;
  SimTime degraded_from_ = -1;
  int32_t spares_ = -1;  // Hot spares left; -1 = unlimited legacy stock.
  bool ops_scheduled_ = false;
};

// Per-logical-record routing flags for the completion join.
constexpr uint8_t kRecWrite = 1;  // The record was a write.
constexpr uint8_t kRecSplit = 2;  // The record split across shards.

// Joins per-shard piece latencies back into client-visible requests and
// assembles the fleet report.
FleetReport MergeFleet(const FleetConfig& cfg, const ShardMap& map,
                       const std::string& workload, int32_t num_tenants,
                       std::vector<ShardResult> results,
                       std::vector<std::vector<uint32_t>> piece_owner,
                       const std::vector<uint8_t>& rec_flags,
                       const VolumeManager::RunOptions& opts,
                       bool trace_shards) {
  const int32_t num_shards = cfg.num_shards;
  const size_t num_records = rec_flags.size();

  // Join pieces back into client-visible requests: a split request
  // completes when its last piece does, so its latency is the max over
  // pieces (all pieces share the arrival instant). A dropped piece makes
  // the whole request dropped: the +inf sentinel survives every later max.
  // Each shard's piece state is freed as soon as it is joined.
  constexpr double kDropped = std::numeric_limits<double>::infinity();
  std::vector<double> logical_ms(num_records, -1.0);
  for (int32_t s = 0; s < num_shards; ++s) {
    const auto si = static_cast<size_t>(s);
    const std::vector<double>& lat = results[si].lat;
    for (size_t i = 0; i < lat.size(); ++i) {
      double& joined = logical_ms[piece_owner[si][i]];
      joined = lat[i] < 0 ? kDropped : std::max(joined, lat[i]);
    }
    std::vector<double>().swap(results[si].lat);
    std::vector<uint32_t>().swap(piece_owner[si]);
  }

  FleetReport rep;
  rep.workload = workload;
  rep.scheme = cfg.scheme;
  rep.sharding = ShardingKindName(map.kind());
  rep.num_shards = num_shards;
  rep.num_tenants = num_tenants;
  rep.volume_bytes = map.volume_bytes();

  // Compact the served requests to the front in record order; the sample
  // set then summarises them in that order, as an Add() per request would.
  StreamingStats read_ms;
  StreamingStats write_ms;
  size_t served = 0;
  for (size_t r = 0; r < num_records; ++r) {
    if ((rec_flags[r] & kRecSplit) != 0) {
      ++rep.split_requests;
    }
    const double ms = logical_ms[r];
    if (ms < 0 || ms == kDropped) {
      ++rep.dropped;
      continue;
    }
    ((rec_flags[r] & kRecWrite) != 0 ? write_ms : read_ms).Add(ms);
    logical_ms[served++] = ms;
  }
  logical_ms.resize(served);
  SampleSet all_ms(std::move(logical_ms));
  rep.requests = all_ms.Count();
  rep.reads = read_ms.Count();
  rep.writes = write_ms.Count();
  rep.mean_ms = all_ms.Mean();
  rep.p50_ms = all_ms.Percentile(0.50);
  rep.p90_ms = all_ms.Percentile(0.90);
  rep.p99_ms = all_ms.Percentile(0.99);
  rep.p999_ms = all_ms.Percentile(0.999);
  rep.max_ms = all_ms.Max();
  rep.mean_read_ms = read_ms.Mean();
  rep.mean_write_ms = write_ms.Mean();

  // Per-shard load balance and availability roll-ups.
  double sum_req = 0.0;
  double sum_sq = 0.0;
  double max_req = 0.0;
  double sum_bytes = 0.0;
  double max_bytes = 0.0;
  for (ShardResult& res : results) {
    const ShardReport& s = res.report;
    rep.duration_s = std::max(rep.duration_s, s.duration_s);
    rep.degraded_shard_s += s.degraded_s;
    rep.loss_events += s.loss_events;
    rep.bytes_lost += s.bytes_lost;
    if (s.destroyed) {
      ++rep.shards_destroyed;
    }
    const auto req = static_cast<double>(s.requests);
    sum_req += req;
    sum_sq += req * req;
    max_req = std::max(max_req, req);
    const auto bytes = static_cast<double>(s.bytes);
    sum_bytes += bytes;
    max_bytes = std::max(max_bytes, bytes);
    rep.shards.push_back(std::move(res.report));
  }
  const double mean_req = sum_req / num_shards;
  if (mean_req > 0.0) {
    rep.imbalance_max_mean = max_req / mean_req;
    const double var = sum_sq / num_shards - mean_req * mean_req;
    rep.imbalance_cv = std::sqrt(std::max(var, 0.0)) / mean_req;
  }
  const double mean_bytes = sum_bytes / num_shards;
  if (mean_bytes > 0.0) {
    rep.byte_imbalance_max_mean = max_bytes / mean_bytes;
  }

  if (!opts.artifacts_dir.empty()) {
    RunArtifacts artifacts(opts.artifacts_dir);
    if (artifacts.ok()) {
      artifacts.WriteText("fleet.json", FleetReportToJson(rep) + "\n");
      if (trace_shards) {
        for (int32_t s = 0; s < num_shards; ++s) {
          const auto si = static_cast<size_t>(s);
          if (results[si].tracer != nullptr) {
            RunArtifacts shard_dir(opts.artifacts_dir + "/shard" +
                                   std::to_string(s));
            if (shard_dir.ok()) {
              shard_dir.WriteTrace(*results[si].tracer);
            }
          }
        }
      }
    }
  }
  return rep;
}

// The one fleet replay loop. Each Replay() routes a chunk of logical records
// through the shard map into reused per-shard buffers, then feeds and
// advances every shard in parallel: a per-chunk barrier via the
// deterministic sweep, and shards never share state, so the result is
// bit-identical for any thread count. Run passes the in-memory trace as one
// chunk; RunStreamed passes each chunk the reader parses.
class FleetReplay {
 public:
  FleetReplay(const FleetConfig& cfg, const ShardMap& map,
              const std::vector<MgmtOp>& ops,
              const VolumeManager::RunOptions& opts)
      : cfg_(cfg),
        map_(map),
        opts_(opts),
        trace_shards_(opts.trace_shards && !opts.artifacts_dir.empty()),
        shard_ops_(static_cast<size_t>(cfg.num_shards)),
        shard_chunk_(static_cast<size_t>(cfg.num_shards)),
        piece_owner_(static_cast<size_t>(cfg.num_shards)) {
    for (const MgmtOp& op : ops) {
      shard_ops_[static_cast<size_t>(op.shard)].push_back(op);
    }
    cells_.reserve(static_cast<size_t>(cfg.num_shards));
    for (int32_t s = 0; s < cfg.num_shards; ++s) {
      cells_.push_back(std::make_unique<ShardCell>(
          cfg, s, shard_ops_[static_cast<size_t>(s)], trace_shards_));
    }
  }

  // Routes, feeds and replays one chunk. `Record` is TraceRecord or
  // FleetRecord: routing reads time, offset, size and is_write only.
  template <typename Record>
  void Replay(const std::vector<Record>& records) {
    for (auto& chunk : shard_chunk_) {
      chunk.clear();
    }
    for (const Record& rec : records) {
      const auto r = static_cast<uint32_t>(rec_flags_.size());
      map_.SplitRange(rec.offset, rec.size, &scratch_);
      for (const ShardPiece& p : scratch_) {
        const auto s = static_cast<size_t>(p.shard);
        shard_chunk_[s].push_back(
            TraceRecord{rec.time, p.local_offset, p.length, rec.is_write});
        piece_owner_[s].push_back(r);
      }
      rec_flags_.push_back(
          static_cast<uint8_t>((rec.is_write ? kRecWrite : 0) |
                               (scratch_.size() > 1 ? kRecSplit : 0)));
    }
    internal::RunSweep(cfg_.num_shards, opts_.threads, [&](int64_t s) {
      const auto i = static_cast<size_t>(s);
      cells_[i]->Feed(shard_chunk_[i].data(), shard_chunk_[i].size());
      cells_[i]->Advance();
    });
  }

  // Drains every shard and merges the fleet report.
  FleetReport Finish(const std::string& workload, int32_t num_tenants) {
    internal::RunSweep(cfg_.num_shards, opts_.threads, [&](int64_t s) {
      cells_[static_cast<size_t>(s)]->Finish();
    });
    std::vector<ShardResult> results;
    results.reserve(cells_.size());
    for (auto& cell : cells_) {
      results.push_back(std::move(cell->result));
    }
    return MergeFleet(cfg_, map_, workload, num_tenants, std::move(results),
                      std::move(piece_owner_), rec_flags_, opts_,
                      trace_shards_);
  }

 private:
  const FleetConfig& cfg_;
  const ShardMap& map_;
  const VolumeManager::RunOptions& opts_;
  const bool trace_shards_;
  std::vector<std::vector<MgmtOp>> shard_ops_;
  std::vector<std::unique_ptr<ShardCell>> cells_;
  std::vector<std::vector<TraceRecord>> shard_chunk_;
  // Join state: the logical record of every routed piece, per shard, and
  // one flag byte per logical record.
  std::vector<std::vector<uint32_t>> piece_owner_;
  std::vector<uint8_t> rec_flags_;
  std::vector<ShardPiece> scratch_;
};

}  // namespace

VolumeManager::VolumeManager(const FleetConfig& cfg) : cfg_(cfg) {
  assert(cfg_.num_shards > 0);
  assert(SchemeRegistry::Find(cfg_.scheme) != nullptr &&
         "fleet: unknown scheme name");
  // Fix the array config up for the scheme (parity-block count, mirror
  // disk-count rounding) regardless of what the caller left in it.
  cfg_.array = SchemeRegistry::Normalize(cfg_.scheme, cfg_.array);
  shard_capacity_ = SchemeRegistry::DataCapacityBytes(cfg_.scheme, cfg_.array);

  const int64_t volume = ShardMap::SizeVolume(
      cfg_.num_shards, shard_capacity_, cfg_.chunk_bytes, cfg_.fill_fraction);
  if (cfg_.sharding == ShardingKind::kRange) {
    map_ = ShardMap::Range(cfg_.num_shards, cfg_.chunk_bytes, volume);
  } else {
    map_ = ShardMap::ConsistentHash(cfg_.num_shards, cfg_.chunk_bytes, volume,
                                    shard_capacity_, cfg_.vnodes_per_shard,
                                    cfg_.seed);
  }
}

void VolumeManager::AddOp(MgmtOp::Kind kind, SimTime at, int32_t shard,
                          int32_t disk) {
  assert(at >= 0);
  if (shard < 0) {  // -1 targets every shard (info broadcast).
    for (int32_t s = 0; s < cfg_.num_shards; ++s) {
      ops_.push_back(MgmtOp{kind, at, s, disk});
    }
    return;
  }
  assert(shard < cfg_.num_shards);
  ops_.push_back(MgmtOp{kind, at, shard, disk});
}

void VolumeManager::DiskFail(SimTime at, int32_t shard, int32_t disk) {
  AddOp(MgmtOp::Kind::kDiskFail, at, shard, disk);
}
void VolumeManager::DiskRepaired(SimTime at, int32_t shard, int32_t disk) {
  AddOp(MgmtOp::Kind::kDiskRepaired, at, shard, disk);
}
void VolumeManager::InfoAt(SimTime at, int32_t shard) {
  AddOp(MgmtOp::Kind::kInfo, at, shard, -1);
}
void VolumeManager::Destroy(SimTime at, int32_t shard) {
  AddOp(MgmtOp::Kind::kDestroy, at, shard, -1);
}
void VolumeManager::SpareAdd(SimTime at, int32_t shard) {
  AddOp(MgmtOp::Kind::kSpareAdd, at, shard, -1);
}

FleetReport VolumeManager::Run(const FleetTrace& trace, const RunOptions& opts) {
  FleetReplay replay(cfg_, map_, ops_, opts);
  replay.Replay(trace.records);
  return replay.Finish(trace.name, trace.num_tenants);
}

FleetReport VolumeManager::RunStreamed(const std::string& path,
                                       const StreamOptions& sopts,
                                       const RunOptions& opts,
                                       TraceStatus* status) {
  TraceChunkReader reader(path, sopts);
  FleetReplay replay(cfg_, map_, ops_, opts);
  while (reader.Next()) {
    replay.Replay(reader.chunk().records);
  }
  if (status != nullptr) {
    *status = reader.status();
  }
  return replay.Finish(reader.name(), reader.tenants());
}

std::string FleetReportToJson(const FleetReport& rep) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(rep.workload);
  w.Key("scheme").Value(rep.scheme);
  w.Key("sharding").Value(rep.sharding);
  w.Key("num_shards").Value(rep.num_shards);
  w.Key("num_tenants").Value(rep.num_tenants);
  w.Key("volume_bytes").Value(rep.volume_bytes);
  w.Key("requests").Value(rep.requests);
  w.Key("reads").Value(rep.reads);
  w.Key("writes").Value(rep.writes);
  w.Key("dropped").Value(rep.dropped);
  w.Key("split_requests").Value(rep.split_requests);
  w.Key("mean_ms").Value(rep.mean_ms);
  w.Key("p50_ms").Value(rep.p50_ms);
  w.Key("p90_ms").Value(rep.p90_ms);
  w.Key("p99_ms").Value(rep.p99_ms);
  w.Key("p999_ms").Value(rep.p999_ms);
  w.Key("max_ms").Value(rep.max_ms);
  w.Key("mean_read_ms").Value(rep.mean_read_ms);
  w.Key("mean_write_ms").Value(rep.mean_write_ms);
  w.Key("duration_s").Value(rep.duration_s);
  w.Key("imbalance_max_mean").Value(rep.imbalance_max_mean);
  w.Key("imbalance_cv").Value(rep.imbalance_cv);
  w.Key("byte_imbalance_max_mean").Value(rep.byte_imbalance_max_mean);
  w.Key("degraded_shard_s").Value(rep.degraded_shard_s);
  w.Key("loss_events").Value(rep.loss_events);
  w.Key("bytes_lost").Value(rep.bytes_lost);
  w.Key("shards_destroyed").Value(rep.shards_destroyed);
  w.Key("shards").BeginArray();
  for (const ShardReport& s : rep.shards) {
    w.BeginObject();
    w.Key("shard").Value(s.shard);
    w.Key("requests").Value(s.requests);
    w.Key("reads").Value(s.reads);
    w.Key("writes").Value(s.writes);
    w.Key("dropped").Value(s.dropped);
    w.Key("bytes").Value(s.bytes);
    w.Key("mean_ms").Value(s.mean_ms);
    w.Key("p99_ms").Value(s.p99_ms);
    w.Key("max_ms").Value(s.max_ms);
    w.Key("duration_s").Value(s.duration_s);
    w.Key("disk_utilization").Value(s.disk_utilization);
    w.Key("mean_parity_lag_bytes").Value(s.mean_parity_lag_bytes);
    w.Key("t_unprot_fraction").Value(s.t_unprot_fraction);
    w.Key("stripes_rebuilt").Value(s.stripes_rebuilt);
    w.Key("loss_events").Value(s.loss_events);
    w.Key("bytes_lost").Value(s.bytes_lost);
    w.Key("disk_failed").Value(s.disk_failed);
    w.Key("repaired").Value(s.repaired);
    w.Key("degraded_s").Value(s.degraded_s);
    w.Key("destroyed").Value(s.destroyed);
    w.Key("mgmt_unsupported_fail").Value(s.mgmt_unsupported_fail);
    w.Key("mgmt_unsupported_repair").Value(s.mgmt_unsupported_repair);
    w.Key("mgmt_unsupported_info").Value(s.mgmt_unsupported_info);
    w.Key("mgmt_unsupported_destroy").Value(s.mgmt_unsupported_destroy);
    w.Key("mgmt_unsupported_spare_add").Value(s.mgmt_unsupported_spare_add);
    w.Key("spares_added").Value(s.spares_added);
    w.Key("spares_used").Value(s.spares_used);
    w.Key("repairs_refused_no_spare").Value(s.repairs_refused_no_spare);
    w.Key("infos").BeginArray();
    for (const ShardInfo& info : s.infos) {
      w.BeginObject();
      w.Key("time_s").Value(ToSeconds(info.time));
      w.Key("destroyed").Value(info.destroyed);
      w.Key("failed_disk").Value(info.failed_disk);
      w.Key("recovering_disk").Value(info.recovering_disk);
      w.Key("accepted").Value(info.accepted);
      w.Key("completed").Value(info.completed);
      w.Key("dirty_bands").Value(info.dirty_bands);
      w.Key("loss_events").Value(info.loss_events);
      w.Key("bytes_lost").Value(info.bytes_lost);
      w.Key("spares_free").Value(info.spares_free);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace afraid
