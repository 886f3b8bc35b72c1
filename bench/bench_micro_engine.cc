// Micro-benchmarks of the simulation engine itself (google-benchmark).
// These are not in the paper; they guard the cost of the hot paths that the
// table/figure harnesses exercise millions of times.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "array/content.h"
#include "array/decluster.h"
#include "array/host_driver.h"
#include "array/layout.h"
#include "array/nvram.h"
#include "core/afraid_controller.h"
#include "core/experiment.h"
#include "core/mirror_controller.h"
#include "core/policy.h"
#include "core/scheme_registry.h"
#include "disk/disk_model.h"
#include "disk/seek_model.h"
#include "faultsim/campaign.h"
#include "fleet/tenants.h"
#include "fleet/volume_manager.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tests/trace/trace_parse_ref.h"
#include "trace/recorder.h"
#include "trace/trace.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

void BM_EventQueueScheduleFire(benchmark::State& state) {
  EventQueue q;
  Rng rng(42);
  int64_t sink = 0;
  SimTime now = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.Schedule(rng.UniformInt(0, 1'000'000), [&sink] { ++sink; });
    }
    while (!q.Empty()) {
      q.FireNext(&now);
    }
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // Timeout-manager pattern (idle detectors, request deadlines): most
  // scheduled events are cancelled and replaced before they ever fire, so the
  // queue spends its time on Schedule/Cancel pairs plus skimming dead entries.
  EventQueue q;
  Rng rng(42);
  int64_t sink = 0;
  std::vector<EventId> slots(64, kInvalidEventId);
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) {
      const size_t k = static_cast<size_t>(rng.UniformInt(0, 63));
      if (slots[k] != kInvalidEventId) {
        q.Cancel(slots[k]);
      }
      slots[k] = q.Schedule(rng.UniformInt(0, 1'000'000), [&sink] { ++sink; });
    }
    SimTime now = 0;
    while (!q.Empty()) {
      q.FireNext(&now);
    }
    std::fill(slots.begin(), slots.end(), kInvalidEventId);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_ContentModelStripeWalk(benchmark::State& state) {
  // Whole-model consistency scan: what StripeConsistent/rebuild verification
  // does for every touched stripe -- an XorOfData per sector position.
  const int32_t n = 4, spu = 16;
  ContentModel m(n, 1, spu);
  for (int64_t s = 0; s < 256; ++s) {
    const int64_t stripe = s * 7;  // Sparse stripe keys, as real traces give.
    for (int32_t j = 0; j < n; ++j) {
      for (int32_t i = 0; i < spu; ++i) {
        m.SetData(stripe, j, i, ContentModel::MixTag(s * 64 + j * 16 + i, s));
      }
    }
    for (int32_t i = 0; i < spu; ++i) {
      m.SetParity(stripe, i, m.XorOfData(stripe, i));
    }
  }
  for (auto _ : state) {
    bool ok = true;
    for (int64_t s = 0; s < 256; ++s) {
      ok &= m.StripeConsistent(s * 7);
    }
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ContentModelStripeWalk);

void BM_ContentModelSetGet(benchmark::State& state) {
  // Random single-sector updates and parity reads, the per-transfer pattern
  // the controllers issue from the write paths.
  ContentModel m(4, 1, 16);
  Rng rng(42);
  uint64_t x = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      const int64_t stripe = rng.UniformInt(0, 511);
      const int32_t j = static_cast<int32_t>(rng.UniformInt(0, 3));
      const int32_t sec = static_cast<int32_t>(rng.UniformInt(0, 15));
      m.SetData(stripe, j, sec, x + static_cast<uint64_t>(i) + 1);
      x ^= m.GetData(stripe, j, sec) ^ m.GetParity(stripe, sec);
    }
  }
  benchmark::DoNotOptimize(x);
}
BENCHMARK(BM_ContentModelSetGet);

void BM_DiskComputeService(benchmark::State& state) {
  Simulator sim;
  DiskModel disk(&sim, DiskMechanics::Compile(DiskSpec::HpC3325Like()), 0);
  Rng rng(42);
  const int64_t total = disk.TotalSectors();
  SimTime t = 0;
  int32_t cyl = 0;
  for (auto _ : state) {
    DiskOp op;
    op.lba = rng.UniformInt(0, total - 17);
    op.sectors = 16;
    op.is_write = rng.Bernoulli(0.5);
    int32_t end = 0;
    auto bd = disk.ComputeService(t, op, cyl, &end);
    benchmark::DoNotOptimize(bd);
    cyl = end;
    t += bd.Total();
  }
}
BENCHMARK(BM_DiskComputeService);

// Submit -> completion through the Simulator: a burst of reads whose
// completion callbacks each re-enter Submit with the matching write on the
// same disk (the RAID 5 read-modify-write shape), drained by the event loop.
// Guards the per-op record lifecycle as well as the service computation.
void BM_DiskOpLifecycle(benchmark::State& state) {
  Simulator sim;
  DiskModel disk(&sim, DiskMechanics::Compile(DiskSpec::HpC3325Like()), 0);
  Rng rng(42);
  std::vector<int64_t> lbas(64);
  for (int64_t& lba : lbas) {
    lba = rng.UniformInt(0, disk.TotalSectors() - 17);
  }
  int64_t writes = 0;
  for (auto _ : state) {
    for (const int64_t lba : lbas) {
      disk.Submit(DiskOp{lba, 16, false}, [&disk, &writes, lba](const DiskOpResult&) {
        disk.Submit(DiskOp{lba, 16, true},
                    [&writes](const DiskOpResult&) { ++writes; });
      });
    }
    sim.RunToEnd();
  }
  benchmark::DoNotOptimize(writes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(lbas.size()));
}
BENCHMARK(BM_DiskOpLifecycle);

void BM_LayoutSplit(benchmark::State& state) {
  StripeLayout layout(5, 8192, 2'000'000'000, 1);
  Rng rng(42);
  const int64_t cap = layout.data_capacity_bytes();
  for (auto _ : state) {
    const int64_t off = rng.UniformInt(0, cap - 65537) & ~511LL;
    auto segs = layout.Split(off, 65536);
    benchmark::DoNotOptimize(segs);
  }
}
BENCHMARK(BM_LayoutSplit);

void BM_WorkloadGeneration(benchmark::State& state) {
  WorkloadParams p = PaperWorkloads()[0];
  p.address_space_bytes = 8LL << 30;
  for (auto _ : state) {
    p.seed++;
    Trace t = GenerateWorkload(p, 1000, Hours(24));
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_WorkloadGeneration);

// The marking-memory churn every client write performs: Mark on arrival,
// IsDirty probes from the write paths, Clear from the rebuilder. Clustered
// keys with re-marks, like a bursty trace.
void BM_NvramMarkClear(benchmark::State& state) {
  NvramBitmap bm(1 << 18);
  Rng rng(42);
  int64_t marked = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      const int64_t s = rng.UniformInt(0, (1 << 14) - 1) * 3;
      marked += bm.Mark(s) ? 1 : 0;
      benchmark::DoNotOptimize(bm.IsDirty(s + 1));
      if ((i & 3) == 0) {
        marked -= bm.Clear(s) ? 1 : 0;
      }
    }
  }
  benchmark::DoNotOptimize(marked);
}
BENCHMARK(BM_NvramMarkClear);

// The same workload against the ordered-set bookkeeping NvramBitmap used
// before the two-level bitmap, kept as an in-binary reference point.
void BM_NvramMarkClearSetRef(benchmark::State& state) {
  std::set<int64_t> dirty;
  Rng rng(42);
  int64_t marked = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      const int64_t s = rng.UniformInt(0, (1 << 14) - 1) * 3;
      marked += dirty.insert(s).second ? 1 : 0;
      benchmark::DoNotOptimize(dirty.count(s + 1));
      if ((i & 3) == 0) {
        marked -= dirty.erase(s) > 0 ? 1 : 0;
      }
    }
  }
  benchmark::DoNotOptimize(marked);
}
BENCHMARK(BM_NvramMarkClearSetRef);

// The rebuilder's ascending sweep: NextDirty from a moving cursor across a
// sparse dirty population, one full wrap per iteration.
void BM_NvramNextDirtySweep(benchmark::State& state) {
  NvramBitmap bm(1 << 18);
  Rng rng(42);
  for (int i = 0; i < 4096; ++i) {
    bm.Mark(rng.UniformInt(0, (1 << 18) - 1));
  }
  const int64_t n = bm.DirtyCount();
  for (auto _ : state) {
    int64_t cursor = 0;
    int64_t sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t k = bm.NextDirty(cursor);
      sum += k;
      cursor = k + 1;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NvramNextDirtySweep);

// End-to-end client path: a burst of small writes through the host driver,
// AFRAID controller and disks, then the idle rebuild sweep that re-protects
// every marked stripe. This is the steady-state loop the table/figure
// harnesses run millions of times.
void BM_ControllerWritePath(benchmark::State& state) {
  ArrayConfig cfg;
  for (auto _ : state) {
    Simulator sim;
    AfraidController array(&sim, cfg, MakePolicy(PolicySpec::AfraidBaseline()),
                           AvailabilityParamsFor(cfg));
    HostDriver driver(&sim, &array, cfg.MaxActive());
    Rng rng(42);
    const int64_t units = array.DataCapacityBytes() / cfg.stripe_unit_bytes;
    for (int i = 0; i < 512; ++i) {
      const int64_t off = rng.UniformInt(0, units - 2) * cfg.stripe_unit_bytes;
      driver.Submit(off, 8192, /*is_write=*/true);
    }
    while (!driver.Drained()) {
      sim.Step();
    }
    sim.RunToEnd();
    benchmark::DoNotOptimize(driver.WriteLatencies().Mean());
  }
}
BENCHMARK(BM_ControllerWritePath);

// The mirrored scheme's replica-choice read dispatch: availability filter,
// queue-depth tiebreak, then a shortest-positioning-time estimate on both
// heads. Runs once per read segment, so it must stay cheap.
void BM_MirrorReadDispatch(benchmark::State& state) {
  ArrayConfig cfg;
  Simulator sim;
  MirrorController array(&sim, cfg);
  HostDriver driver(&sim, &array, cfg.MaxActive());
  // Put the array mid-burst so queue depths and head positions genuinely
  // differ between the two sides of each pair.
  Rng rng(7);
  const int64_t units = array.DataCapacityBytes() / cfg.stripe_unit_bytes;
  for (int i = 0; i < 64; ++i) {
    driver.Submit(rng.UniformInt(0, units - 2) * cfg.stripe_unit_bytes, 8192,
                  /*is_write=*/i % 3 == 0);
  }
  for (int i = 0; i < 200 && !driver.Drained(); ++i) {
    sim.Step();
  }
  const ArrayLayout& lay = array.layout();
  const int32_t spu =
      static_cast<int32_t>(cfg.stripe_unit_bytes / cfg.disk_spec.sector_bytes);
  DiskOp op;
  op.sectors = spu;
  int64_t stripe = 0;
  for (auto _ : state) {
    stripe = (stripe + 1) % lay.num_stripes();
    op.lba = stripe * spu;
    const int32_t primary = 2 * lay.DataDisk(stripe, 0);
    benchmark::DoNotOptimize(array.ChooseReplica(stripe, primary, op));
  }
}
BENCHMARK(BM_MirrorReadDispatch);

// --- Compiled replay pipeline: fast paths vs their in-tree references -------

std::string BenchTraceText() {
  WorkloadParams p = PaperWorkloads()[2];  // cello-usr.
  p.address_space_bytes = 8LL << 30;
  return SerializeTrace(GenerateWorkload(p, 20'000, Hours(24)));
}

// The hand-rolled scanner on a 20k-record serialized cello-usr workload.
void BM_TraceParse(benchmark::State& state) {
  const std::string text = BenchTraceText();
  Trace out;
  for (auto _ : state) {
    const TraceStatus st = ParseTraceText(text, &out);
    benchmark::DoNotOptimize(st.ok);
    benchmark::DoNotOptimize(out.records.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TraceParse);

// The legacy getline-plus-istringstream parser on the same text.
void BM_TraceParseStreamRef(benchmark::State& state) {
  const std::string text = BenchTraceText();
  Trace out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseTraceStreamRef(text, &out));
    benchmark::DoNotOptimize(out.records.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TraceParseStreamRef);

// Address -> (stripe, block, disk) mapping per segment, the layout math the
// request path runs: strength-reduced (FastDiv64) in StripeLayout...
void BM_LayoutMap(benchmark::State& state) {
  StripeLayout layout(5, 8192, 2'000'000'000, 1);
  Rng rng(42);
  const int64_t cap = layout.data_capacity_bytes();
  std::vector<int64_t> offsets(4096);
  for (int64_t& off : offsets) {
    off = rng.UniformInt(0, cap - 1);
  }
  for (auto _ : state) {
    int64_t sink = 0;
    for (const int64_t off : offsets) {
      const int64_t stripe = layout.StripeOfOffset(off);
      sink += layout.DataDisk(stripe, 0) + layout.ParityDisk(stripe);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_LayoutMap);

// ...versus the same mapping with hardware div/mod. The divisors are member
// variables at runtime in StripeLayout (the compiler cannot fold them), so
// the reference makes its divisors opaque too -- otherwise the benchmark
// would measure the compiler's own constant strength reduction, which the
// pre-FastDiv64 layout never benefited from.
void BM_LayoutMapDivRef(benchmark::State& state) {
  int32_t nd = 5;
  int64_t unit = 8192;
  benchmark::DoNotOptimize(nd);
  benchmark::DoNotOptimize(unit);
  const int64_t stripe_bytes = unit * (nd - 1);
  Rng rng(42);
  const int64_t cap = (2'000'000'000 / unit) * stripe_bytes;
  std::vector<int64_t> offsets(4096);
  for (int64_t& off : offsets) {
    off = rng.UniformInt(0, cap - 1);
  }
  for (auto _ : state) {
    int64_t sink = 0;
    for (const int64_t off : offsets) {
      const int64_t stripe = off / stripe_bytes;
      const auto anchor = static_cast<int32_t>(nd - 1 - stripe % nd);
      sink += (anchor + 1) % nd + anchor;
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_LayoutMapDivRef);

// The same per-segment mapping through the compiled-block-design declustered
// layout (PG(2,3): 13 disks, width 4, lambda = 1). The CI gate pins this to
// within 1.5x of BM_LayoutMap from the same run: the design tables must keep
// the hot path at FastDiv64 + table loads, not reintroduce modular search.
void BM_LayoutMapDecl(benchmark::State& state) {
  DeclusteredLayout layout(13, 8192, 2'000'000'000, 1, 4);
  Rng rng(42);
  const int64_t cap = layout.data_capacity_bytes();
  std::vector<int64_t> offsets(4096);
  for (int64_t& off : offsets) {
    off = rng.UniformInt(0, cap - 1);
  }
  for (auto _ : state) {
    int64_t sink = 0;
    for (const int64_t off : offsets) {
      const int64_t stripe = layout.StripeOfOffset(off);
      sink += layout.DataDisk(stripe, 0) + layout.ParityDisk(stripe);
    }
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_LayoutMapDecl);

// The reconstruction sweep's layout work for one failed disk: the membership
// skip over stripes the disk is not in, then survivor + target placement for
// the stripes it is. With width 4 of 13 the skip rejects ~69% of stripes off
// the bitmap alone; this holds the per-stripe cost of that filter visible.
void BM_DeclusterRebuildSweep(benchmark::State& state) {
  DeclusteredLayout layout(13, 8192, 2'000'000'000, 1, 4);
  const int64_t num = std::min<int64_t>(layout.num_stripes(), 65536);
  const int32_t failed = 0;
  for (auto _ : state) {
    int64_t sink = 0;
    for (int64_t stripe = 0; stripe < num; ++stripe) {
      if (!layout.StripeUsesDisk(stripe, failed)) {
        continue;
      }
      const BlockLoc pl = layout.ParityLocation(stripe);
      sink += pl.disk + pl.byte_offset;
      for (int32_t j = 0; j < layout.data_blocks_per_stripe(); ++j) {
        const BlockLoc dl = layout.DataLocation(stripe, j);
        sink += dl.disk + dl.byte_offset;
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * num);
}
BENCHMARK(BM_DeclusterRebuildSweep);

// Seek-time lookup across the tabulated distance range...
void BM_SeekTime(benchmark::State& state) {
  SeekModel m(DiskSpec::HpC3325Like().seek);
  m.PrecomputeTable(4314);
  Rng rng(42);
  std::vector<int64_t> dists(4096);
  for (int64_t& d : dists) {
    d = rng.UniformInt(-4314, 4314);
  }
  for (auto _ : state) {
    SimDuration sum = 0;
    for (const int64_t d : dists) {
      sum += m.SeekTime(d);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_SeekTime);

// ...versus evaluating the Ruemmler-Wilkes curve (sqrt and all) every time.
void BM_SeekTimeAnalyticRef(benchmark::State& state) {
  SeekModel m(DiskSpec::HpC3325Like().seek);
  Rng rng(42);
  std::vector<int64_t> dists(4096);
  for (int64_t& d : dists) {
    d = rng.UniformInt(-4314, 4314);
  }
  for (auto _ : state) {
    SimDuration sum = 0;
    for (const int64_t d : dists) {
      sum += m.AnalyticSeekTime(d);
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_SeekTimeAnalyticRef);

// Whole-stripe parity refresh (rebuild/scrub inner loop): one in-place
// RefreshParity per stripe...
void BM_RefreshParity(benchmark::State& state) {
  const int32_t n = 4, spu = 16;
  ContentModel m(n, 1, spu);
  for (int64_t s = 0; s < 256; ++s) {
    for (int32_t j = 0; j < n; ++j) {
      for (int32_t i = 0; i < spu; ++i) {
        m.SetData(s * 7, j, i, ContentModel::MixTag(s * 64 + j * 16 + i, s));
      }
    }
  }
  for (auto _ : state) {
    for (int64_t s = 0; s < 256; ++s) {
      m.RefreshParity(s * 7);
    }
    benchmark::DoNotOptimize(&m);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RefreshParity);

// ...versus the per-sector SetParity(XorOfData) stores it replaced (a slot
// resolution per sector position instead of one per stripe).
void BM_RefreshParityPerSectorRef(benchmark::State& state) {
  const int32_t n = 4, spu = 16;
  ContentModel m(n, 1, spu);
  for (int64_t s = 0; s < 256; ++s) {
    for (int32_t j = 0; j < n; ++j) {
      for (int32_t i = 0; i < spu; ++i) {
        m.SetData(s * 7, j, i, ContentModel::MixTag(s * 64 + j * 16 + i, s));
      }
    }
  }
  for (auto _ : state) {
    for (int64_t s = 0; s < 256; ++s) {
      for (int32_t i = 0; i < spu; ++i) {
        m.SetParity(s * 7, i, m.XorOfData(s * 7, i));
      }
    }
    benchmark::DoNotOptimize(&m);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RefreshParityPerSectorRef);

// The content side of a reconstruction sweep over 64K stripes of a 5-wide
// array: per stripe, the replaced disk's data block is rebuilt from P and
// the survivors, or P is refreshed where the disk held parity. The model
// stores about 1% of the stripes (a lightly written array), so most unit
// operations land on stripes the model does not store and must stay cheap
// no-ops that store nothing.
void BM_ContentReconstructSweep(benchmark::State& state) {
  const int32_t n = 4, spu = 16;
  const int64_t num = 65536;
  ContentModel m(n, 1, spu);
  for (int64_t stripe = 0; stripe < num; stripe += 97) {
    for (int32_t j = 0; j < n; ++j) {
      for (int32_t i = 0; i < spu; ++i) {
        m.SetData(stripe, j, i, ContentModel::MixTag(stripe * 64 + j * 16 + i, stripe));
      }
    }
    m.RefreshParity(stripe);
  }
  for (auto _ : state) {
    for (int64_t stripe = 0; stripe < num; ++stripe) {
      // The replaced disk's column rotates with the parity placement.
      const auto col = static_cast<int32_t>(stripe % (n + 1));
      if (col == n) {
        m.RefreshParity(stripe);
      } else {
        m.ReconstructBlock(stripe, col);
      }
    }
    benchmark::DoNotOptimize(&m);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * num);
}
BENCHMARK(BM_ContentReconstructSweep);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    // A chain of self-rescheduling events, like an idleness detector.
    int64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10'000) {
        sim.After(Milliseconds(1), tick);
      }
    };
    sim.After(0, tick);
    sim.RunToEnd();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SimulatorTimerChurn);

// Fleet routing hot path: one logical offset -> (shard, local offset). Both
// policies compile to the same flat chunk table, so range and consistent
// hashing must cost the same here -- the whole point of prebuilding the map.
void BM_FleetRoute(benchmark::State& state) {
  const int64_t chunk = 1 << 20;
  const int64_t volume = chunk * 16 * 64;
  const ShardMap map = ShardMap::ConsistentHash(
      16, chunk, volume, /*shard_capacity_bytes=*/chunk * 80,
      /*vnodes_per_shard=*/64, /*seed=*/1);
  Rng rng(7);
  std::vector<int64_t> offsets(1024);
  for (int64_t& off : offsets) {
    off = rng.UniformInt(0, volume - 1);
  }
  int64_t sink = 0;
  for (auto _ : state) {
    for (const int64_t off : offsets) {
      const ShardTarget t = map.Route(off);
      sink += t.shard + t.local_offset;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(offsets.size()));
}
BENCHMARK(BM_FleetRoute);

// A whole (tiny) fleet run per iteration: route, per-shard replay, eight
// independent simulations, and the split-latency join. Guards the
// end-to-end cost of the fleet layer the way BM_ControllerWritePath guards
// one array's write path.
void BM_FleetThroughput(benchmark::State& state) {
  FleetConfig cfg;
  cfg.array.disk_spec = DiskSpec::TinyTestDisk();
  cfg.array.num_disks = 4;
  cfg.num_shards = 8;
  cfg.chunk_bytes = 512 * 1024;
  FleetWorkloadParams wp;
  wp.seed = 11;
  wp.num_tenants = 64;
  wp.max_requests = 2000;
  wp.max_duration = Minutes(5);
  const FleetTrace trace =
      GenerateFleetWorkload(wp, VolumeManager(cfg).VolumeBytes());
  uint64_t served = 0;
  for (auto _ : state) {
    VolumeManager vm(cfg);
    VolumeManager::RunOptions opts;
    opts.threads = 1;  // Measure the work, not the thread pool.
    const FleetReport rep = vm.Run(trace, opts);
    served += rep.requests;
  }
  benchmark::DoNotOptimize(served);
  state.SetItemsProcessed(static_cast<int64_t>(served));
}
BENCHMARK(BM_FleetThroughput);

// --- Streamed vs in-memory end-to-end replay --------------------------------

// One pinned 10k-record cello-usr trace file (in $TMPDIR, else /tmp), written
// once per process and replayed by both variants below so the comparison is
// apples-to-apples.
const std::string& ReplayBenchTracePath() {
  static const std::string* path = [] {
    WorkloadParams p = PaperWorkloads()[2];  // cello-usr.
    // Sized to the replay benches' default array, so every record fits.
    p.address_space_bytes =
        SchemeRegistry::DataCapacityBytes("afraid", ArrayConfig{});
    const Trace t = GenerateWorkload(p, 10'000, Hours(24));
    auto* s = new std::string(
        (std::filesystem::temp_directory_path() / "afraid_bench_replay.trace")
            .string());
    RecordTrace(t, *s);
    return s;
  }();
  return *path;
}

// End-to-end streamed replay (TraceChunkReader -> TraceReplayer) with
// 256 KiB chunks. The CI gate compares this against
// BM_ReplayThroughputInMemory from the same run: reading and parsing the
// file chunk by chunk must keep at least 0.9x the throughput of replaying a
// trace already loaded whole.
void BM_ReplayThroughput(benchmark::State& state) {
  const std::string& path = ReplayBenchTracePath();
  ArrayConfig cfg;
  uint64_t served = 0;
  for (auto _ : state) {
    Experiment exp(cfg);
    StreamOptions sopts;
    sopts.chunk_bytes = 256u << 10;
    exp.Policy(PolicySpec::AfraidBaseline()).TraceFile(path, sopts);
    const SimReport rep = exp.Run();
    benchmark::DoNotOptimize(rep.mean_io_ms);
    served += exp.stream_stats().records;
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
}
BENCHMARK(BM_ReplayThroughput);

// The in-memory reference: load and parse the whole file, then replay it
// through the same replayer. Same trace, same scheme; only the
// trace text and records are O(trace).
void BM_ReplayThroughputInMemory(benchmark::State& state) {
  const std::string& path = ReplayBenchTracePath();
  ArrayConfig cfg;
  uint64_t served = 0;
  for (auto _ : state) {
    Trace t;
    if (!LoadTraceFile(path, &t).ok) {
      state.SkipWithError("cannot load bench trace");
      break;
    }
    Experiment exp(cfg);
    exp.Policy(PolicySpec::AfraidBaseline()).Trace(t);
    const SimReport rep = exp.Run();
    benchmark::DoNotOptimize(rep.mean_io_ms);
    served += t.records.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(served));
}
BENCHMARK(BM_ReplayThroughputInMemory);

// One full campaign lifetime (fault timeline + live array, reused arena):
// the unit of work RunCampaignLifetimes fans out, dominated by warmup of the
// array simulation. A short cap keeps the timeline cheap so the bench tracks
// the per-lifetime fixed costs the arena reuse is meant to amortize.
void BM_CampaignLifetime(benchmark::State& state) {
  CampaignConfig c;
  c.array.disk_spec = DiskSpec::TinyTestDisk();
  c.array.num_disks = 5;
  c.array.stripe_unit_bytes = 8192;
  c.policy = PolicySpec::AfraidBaseline();
  c.workload = PaperWorkloads().front();
  c.faults = FaultModelParams::From(AvailabilityParamsFor(c.array),
                                    SchemeFor(c.policy));
  c.lifetimes = 1;
  c.base_seed = 20260808;
  c.max_lifetime_hours = 1e5;
  LifetimeArena arena;
  int32_t index = 0;
  for (auto _ : state) {
    const LifetimeResult res = RunLifetime(c, index++ & 63, &arena);
    benchmark::DoNotOptimize(res.hours_observed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampaignLifetime);

}  // namespace
}  // namespace afraid

int main(int argc, char** argv) {
  // Recorded into the benchmark JSON context: whether THIS binary's
  // translation units were compiled with optimization. google-benchmark's
  // own "library_build_type" key describes how the (system) benchmark
  // library was built, not our code, so the regen script and CI gate key on
  // this instead (see scripts/regen_goldens.sh).
#ifdef __OPTIMIZE__
  benchmark::AddCustomContext("afraid_bench_optimized", "true");
#else
  benchmark::AddCustomContext("afraid_bench_optimized", "false");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
