// Tracer unit tests plus well-formedness of the trace an observed experiment
// actually writes: balanced async spans, complete X spans, monotone per-track
// completion times, and byte-identical output across identical runs.

#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "json_reader.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ArrayConfig SmallConfig() {
  ArrayConfig cfg;
  cfg.disk_spec = DiskSpec::TinyTestDisk();
  cfg.num_disks = 5;
  cfg.stripe_unit_bytes = 8192;
  return cfg;
}

WorkloadParams FastWorkload() {
  WorkloadParams p;
  p.name = "fast";
  p.seed = 21;
  p.mean_burst_requests = 15;
  p.mean_idle_ms = 300;
  p.idle_pareto_alpha = 1.5;
  p.intra_burst_gap_ms = 8;
  p.write_fraction = 0.6;
  p.size_dist = {{4096, 0.5}, {8192, 0.5}};
  return p;
}

// Runs a small observed AFRAID experiment into `dir` and returns the report.
SimReport RunObservedInto(const std::string& dir) {
  ObserveOptions opts;
  opts.artifacts_dir = dir;
  return Experiment(SmallConfig())
      .Policy(PolicySpec::AfraidBaseline())
      .Workload(FastWorkload(), 600, Minutes(30))
      .Observe(opts)
      .Run();
}

TEST(Tracer, EventsCarryTheirPhaseFields) {
  Tracer t;
  const int32_t track = t.AddTrack("disk0");
  t.Complete(track, "client read", Milliseconds(1), Milliseconds(3));
  t.AsyncBegin(track, "write", 7, Milliseconds(2), "{\"bytes\":4096}");
  t.AsyncEnd(track, "write", 7, Milliseconds(5));
  t.Instant(track, "mode: RAID5", Milliseconds(4));
  t.Counter(track, "queue", Milliseconds(4), 3.0);
  ASSERT_EQ(t.NumEvents(), 5u);
  EXPECT_EQ(t.tracks(), std::vector<std::string>{"disk0"});
  EXPECT_EQ(t.events()[0].phase, 'X');
  EXPECT_EQ(t.events()[0].dur, Milliseconds(2));
  EXPECT_EQ(t.events()[1].id, 7u);
  EXPECT_EQ(t.events()[4].value, 3.0);
}

TEST(Tracer, ToJsonEmitsChromeTraceShape) {
  Tracer t;
  const int32_t track = t.AddTrack("disk0");
  t.Complete(track, "op", Milliseconds(1), Milliseconds(3));
  t.AsyncBegin(track, "req", 1, 0);
  t.AsyncEnd(track, "req", 1, Milliseconds(9));
  t.Instant(track, "flip", Milliseconds(2));
  t.Counter(track, "depth", Milliseconds(2), 2.0);

  JsonValue root;
  std::string err;
  ASSERT_TRUE(ParseJson(t.ToJson(), &root, &err)) << err;
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // thread_name metadata + the five events.
  ASSERT_EQ(events->Items().size(), 6u);

  const JsonValue& meta = events->Items()[0];
  EXPECT_EQ(meta.GetString("ph"), "M");
  EXPECT_EQ(meta.GetString("name"), "thread_name");
  EXPECT_EQ(meta.Get("args")->GetString("name"), "disk0");

  const JsonValue& x = events->Items()[1];
  EXPECT_EQ(x.GetString("ph"), "X");
  EXPECT_DOUBLE_EQ(x.GetNumber("ts"), 1000.0);   // 1 ms in us.
  EXPECT_DOUBLE_EQ(x.GetNumber("dur"), 2000.0);  // 2 ms in us.

  const JsonValue& b = events->Items()[2];
  EXPECT_EQ(b.GetString("ph"), "b");
  EXPECT_EQ(b.GetString("cat"), "disk0");
  ASSERT_NE(b.Get("id"), nullptr);

  EXPECT_EQ(events->Items()[4].GetString("s"), "t");
  EXPECT_DOUBLE_EQ(events->Items()[5].Get("args")->GetNumber("value"), 2.0);
}

TEST(TracerWellFormedness, ObservedRunTraceIsWellFormed) {
  const std::string dir = ::testing::TempDir() + "afraid_tracer_wf";
  const SimReport rep = RunObservedInto(dir);
  ASSERT_GT(rep.requests, 0u);

  JsonValue root;
  std::string err;
  ASSERT_TRUE(ParseJson(Slurp(dir + "/trace.json"), &root, &err)) << err;
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->Items().size(), 100u) << "observed run produced a near-empty trace";

  std::map<int64_t, std::string> track_names;
  std::map<int64_t, double> last_x_end;                           // tid -> ts+dur.
  std::map<std::tuple<int64_t, std::string, int64_t>, int> open;  // async spans.
  size_t x_spans = 0;
  size_t async_begins = 0;

  for (const JsonValue& ev : events->Items()) {
    const std::string ph = ev.GetString("ph");
    ASSERT_FALSE(ph.empty());
    ASSERT_NE(ev.Get("pid"), nullptr);
    ASSERT_NE(ev.Get("tid"), nullptr);
    const int64_t tid = ev.Get("tid")->AsInt();
    if (ph == "M") {
      ASSERT_EQ(ev.GetString("name"), "thread_name");
      track_names[tid] = ev.Get("args")->GetString("name");
      continue;
    }
    ASSERT_TRUE(ph == "X" || ph == "b" || ph == "e" || ph == "i" || ph == "C")
        << "unknown phase " << ph;
    // Every non-metadata event sits on a declared track and a valid clock.
    ASSERT_TRUE(track_names.count(tid)) << "event on undeclared track " << tid;
    ASSERT_NE(ev.Get("ts"), nullptr);
    EXPECT_GE(ev.GetNumber("ts"), 0.0);

    if (ph == "X") {
      ++x_spans;
      ASSERT_NE(ev.Get("dur"), nullptr) << "incomplete X span";
      EXPECT_GE(ev.GetNumber("dur"), 0.0);
      // X spans are emitted from completion callbacks, so per-track end
      // times (ts + dur) appear in non-decreasing simulated-time order.
      const double end = ev.GetNumber("ts") + ev.GetNumber("dur");
      auto it = last_x_end.find(tid);
      if (it != last_x_end.end()) {
        EXPECT_GE(end, it->second - 1e-9)
            << "X spans out of completion order on track " << track_names[tid];
      }
      last_x_end[tid] = end;
    } else if (ph == "b" || ph == "e") {
      ASSERT_NE(ev.Get("id"), nullptr);
      EXPECT_EQ(ev.GetString("cat"), track_names[tid]);
      const auto key =
          std::make_tuple(tid, ev.GetString("name"), ev.Get("id")->AsInt());
      if (ph == "b") {
        ++async_begins;
        ++open[key];
      } else {
        ASSERT_GT(open[key], 0) << "async end without begin: " << ev.GetString("name");
        --open[key];
      }
    }
  }

  for (const auto& [key, count] : open) {
    EXPECT_EQ(count, 0) << "unbalanced async span " << std::get<1>(key) << " id "
                        << std::get<2>(key);
  }
  // The run actually exercised the instrumentation: disk ops as X spans and
  // one async client span per request.
  EXPECT_GT(x_spans, rep.requests);
  EXPECT_GE(async_begins, rep.requests);

  // All expected tracks are present: driver, controller, rebuild, faults,
  // and one per disk.
  std::vector<std::string> names;
  for (const auto& [tid, name] : track_names) {
    names.push_back(name);
  }
  for (const char* expected :
       {"driver", "controller", "rebuild", "disk0", "disk4"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing track " << expected;
  }
}

TEST(TracerGolden, IdenticalRunsWriteIdenticalArtifacts) {
  const std::string dir_a = ::testing::TempDir() + "afraid_tracer_golden_a";
  const std::string dir_b = ::testing::TempDir() + "afraid_tracer_golden_b";
  RunObservedInto(dir_a);
  RunObservedInto(dir_b);
  EXPECT_EQ(Slurp(dir_a + "/trace.json"), Slurp(dir_b + "/trace.json"));
  EXPECT_EQ(Slurp(dir_a + "/metrics.jsonl"), Slurp(dir_b + "/metrics.jsonl"));
  EXPECT_EQ(Slurp(dir_a + "/report.json"), Slurp(dir_b + "/report.json"));
}

}  // namespace
}  // namespace afraid
