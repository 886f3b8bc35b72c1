// Streamed replay (Experiment::TraceFile) vs replay of the same trace held
// in memory (Experiment::Trace): the trajectory -- every latency percentile,
// counter, and availability output in the report -- must be identical at
// every chunk size, and the reader's memory must depend on the chunk, not
// the trace.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/experiment.h"
#include "core/policy.h"
#include "core/scheme_registry.h"
#include "obs/report_io.h"
#include "trace/recorder.h"
#include "trace/trace.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

std::string TempPath(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

Trace PresetTrace(const std::string& name, uint64_t max_requests) {
  WorkloadParams p;
  EXPECT_TRUE(FindWorkload(name, &p));
  p.address_space_bytes = 1LL << 30;
  return GenerateWorkload(p, max_requests, Hours(24));
}

SimReport RunInMemory(const Trace& trace, const PolicySpec& spec) {
  return Experiment(ArrayConfig()).Policy(spec).Trace(trace).Run();
}

SimReport RunStreamed(const std::string& path, const PolicySpec& spec,
                      size_t chunk_bytes, StreamStats* stats = nullptr) {
  Experiment exp{ArrayConfig()};
  StreamOptions opts;
  opts.chunk_bytes = chunk_bytes;
  exp.Policy(spec).TraceFile(path, opts);
  const SimReport rep = exp.Run();
  EXPECT_TRUE(exp.trace_status().ok) << exp.trace_status().message;
  if (stats != nullptr) {
    *stats = exp.stream_stats();
  }
  return rep;
}

// JSON carries every report field at full precision, so string equality is
// trajectory equality.
void ExpectSameReport(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(SimReportToJson(a), SimReportToJson(b));
}

TEST(StreamReplay, MatchesInMemoryAcrossChunkSizes) {
  const Trace trace = PresetTrace("cello-usr", 1500);
  const std::string path = TempPath("afraid_stream_replay_cello.txt");
  ASSERT_TRUE(RecordTrace(trace, path).ok);

  const SimReport in_memory = RunInMemory(trace, PolicySpec::AfraidBaseline());
  ASSERT_GT(in_memory.requests, 0u);

  // Tiny chunks force many feed/replay interleavings; the huge chunk
  // degenerates to one span, like the in-memory source.
  for (const size_t chunk : {200u, 1024u, 16384u, 4u << 20}) {
    StreamStats stats;
    const SimReport streamed =
        RunStreamed(path, PolicySpec::AfraidBaseline(), chunk, &stats);
    ExpectSameReport(streamed, in_memory);
    EXPECT_EQ(stats.records, trace.records.size()) << "chunk=" << chunk;
  }
  std::remove(path.c_str());
}

// A record past the array's capacity is skipped on both ingest paths: the
// run matches the trace without it, with one rejection counted.
TEST(StreamReplay, RecordPastCapacityIsRejectedWholeAndStreamed) {
  const Trace clean = PresetTrace("cello-usr", 600);
  Trace bad = clean;
  TraceRecord past = bad.records[300];
  past.offset =
      SchemeRegistry::DataCapacityBytes("afraid", ArrayConfig()) - 4096;
  past.size = 8192;
  bad.records.insert(bad.records.begin() + 300, past);
  const std::string path = TempPath("afraid_stream_replay_past_capacity.txt");
  ASSERT_TRUE(RecordTrace(bad, path).ok);

  const SimReport expected = RunInMemory(clean, PolicySpec::AfraidBaseline());
  Experiment whole{ArrayConfig()};
  whole.Policy(PolicySpec::AfraidBaseline()).Trace(bad);
  ExpectSameReport(whole.Run(), expected);
  EXPECT_EQ(whole.stream_stats().records, clean.records.size());
  EXPECT_EQ(whole.stream_stats().rejected, 1u);

  StreamStats stats;
  ExpectSameReport(
      RunStreamed(path, PolicySpec::AfraidBaseline(), 1024, &stats), expected);
  EXPECT_EQ(stats.records, clean.records.size());
  EXPECT_EQ(stats.rejected, 1u);
  std::remove(path.c_str());
}

TEST(StreamReplay, MatchesInMemoryAcrossSchemesAndWorkloads) {
  for (const char* workload : {"cello-usr", "ATT"}) {
    const Trace trace = PresetTrace(workload, 800);
    const std::string path = TempPath("afraid_stream_replay_multi.txt");
    ASSERT_TRUE(RecordTrace(trace, path).ok);
    for (const PolicySpec& spec : {PolicySpec::Raid5(),
                                   PolicySpec::AfraidBaseline(),
                                   PolicySpec::Raid0()}) {
      const SimReport in_memory = RunInMemory(trace, spec);
      const SimReport streamed = RunStreamed(path, spec, 4096);
      ExpectSameReport(streamed, in_memory);
    }
    std::remove(path.c_str());
  }
}

// The fixed-memory guarantee: growing the trace 8x leaves the read buffers
// at the same high-water mark (same chunk size).
TEST(StreamReplay, ReaderMemoryIndependentOfTraceLength) {
  const std::string short_path = TempPath("afraid_stream_replay_short.txt");
  const std::string long_path = TempPath("afraid_stream_replay_long.txt");
  ASSERT_TRUE(RecordTrace(PresetTrace("cello-usr", 1000), short_path).ok);
  ASSERT_TRUE(RecordTrace(PresetTrace("cello-usr", 8000), long_path).ok);

  const size_t chunk = 8192;
  StreamStats short_stats;
  StreamStats long_stats;
  RunStreamed(short_path, PolicySpec::AfraidBaseline(), chunk, &short_stats);
  RunStreamed(long_path, PolicySpec::AfraidBaseline(), chunk, &long_stats);

  EXPECT_EQ(long_stats.records, 8000u);
  EXPECT_GT(long_stats.chunks, 4 * short_stats.chunks);
  // More chunks, same bounded footprint (2x slack for per-chunk variation in
  // record counts and allocator rounding).
  EXPECT_LE(long_stats.peak_buffer_bytes, 2 * short_stats.peak_buffer_bytes);
  std::remove(short_path.c_str());
  std::remove(long_path.c_str());
}

// A parse error mid-file surfaces through trace_status() with the whole-file
// parser's line number; the prefix before the error still replays.
TEST(StreamReplay, ParseErrorSurfacesWithLineNumber) {
  const std::string path = TempPath("afraid_stream_replay_bad.txt");
  {
    Trace good = PresetTrace("cello-usr", 50);
    ASSERT_TRUE(RecordTrace(good, path).ok);
    // Append a malformed record past the valid prefix.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("not-a-time R 0 512\n", f);
    std::fclose(f);
  }
  Trace loaded;
  const TraceStatus load_st = LoadTraceFile(path, &loaded);
  ASSERT_FALSE(load_st.ok);

  Experiment exp{ArrayConfig()};
  StreamOptions opts;
  opts.chunk_bytes = 256;
  exp.Policy(PolicySpec::AfraidBaseline()).TraceFile(path, opts);
  const SimReport rep = exp.Run();
  EXPECT_FALSE(exp.trace_status().ok);
  EXPECT_EQ(exp.trace_status().line, load_st.line);
  EXPECT_EQ(exp.trace_status().message, load_st.message);
  EXPECT_EQ(rep.requests, 50u);  // The valid prefix was replayed.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace afraid
