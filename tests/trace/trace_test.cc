#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "trace/workload_gen.h"
#include "trace_parse_ref.h"

namespace afraid {
namespace {

Trace SmallTrace() {
  Trace t;
  t.name = "unit test trace";
  t.records = {
      {0, 0, 8192, false},
      {Milliseconds(5), 16384, 4096, true},
      {Milliseconds(250), 1 << 20, 512, true},
  };
  return t;
}

TEST(TraceIo, SerializeParseRoundTrip) {
  const Trace t = SmallTrace();
  Trace back;
  ASSERT_TRUE(ParseTrace(SerializeTrace(t), &back));
  EXPECT_EQ(back.name, t.name);
  ASSERT_EQ(back.records.size(), t.records.size());
  for (size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].time, t.records[i].time);
    EXPECT_EQ(back.records[i].offset, t.records[i].offset);
    EXPECT_EQ(back.records[i].size, t.records[i].size);
    EXPECT_EQ(back.records[i].is_write, t.records[i].is_write);
  }
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "afraid_trace_test.txt").string();
  const Trace t = SmallTrace();
  ASSERT_TRUE(WriteTraceFile(path, t));
  Trace back;
  ASSERT_TRUE(ReadTraceFile(path, &back));
  EXPECT_EQ(back.records.size(), t.records.size());
  std::remove(path.c_str());
}

TEST(TraceIo, ParseRejectsGarbage) {
  Trace out;
  EXPECT_FALSE(ParseTrace("123 X 0 512\n", &out));     // Bad op letter.
  EXPECT_FALSE(ParseTrace("abc R 0 512\n", &out));     // Bad time.
  EXPECT_FALSE(ParseTrace("5 R 0 -12\n", &out));       // Negative size.
  EXPECT_FALSE(ParseTrace("5 R\n", &out));             // Truncated row.
  EXPECT_TRUE(ParseTrace("# only comments\n", &out));  // Empty trace is fine.
  EXPECT_TRUE(out.Empty());
}

TEST(TraceIo, ReadMissingFileFails) {
  Trace out;
  EXPECT_FALSE(ReadTraceFile("/nonexistent/path/trace.txt", &out));
}

// --- Fast scanner diagnostics -------------------------------------------------

TEST(TraceIo, MissingFileReportsFileLevelError) {
  Trace out;
  const TraceStatus st = LoadTraceFile("/nonexistent/path/trace.txt", &out);
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(st.line, 0);
  EXPECT_EQ(st.message, "cannot open trace file");
  EXPECT_EQ(st.Format("trace.txt"), "trace.txt: cannot open trace file");
}

TEST(TraceIo, TruncatedLastLineReportsLineNumber) {
  Trace out;
  const TraceStatus st =
      ParseTraceText("# name t\n0 R 0 512\n100 W 4096\n", &out);
  EXPECT_FALSE(st.ok);
  EXPECT_EQ(st.line, 3);  // 1-based, counting the header line.
  EXPECT_NE(st.message.find("truncated"), std::string::npos);
}

TEST(TraceIo, MalformedFieldsNameTheLineAndField) {
  struct Case {
    const char* text;
    int64_t line;
    const char* substr;
  };
  const Case cases[] = {
      {"0 R 0 512\nx W 0 512\n", 2, "time"},
      {"0 R 0 512\n5 Q 0 512\n", 2, "op"},
      {"0 R 0 512\n5 W zz 512\n", 2, "offset"},
      {"0 R 0 512\n5 W 0 9999999999999\n", 2, "size"},
      {"0 R 0 512\n5 W 0 512 junk\n", 2, "trailing"},
      {"0 R 0 512\n-5 W 0 512\n", 2, "negative time"},
      {"0 R 0 512\n5 W -8 512\n", 2, "negative offset"},
      {"0 R 0 512\n5 W 0 0\n", 2, "non-positive size"},
      {"99999999999999999999 R 0 512\n", 1, "time"},  // int64 overflow.
  };
  for (const Case& c : cases) {
    Trace out;
    const TraceStatus st = ParseTraceText(c.text, &out);
    EXPECT_FALSE(st.ok) << c.text;
    EXPECT_EQ(st.line, c.line) << c.text;
    EXPECT_NE(st.message.find(c.substr), std::string::npos)
        << c.text << " -> " << st.message;
  }
}

TEST(TraceIo, FormatIncludesSourceAndLine) {
  const TraceStatus st = TraceStatus::Error(12, "malformed size field");
  EXPECT_EQ(st.Format("cello.trace"), "cello.trace:12: malformed size field");
}

TEST(TraceIo, ScannerAcceptsFormattingVariants) {
  Trace out;
  // Tabs, repeated separators, CRLF line endings, blank lines, and comments
  // anywhere -- all accepted by the legacy stream parser too.
  const TraceStatus st = ParseTraceText(
      "# afraid-trace v1\r\n"
      "# name  spaced out  \n"
      "\n"
      "0\tR\t0\t512\r\n"
      "  5   W   4096    1024\n"
      "# trailing comment\n",
      &out);
  ASSERT_TRUE(st.ok) << st.Format("inline");
  EXPECT_EQ(out.name, "spaced out  ");
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[1].offset, 4096);
  EXPECT_EQ(out.records[1].size, 1024);
  EXPECT_TRUE(out.records[1].is_write);
}

// The fast scanner against the legacy stream parser, record for record, on
// every serialized paper workload. This is the golden equivalence the
// compiled replay pipeline rests on: both parsers must see the same trace.
TEST(TraceIo, FastScannerMatchesStreamParserOnPaperWorkloads) {
  for (const WorkloadParams& p : PaperWorkloads()) {
    WorkloadParams params = p;
    params.address_space_bytes = 1LL << 30;
    Trace t = GenerateWorkload(params, 2000, Hours(24));
    const std::string text = SerializeTrace(t);

    Trace fast;
    Trace legacy;
    ASSERT_TRUE(ParseTraceText(text, &fast).ok) << p.name;
    ASSERT_TRUE(ParseTraceStreamRef(text, &legacy)) << p.name;
    EXPECT_EQ(fast.name, legacy.name);
    ASSERT_EQ(fast.records.size(), legacy.records.size()) << p.name;
    for (size_t i = 0; i < fast.records.size(); ++i) {
      EXPECT_EQ(fast.records[i].time, legacy.records[i].time);
      EXPECT_EQ(fast.records[i].offset, legacy.records[i].offset);
      EXPECT_EQ(fast.records[i].size, legacy.records[i].size);
      EXPECT_EQ(fast.records[i].is_write, legacy.records[i].is_write);
    }
  }
}

TEST(TraceStats, BasicAccounting) {
  const TraceStats s = ComputeTraceStats(SmallTrace());
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(s.bytes_read, 8192);
  EXPECT_EQ(s.bytes_written, 4096 + 512);
  EXPECT_NEAR(s.write_fraction, 2.0 / 3.0, 1e-12);
  EXPECT_GT(s.idle_fraction_100ms, 0.0);  // The 245 ms gap counts.
}

TEST(TraceStats, EmptyTrace) {
  const TraceStats s = ComputeTraceStats(Trace{});
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.mean_size_bytes, 0.0);
}

// --- Workload generator -------------------------------------------------------

WorkloadParams TestParams() {
  WorkloadParams p;
  p.name = "gen-test";
  p.seed = 99;
  p.address_space_bytes = 1LL << 30;
  p.mean_burst_requests = 20;
  p.mean_idle_ms = 400;
  p.idle_pareto_alpha = 1.4;
  p.intra_burst_gap_ms = 10;
  p.write_fraction = 0.6;
  p.size_dist = {{4096, 0.5}, {8192, 0.5}};
  return p;
}

TEST(WorkloadGen, Deterministic) {
  const Trace a = GenerateWorkload(TestParams(), 500, Hours(1));
  const Trace b = GenerateWorkload(TestParams(), 500, Hours(1));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].time, b.records[i].time);
    EXPECT_EQ(a.records[i].offset, b.records[i].offset);
  }
}

TEST(WorkloadGen, RespectsRequestCap) {
  const Trace t = GenerateWorkload(TestParams(), 123, Hours(100));
  EXPECT_EQ(t.records.size(), 123u);
}

TEST(WorkloadGen, RespectsDurationCap) {
  const Trace t = GenerateWorkload(TestParams(), 1'000'000, Seconds(30));
  EXPECT_GT(t.records.size(), 10u);
  // The generator may overshoot by at most one burst after the deadline.
  EXPECT_LE(t.Duration(), Seconds(31));
}

TEST(WorkloadGen, RecordsWellFormed) {
  const WorkloadParams p = TestParams();
  const Trace t = GenerateWorkload(p, 5000, Hours(10));
  SimTime prev = 0;
  for (const TraceRecord& r : t.records) {
    EXPECT_GE(r.time, prev);
    prev = r.time;
    EXPECT_GE(r.offset, 0);
    EXPECT_GT(r.size, 0);
    EXPECT_EQ(r.offset % p.align_bytes, 0);
    EXPECT_LE(r.offset + r.size, p.address_space_bytes);
    EXPECT_TRUE(r.size == 4096 || r.size == 8192);
  }
}

TEST(WorkloadGen, WriteFractionApproximatelyHonored) {
  const Trace t = GenerateWorkload(TestParams(), 20000, Hours(100));
  const TraceStats s = ComputeTraceStats(t);
  EXPECT_NEAR(s.write_fraction, 0.6, 0.05);
}

TEST(WorkloadGen, BurstyWorkloadHasIdleGaps) {
  const Trace t = GenerateWorkload(TestParams(), 10000, Hours(100));
  const TraceStats s = ComputeTraceStats(t);
  // Mean idle 400ms between ~200ms bursts: well over a third of the time
  // should be in >100ms arrival gaps.
  EXPECT_GT(s.idle_fraction_100ms, 0.3);
}

TEST(WorkloadGen, LongIdlePeriodsIncreaseIdleFraction) {
  WorkloadParams p = TestParams();
  const Trace base = GenerateWorkload(p, 5000, Hours(100));
  p.long_idle_prob = 0.3;
  p.mean_long_idle_ms = 60000;
  const Trace with_long = GenerateWorkload(p, 5000, Hours(100));
  EXPECT_GT(ComputeTraceStats(with_long).idle_fraction_100ms,
            ComputeTraceStats(base).idle_fraction_100ms);
}

TEST(WorkloadGen, PaperSuiteComplete) {
  const auto all = PaperWorkloads();
  ASSERT_EQ(all.size(), 10u);
  const char* expected[] = {"hplajw",  "snake",   "cello-usr", "cello-news",
                            "netware", "ATT",     "AS400-1",   "AS400-2",
                            "AS400-3", "AS400-4"};
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].name, expected[i]);
    EXPECT_GT(all[i].write_fraction, 0.0);
    EXPECT_LT(all[i].write_fraction, 1.0);
    EXPECT_GE(all[i].mean_burst_requests, 1.0);
  }
}

TEST(WorkloadGen, FindWorkloadByName) {
  WorkloadParams p;
  EXPECT_TRUE(FindWorkload("ATT", &p));
  EXPECT_EQ(p.name, "ATT");
  EXPECT_FALSE(FindWorkload("no-such-trace", &p));
}

TEST(WorkloadGen, HeavyTracesBusierThanLightOnes) {
  WorkloadParams hplajw;
  WorkloadParams att;
  ASSERT_TRUE(FindWorkload("hplajw", &hplajw));
  ASSERT_TRUE(FindWorkload("ATT", &att));
  hplajw.address_space_bytes = att.address_space_bytes = 1LL << 30;
  const TraceStats sl = ComputeTraceStats(GenerateWorkload(hplajw, 4000, Hours(24)));
  const TraceStats sh = ComputeTraceStats(GenerateWorkload(att, 4000, Hours(24)));
  EXPECT_LT(sh.mean_interarrival_ms, sl.mean_interarrival_ms / 5.0);
  EXPECT_LT(sh.idle_fraction_100ms, sl.idle_fraction_100ms);
}

}  // namespace
}  // namespace afraid
