// Chunked streaming ingest (TraceChunkReader) and workload recording
// (WorkloadRecorder): chunk-boundary edge cases, error parity with the
// monolithic parser, fixed-memory bounds, and byte-exact serialization.

#include "trace/trace_stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/recorder.h"
#include "trace/trace.h"
#include "trace/workload_gen.h"

namespace afraid {
namespace {

std::string TempPath(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

Trace MediumTrace() {
  WorkloadParams p = PaperWorkloads()[2];  // cello-usr.
  p.address_space_bytes = 1LL << 30;
  Trace t = GenerateWorkload(p, 500, Hours(2));
  t.name = "stream test";
  return t;
}

// Streams `path` to completion and concatenates all chunks.
Trace StreamAll(const std::string& path, const StreamOptions& opts) {
  TraceChunkReader reader(path, opts);
  Trace all;
  while (reader.Next()) {
    for (const TraceRecord& r : reader.chunk().records) {
      all.records.push_back(r);
    }
  }
  EXPECT_TRUE(reader.status().ok) << reader.status().message;
  all.name = reader.name();
  all.tenants = reader.tenants();
  return all;
}

void ExpectSameRecords(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].time, b.records[i].time) << "record " << i;
    EXPECT_EQ(a.records[i].offset, b.records[i].offset) << "record " << i;
    EXPECT_EQ(a.records[i].size, b.records[i].size) << "record " << i;
    EXPECT_EQ(a.records[i].is_write, b.records[i].is_write) << "record " << i;
  }
}

// Records split across chunk boundaries must reassemble exactly, at every
// chunk size -- including sizes far below one line, which exercise the
// grow-window-until-newline path.
TEST(TraceStream, ChunkBoundarySplitsMatchMonolithic) {
  const std::string path = TempPath("afraid_stream_split.txt");
  const Trace t = MediumTrace();
  ASSERT_TRUE(RecordTrace(t, path).ok);

  Trace mono;
  ASSERT_TRUE(LoadTraceFile(path, &mono).ok);
  ASSERT_EQ(mono.records.size(), t.records.size());

  for (const size_t chunk : {64u, 65u, 97u, 256u, 1024u, 65536u, 1u << 22}) {
    StreamOptions opts;
    opts.chunk_bytes = chunk;
    const Trace streamed = StreamAll(path, opts);
    EXPECT_EQ(streamed.name, mono.name) << "chunk=" << chunk;
    ExpectSameRecords(streamed, mono);
  }
  std::remove(path.c_str());
}

// A final line without a trailing newline is a complete record.
TEST(TraceStream, FinalLineWithoutNewline) {
  const std::string path = TempPath("afraid_stream_nonl.txt");
  WriteFileBytes(path,
                 "# afraid-trace v1\n"
                 "# name tail\n"
                 "0 R 0 512\n"
                 "1000 W 8192 4096");  // No trailing newline.
  StreamOptions opts;
  opts.chunk_bytes = 64;
  const Trace streamed = StreamAll(path, opts);
  ASSERT_EQ(streamed.records.size(), 2u);
  EXPECT_EQ(streamed.name, "tail");
  EXPECT_EQ(streamed.records[1].time, 1000);
  EXPECT_EQ(streamed.records[1].offset, 8192);
  EXPECT_EQ(streamed.records[1].size, 4096);
  EXPECT_TRUE(streamed.records[1].is_write);
  std::remove(path.c_str());
}

// A record truncated mid-field (EOF inside a line) must produce the same
// structured, line-numbered error as the monolithic parser -- regardless of
// where chunk boundaries fall.
TEST(TraceStream, TruncatedRecordMatchesMonolithicError) {
  const std::string path = TempPath("afraid_stream_trunc.txt");
  const std::string text =
      "# afraid-trace v1\n"
      "0 R 0 512\n"
      "1000 W 8192\n"  // Truncated: missing size field.
      "2000 R 0 512\n";
  WriteFileBytes(path, text);

  Trace mono;
  const TraceStatus mono_st = LoadTraceFile(path, &mono);
  ASSERT_FALSE(mono_st.ok);
  EXPECT_EQ(mono_st.line, 3);

  for (const size_t chunk : {64u, 65u, 128u, 4096u}) {
    StreamOptions opts;
    opts.chunk_bytes = chunk;
    TraceChunkReader reader(path, opts);
    while (reader.Next()) {
    }
    EXPECT_FALSE(reader.status().ok) << "chunk=" << chunk;
    EXPECT_EQ(reader.status().line, mono_st.line) << "chunk=" << chunk;
    EXPECT_EQ(reader.status().message, mono_st.message) << "chunk=" << chunk;
  }
  std::remove(path.c_str());
}

// Same parity for a malformed field in the middle of a long trace: the
// absolute line number survives chunking.
TEST(TraceStream, MidTraceErrorKeepsAbsoluteLineNumber) {
  const std::string path = TempPath("afraid_stream_midline.txt");
  std::string text = "# afraid-trace v1\n# name broken\n";
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i * 1000) + " R 0 512\n";
  }
  text += "999999 Q 0 512\n";  // Line 203: bad op letter.
  WriteFileBytes(path, text);

  Trace mono;
  const TraceStatus mono_st = LoadTraceFile(path, &mono);
  ASSERT_FALSE(mono_st.ok);
  ASSERT_EQ(mono_st.line, 203);

  StreamOptions opts;
  opts.chunk_bytes = 128;
  TraceChunkReader reader(path, opts);
  uint64_t before_error = 0;
  while (reader.Next()) {
    before_error += reader.chunk().records.size();
  }
  EXPECT_FALSE(reader.status().ok);
  EXPECT_EQ(reader.status().line, mono_st.line);
  EXPECT_EQ(reader.status().message, mono_st.message);
  // Everything before the bad line was still delivered.
  EXPECT_EQ(before_error, 200u);
  std::remove(path.c_str());
}

TEST(TraceStream, MissingFileReportsOpenError) {
  TraceChunkReader reader(TempPath("afraid_no_such_trace.txt"));
  EXPECT_FALSE(reader.Next());
  EXPECT_FALSE(reader.status().ok);
  EXPECT_EQ(reader.status().line, 0);
}

// The "# tenants N" header round-trips through record + stream.
TEST(TraceStream, TenantsHeaderRoundTrips) {
  const std::string path = TempPath("afraid_stream_tenants.txt");
  Trace t;
  t.name = "fleet mix";
  t.tenants = 37;
  t.records = {{0, 0, 512, false}, {5, 8192, 512, true}};
  ASSERT_TRUE(RecordTrace(t, path).ok);

  TraceChunkReader reader(path);
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.name(), "fleet mix");
  EXPECT_EQ(reader.tenants(), 37);
  EXPECT_FALSE(reader.Next());
  EXPECT_TRUE(reader.status().ok);

  Trace mono;
  ASSERT_TRUE(LoadTraceFile(path, &mono).ok);
  EXPECT_EQ(mono.tenants, 37);
  std::remove(path.c_str());
}

// Fixed memory: the reader's high-water mark is bounded by a small multiple
// of the chunk size and does not grow when the trace gets 8x longer.
TEST(TraceStream, PeakBufferBoundedByChunkNotTraceLength) {
  WorkloadParams p = PaperWorkloads()[2];
  p.address_space_bytes = 1LL << 30;
  const std::string short_path = TempPath("afraid_stream_short.txt");
  const std::string long_path = TempPath("afraid_stream_long.txt");
  ASSERT_TRUE(RecordTrace(GenerateWorkload(p, 1000, Hours(24)), short_path).ok);
  ASSERT_TRUE(RecordTrace(GenerateWorkload(p, 8000, Hours(24)), long_path).ok);

  StreamOptions opts;
  opts.chunk_bytes = 4096;
  size_t peak_short = 0;
  size_t peak_long = 0;
  {
    TraceChunkReader reader(short_path, opts);
    while (reader.Next()) {
    }
    ASSERT_TRUE(reader.status().ok);
    peak_short = reader.peak_buffer_bytes();
  }
  {
    TraceChunkReader reader(long_path, opts);
    while (reader.Next()) {
    }
    ASSERT_TRUE(reader.status().ok);
    EXPECT_EQ(reader.records_read(), 8000u);
    EXPECT_GT(reader.chunks_read(), 10);
    peak_long = reader.peak_buffer_bytes();
  }
  // 8x the records, same bounded footprint (allow slack for allocator
  // rounding and per-chunk record counts that vary with line lengths).
  EXPECT_LE(peak_long, peak_short * 2);
  // And the footprint is a small multiple of the chunk size, not the file.
  EXPECT_LE(peak_long, opts.chunk_bytes * 16);
  std::remove(short_path.c_str());
  std::remove(long_path.c_str());
}

// WorkloadRecorder's byte format is exactly SerializeTrace's.
TEST(WorkloadRecorderTest, BytesMatchSerializeTrace) {
  Trace t = MediumTrace();
  t.tenants = 12;
  const std::string path = TempPath("afraid_recorder_bytes.txt");
  ASSERT_TRUE(RecordTrace(t, path).ok);

  std::ifstream in(path, std::ios::binary);
  std::string recorded((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(recorded, SerializeTrace(t));
  std::remove(path.c_str());
}

// Tiny write buffers force many flushes; bytes must be unchanged.
TEST(WorkloadRecorderTest, TinyBufferFlushesKeepBytes) {
  const Trace t = MediumTrace();
  const std::string path = TempPath("afraid_recorder_tinybuf.txt");
  {
    WorkloadRecorder rec(path, /*buffer_bytes=*/1);
    ASSERT_TRUE(rec.ok());
    rec.SetName(t.name);
    for (const TraceRecord& r : t.records) {
      rec.Append(r);
    }
    ASSERT_TRUE(rec.Close());
    EXPECT_EQ(rec.records(), t.records.size());
  }
  std::ifstream in(path, std::ios::binary);
  std::string recorded((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(recorded, SerializeTrace(t));
  std::remove(path.c_str());
}

TEST(WorkloadRecorderTest, UnwritablePathReportsError) {
  const TraceStatus st = RecordTrace(Trace(), "/nonexistent-dir/x/trace.txt");
  EXPECT_FALSE(st.ok);
}

// ScanTraceChunk append semantics: feeding a serialized trace in two windows
// equals one ParseTraceText, with absolute line numbers across the seam.
TEST(TraceStream, ScanTraceChunkAppendsWithAbsoluteLines) {
  const Trace t = MediumTrace();
  const std::string text = SerializeTrace(t);
  // Split at a line boundary near the middle.
  const size_t cut = text.find('\n', text.size() / 2) + 1;
  const std::string_view first(text.data(), cut);
  const std::string_view second(text.data() + cut, text.size() - cut);

  Trace out;
  int64_t next_line = 1;
  ASSERT_TRUE(ScanTraceChunk(first, next_line, &out, &next_line).ok);
  const size_t after_first = out.records.size();
  ASSERT_TRUE(ScanTraceChunk(second, next_line, &out, &next_line).ok);
  EXPECT_GT(after_first, 0u);
  EXPECT_GT(out.records.size(), after_first);
  ExpectSameRecords(out, t);

  Trace whole;
  ASSERT_TRUE(ParseTraceText(text, &whole).ok);
  ExpectSameRecords(out, whole);
}

}  // namespace
}  // namespace afraid
