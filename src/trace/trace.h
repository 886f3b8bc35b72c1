// I/O trace records: the unit of workload in all experiments.
//
// A trace is an open-loop arrival schedule: each record carries the wall time
// at which the client issued the request, independent of when earlier
// requests complete. The paper stresses that its traces are replayed open
// loop ("given that we are using an open-queueing, trace-driven workload"),
// so queueing delay is fully visible in the measured I/O times.

#ifndef AFRAID_TRACE_TRACE_H_
#define AFRAID_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace afraid {

struct TraceRecord {
  SimTime time = 0;          // Arrival (issue) time.
  int64_t offset = 0;        // Byte offset into the array's logical space.
  int32_t size = 0;          // Bytes; positive, sector-aligned.
  bool is_write = false;
};

struct Trace {
  std::string name;
  // Tenant-stream count ("# tenants N" header) for traces recorded from a
  // fleet workload; 0 when the trace carries no tenant metadata.
  int32_t tenants = 0;
  std::vector<TraceRecord> records;

  bool Empty() const { return records.empty(); }
  size_t Size() const { return records.size(); }
  SimTime Duration() const { return records.empty() ? 0 : records.back().time; }
};

// Simple arrival-side statistics of a trace (no simulation involved).
struct TraceStats {
  uint64_t requests = 0;
  uint64_t writes = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  double mean_size_bytes = 0.0;
  double mean_interarrival_ms = 0.0;
  double write_fraction = 0.0;
  // Fraction of the trace duration lying in arrival gaps longer than 100 ms:
  // a cheap burstiness proxy (idle time available to an AFRAID rebuilder).
  double idle_fraction_100ms = 0.0;
};

TraceStats ComputeTraceStats(const Trace& trace);

// Text serialisation. Format: '#'-prefixed comment/header lines, then one
// record per line: "<time_ns> <R|W> <offset_bytes> <size_bytes>".
std::string SerializeTrace(const Trace& trace);

// Outcome of parsing or loading a trace: success, or a diagnostic carrying
// the 1-based line number of the offending record (0 for file-level errors
// such as a missing file) and a human-readable message.
struct TraceStatus {
  bool ok = true;
  int64_t line = 0;
  std::string message;

  static TraceStatus Ok() { return TraceStatus{}; }
  static TraceStatus Error(int64_t line, std::string message) {
    return TraceStatus{false, line, std::move(message)};
  }
  // "trace.txt:12: malformed size field" -- for surfacing to users.
  std::string Format(const std::string& source) const;
};

// The fast scanner: a hand-rolled integer/decimal parser over the in-memory
// text, no streams and no per-line string allocation. Populates *out and
// returns Ok(), or a TraceStatus naming the first malformed line. Strictly
// validates each record (unlike the stream parser, trailing junk after the
// size field is an error, not silently ignored).
TraceStatus ParseTraceText(std::string_view text, Trace* out);

// Chunk-mode entry to the same scanner, used by the streaming reader
// (trace_stream.h): appends the records of `text` to out->records WITHOUT
// clearing them, numbering diagnostics from `first_line` so a chunked parse
// reports the same file-absolute line as a monolithic one. `text` must
// contain only whole lines (the reader carries partial tails across chunk
// boundaries), except that the final chunk of a file may end mid-line.
// Header lines ("# name", "# tenants") still apply wherever they appear.
// On success *next_line receives the first_line value for the next chunk.
TraceStatus ScanTraceChunk(std::string_view text, int64_t first_line,
                           Trace* out, int64_t* next_line);

// Zero-copy ingest: loads the whole file with a single read into an owned
// buffer, then runs the fast scanner over it. File-level failures (missing
// file, short read) report with line 0.
TraceStatus LoadTraceFile(const std::string& path, Trace* out);

// Compatibility wrappers over the fast path; return false on any error.
bool ParseTrace(const std::string& text, Trace* out);
bool WriteTraceFile(const std::string& path, const Trace& trace);
bool ReadTraceFile(const std::string& path, Trace* out);

}  // namespace afraid

#endif  // AFRAID_TRACE_TRACE_H_
