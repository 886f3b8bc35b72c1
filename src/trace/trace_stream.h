// Streaming trace ingest: fixed-memory chunked reads over the text trace
// format, with double-buffered read-ahead.
//
// The monolithic path (LoadTraceFile) reads the whole file and scans it in
// place -- simple, but memory scales with trace length, which caps replay at
// what fits in RAM. TraceChunkReader instead pulls the file through a pair of
// fixed-size buffers: a prefetch thread (pure freads, no parsing, so the
// parse order stays deterministic) fills the next block while the caller
// parses the current one. Partial lines at a chunk boundary are carried into
// the next parse window, and the scanner is handed a running absolute line
// number, so diagnostics ("trace.txt:712934: malformed size field") are
// byte-identical to what a monolithic parse of the same file would report.
//
// Memory is O(chunk_bytes + longest line), independent of trace length.

#ifndef AFRAID_TRACE_TRACE_STREAM_H_
#define AFRAID_TRACE_TRACE_STREAM_H_

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "trace/trace.h"

namespace afraid {

struct StreamOptions {
  // Bytes of trace text ingested (and replayed) per chunk. The floor is one
  // line: a pathological line longer than a chunk grows the window until a
  // newline appears, then the window shrinks back.
  size_t chunk_bytes = 4u << 20;
};

class TraceChunkReader {
 public:
  explicit TraceChunkReader(const std::string& path,
                            const StreamOptions& opts = StreamOptions());
  ~TraceChunkReader();

  TraceChunkReader(const TraceChunkReader&) = delete;
  TraceChunkReader& operator=(const TraceChunkReader&) = delete;

  // Parses the next chunk of whole records into chunk(). Returns false at
  // end of file or on the first error -- check status() to tell them apart.
  // Chunks that contain only headers/comments are skipped internally, so a
  // true return always means chunk().records is non-empty. On a parse error
  // the records preceding the erroring line (exactly the prefix a monolithic
  // parse would have accepted) are delivered first; the call after that
  // returns false with the error in status().
  bool Next();

  // The records of the current chunk. Storage is reused across Next() calls.
  const Trace& chunk() const { return chunk_; }

  // Ok() until the first file or parse error; errors carry the same absolute
  // line numbers and messages as a monolithic LoadTraceFile of the file.
  const TraceStatus& status() const { return status_; }

  // Header metadata seen so far (headers precede records in the format).
  const std::string& name() const { return name_; }
  int32_t tenants() const { return tenants_; }

  int64_t chunks_read() const { return chunks_read_; }
  uint64_t records_read() const { return records_read_; }

  // High-water mark of all reader-owned memory: parse window + carry + block
  // + prefetch mailbox + the reused record vector. This is the "fixed" in
  // fixed-memory -- it must not grow with trace length, only with chunk size
  // (and the longest single line).
  size_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  void StartPrefetch();
  // Blocks until the next block of at most chunk_bytes is available and
  // swaps it into *dst; sets *at_eof / *read_err from the underlying fread.
  void TakeBlock(std::string* dst, bool* at_eof, bool* read_err);
  void FillBlock(std::string* dst, bool* at_eof, bool* read_err);
  void NotePeak();

  const size_t chunk_bytes_;
  std::FILE* file_ = nullptr;
  TraceStatus status_;
  Trace chunk_;
  std::string name_;
  int32_t tenants_ = 0;

  std::string window_;  // carry + fresh bytes, parsed up to its last newline.
  std::string carry_;   // partial trailing line awaiting the next chunk.
  std::string block_;   // scratch the next block is swapped into.
  int64_t next_line_ = 1;
  bool input_done_ = false;  // no more bytes will arrive from the file.
  bool finished_ = false;    // final window parsed; Next() is done.
  int64_t chunks_read_ = 0;
  uint64_t records_read_ = 0;
  size_t peak_buffer_bytes_ = 0;

  // Depth-1 prefetch mailbox (one block ready + one being parsed = double
  // buffering). The prefetch thread starts once the file is open.
  std::thread prefetch_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string ready_block_;
  bool ready_ = false;
  bool ready_eof_ = false;
  bool ready_err_ = false;
  bool stop_ = false;
};

}  // namespace afraid

#endif  // AFRAID_TRACE_TRACE_STREAM_H_
