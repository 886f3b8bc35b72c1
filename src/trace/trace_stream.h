// Streaming trace ingest: fixed-memory chunked reads over the text trace
// format, through one read buffer.
//
// The monolithic path (LoadTraceFile) reads the whole file and scans it in
// place -- simple, but memory scales with trace length, which caps replay at
// what fits in RAM. TraceChunkReader instead pulls the file through a single
// buffer, allocated once: the partial line carried from the previous chunk
// sits at the front, the next chunk_bytes of the file are freaded after it,
// the scanner parses in place up to the last newline, and the new partial
// tail is moved to the front for the next call. Reads happen on the caller's
// thread; the kernel's sequential readahead is the only prefetch. The
// scanner is handed a running absolute line number, so diagnostics
// ("trace.txt:712934: malformed size field") are byte-identical to what a
// monolithic parse of the same file would report.
//
// Memory is one chunk plus the longest line, plus the parsed records of one
// chunk, independent of trace length.

#ifndef AFRAID_TRACE_TRACE_STREAM_H_
#define AFRAID_TRACE_TRACE_STREAM_H_

#include <cstdio>
#include <memory>
#include <string>

#include "trace/trace.h"

namespace afraid {

struct StreamOptions {
  // Bytes of trace text ingested (and replayed) per chunk. The floor is one
  // line: a pathological line longer than a chunk grows the window until a
  // newline appears.
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

  // High-water mark of all reader-owned memory: the read buffer plus the
  // reused record vector. This is the "fixed" in fixed-memory -- it must not
  // grow with trace length, only with chunk size (and the longest line).
  size_t peak_buffer_bytes() const { return peak_buffer_bytes_; }

 private:
  // Appends the next at most chunk_bytes of the file after the len_ bytes
  // already in the buffer, growing it only when they do not fit.
  void ReadBlock();

  const size_t chunk_bytes_;
  std::FILE* file_ = nullptr;
  TraceStatus status_;
  Trace chunk_;
  std::string name_;
  int32_t tenants_ = 0;

  // The parse window: the carried partial line (no newline), then fresh
  // bytes. len_ bytes are valid; capacity_ is one chunk plus a line.
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t len_ = 0;
  int64_t next_line_ = 1;
  bool input_done_ = false;  // no more bytes will arrive from the file.
  bool finished_ = false;    // final window parsed; Next() is done.
  int64_t chunks_read_ = 0;
  uint64_t records_read_ = 0;
  size_t peak_buffer_bytes_ = 0;
};

}  // namespace afraid

#endif  // AFRAID_TRACE_TRACE_STREAM_H_
