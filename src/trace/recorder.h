// Workload recording: the inverse of trace ingest. Serializes any stream of
// TraceRecords to the text trace format ("# afraid-trace v1" header, one
// "<time_ns> <R|W> <offset> <size>" line per record) through a fixed-size
// write buffer, so synthetic workloads of any length can be pinned to disk
// and replayed -- loaded whole or streamed -- through the one pipeline.
//
// The byte format is exactly SerializeTrace's: recording a Trace and writing
// SerializeTrace(trace) to a file produce identical bytes (tested).

#ifndef AFRAID_TRACE_RECORDER_H_
#define AFRAID_TRACE_RECORDER_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "trace/trace.h"

namespace afraid {

class WorkloadRecorder {
 public:
  // Opens `path` for writing and emits the format header. Check ok().
  explicit WorkloadRecorder(const std::string& path,
                            size_t buffer_bytes = 1u << 20);
  ~WorkloadRecorder();  // Closes (flushing) if Close() was not called.

  WorkloadRecorder(const WorkloadRecorder&) = delete;
  WorkloadRecorder& operator=(const WorkloadRecorder&) = delete;

  bool ok() const { return status_.ok; }
  const TraceStatus& status() const { return status_; }

  // Header lines. Call before the first Append so readers -- which apply a
  // header wherever it appears but report metadata as "seen so far" -- see
  // them up front. SetName is emitted unconditionally by the format; call it
  // even with an empty name to match SerializeTrace bytes (the constructor
  // does NOT emit it, so the caller controls the name value).
  void SetName(std::string_view name);
  void SetTenants(int32_t tenants);  // Emitted only when positive.

  void Append(const TraceRecord& r);

  // Flushes and closes the file; returns overall success. Idempotent.
  bool Close();

  uint64_t records() const { return records_; }

 private:
  void Emit(const char* data, size_t n);
  void Flush();

  std::FILE* file_ = nullptr;
  TraceStatus status_;
  std::string buf_;
  size_t buffer_bytes_;
  uint64_t records_ = 0;
};

// Convenience one-shot: record a whole in-memory trace (name, tenants when
// positive, records) to `path`.
TraceStatus RecordTrace(const Trace& trace, const std::string& path);

}  // namespace afraid

#endif  // AFRAID_TRACE_RECORDER_H_
