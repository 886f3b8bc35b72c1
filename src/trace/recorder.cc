#include "trace/recorder.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>

namespace afraid {

WorkloadRecorder::WorkloadRecorder(const std::string& path,
                                   size_t buffer_bytes)
    : buffer_bytes_(std::max<size_t>(buffer_bytes, 4096)) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = TraceStatus::Error(0, "cannot open trace file for writing");
    return;
  }
  buf_.reserve(buffer_bytes_ + 128);
  static constexpr char kHeader[] = "# afraid-trace v1\n";
  Emit(kHeader, sizeof(kHeader) - 1);
}

WorkloadRecorder::~WorkloadRecorder() { Close(); }

void WorkloadRecorder::Emit(const char* data, size_t n) {
  if (!status_.ok) {
    return;
  }
  buf_.append(data, n);
  if (buf_.size() >= buffer_bytes_) {
    Flush();
  }
}

void WorkloadRecorder::Flush() {
  if (!status_.ok || buf_.empty()) {
    return;
  }
  const size_t wrote = std::fwrite(buf_.data(), 1, buf_.size(), file_);
  if (wrote != buf_.size()) {
    status_ = TraceStatus::Error(0, "error writing trace file");
  }
  buf_.clear();
}

void WorkloadRecorder::SetName(std::string_view name) {
  std::string line = "# name ";
  line.append(name);
  line += '\n';
  Emit(line.data(), line.size());
}

void WorkloadRecorder::SetTenants(int32_t tenants) {
  if (tenants <= 0) {
    return;
  }
  char line[48];
  const int n =
      std::snprintf(line, sizeof(line), "# tenants %" PRId32 "\n", tenants);
  Emit(line, static_cast<size_t>(n));
}

void WorkloadRecorder::Append(const TraceRecord& r) {
  // "<time> <R|W> <offset> <size>\n"; each field gets room for its widest
  // value (20 chars for an int64, 11 for an int32), 56 bytes in all.
  char line[64];
  char* p = std::to_chars(line, line + 20, r.time).ptr;
  *p++ = ' ';
  *p++ = r.is_write ? 'W' : 'R';
  *p++ = ' ';
  p = std::to_chars(p, p + 20, r.offset).ptr;
  *p++ = ' ';
  p = std::to_chars(p, p + 11, r.size).ptr;
  *p++ = '\n';
  Emit(line, static_cast<size_t>(p - line));
  ++records_;
}

bool WorkloadRecorder::Close() {
  if (file_ == nullptr) {
    return status_.ok;
  }
  Flush();
  if (std::fclose(file_) != 0 && status_.ok) {
    status_ = TraceStatus::Error(0, "error writing trace file");
  }
  file_ = nullptr;
  return status_.ok;
}

TraceStatus RecordTrace(const Trace& trace, const std::string& path) {
  WorkloadRecorder rec(path);
  rec.SetName(trace.name);
  rec.SetTenants(trace.tenants);
  for (const TraceRecord& r : trace.records) {
    rec.Append(r);
  }
  rec.Close();
  return rec.status();
}

}  // namespace afraid
