#include "trace/trace_stream.h"

#include <algorithm>
#include <cstring>
#include <string_view>

namespace afraid {

namespace {

// Room past one chunk for the partial line a window carries into the next:
// a record line of the format is at most about 60 bytes, so the steady state
// never grows the buffer.
constexpr size_t kLineBytes = 256;

}  // namespace

TraceChunkReader::TraceChunkReader(const std::string& path,
                                   const StreamOptions& opts)
    : chunk_bytes_(std::max<size_t>(opts.chunk_bytes, 64)) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    // Same message (and line 0) as the monolithic LoadTraceFile.
    status_ = TraceStatus::Error(0, "cannot open trace file");
    input_done_ = true;
    finished_ = true;
    return;
  }
  capacity_ = chunk_bytes_ + kLineBytes;
  buf_ = std::make_unique_for_overwrite<char[]>(capacity_);
}

TraceChunkReader::~TraceChunkReader() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void TraceChunkReader::ReadBlock() {
  if (len_ + chunk_bytes_ > capacity_) {
    // A line longer than the slack: grow geometrically until it fits.
    capacity_ = std::max(len_ + chunk_bytes_, 2 * capacity_);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity_);
    std::memcpy(grown.get(), buf_.get(), len_);
    buf_ = std::move(grown);
  }
  const size_t got = std::fread(buf_.get() + len_, 1, chunk_bytes_, file_);
  len_ += got;
  if (std::ferror(file_) != 0) {
    status_ = TraceStatus::Error(0, "error reading trace file");
    finished_ = true;
  } else if (got < chunk_bytes_) {
    input_done_ = true;
  }
}

bool TraceChunkReader::Next() {
  while (status_.ok && !finished_) {
    // Append blocks after the carried partial line until the window contains
    // a newline (normally one block; more only for a line longer than a
    // chunk) or the file ends. The carry never contains a newline.
    size_t search_from = len_;
    while (!input_done_ && std::memchr(buf_.get() + search_from, '\n',
                                       len_ - search_from) == nullptr) {
      search_from = len_;
      ReadBlock();
      if (finished_) {
        return false;
      }
    }

    // Parse up to the last newline; carry the tail. At end of file the final
    // partial line (a file with no trailing newline) is parsed as-is.
    const std::string_view window(buf_.get(), len_);
    const size_t parse_len = input_done_ ? len_ : window.rfind('\n') + 1;

    chunk_.name.clear();
    chunk_.tenants = 0;
    chunk_.records.clear();
    status_ = ScanTraceChunk(window.substr(0, parse_len), next_line_, &chunk_,
                             &next_line_);
    len_ -= parse_len;
    std::memmove(buf_.get(), buf_.get() + parse_len, len_);
    peak_buffer_bytes_ =
        std::max(peak_buffer_bytes_,
                 capacity_ + chunk_.records.capacity() * sizeof(TraceRecord));
    if (!chunk_.name.empty()) {
      name_ = chunk_.name;
    }
    if (chunk_.tenants > 0) {
      tenants_ = chunk_.tenants;
    }
    if (!status_.ok) {
      // Deliver the records scanned before the erroring line -- the replay
      // prefix matches what a monolithic parse would have accepted -- and
      // report the sticky error on the next call.
      finished_ = true;
      if (!chunk_.records.empty()) {
        ++chunks_read_;
        records_read_ += chunk_.records.size();
        return true;
      }
      return false;
    }
    if (input_done_) {
      finished_ = true;
    }
    if (!chunk_.records.empty()) {
      ++chunks_read_;
      records_read_ += chunk_.records.size();
      return true;
    }
    // Header/comment-only window: keep reading.
  }
  return false;
}

}  // namespace afraid
