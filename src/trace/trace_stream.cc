#include "trace/trace_stream.h"

#include <algorithm>
#include <cstring>

namespace afraid {

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
  StartPrefetch();
}

TraceChunkReader::~TraceChunkReader() {
  if (prefetch_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    prefetch_.join();
  }
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void TraceChunkReader::FillBlock(std::string* dst, bool* at_eof,
                                 bool* read_err) {
  dst->resize(chunk_bytes_);
  const size_t got = std::fread(dst->data(), 1, chunk_bytes_, file_);
  dst->resize(got);
  *read_err = std::ferror(file_) != 0;
  *at_eof = !*read_err && got < chunk_bytes_;
}

void TraceChunkReader::StartPrefetch() {
  prefetch_ = std::thread([this] {
    std::string local;
    for (;;) {
      bool eof = false;
      bool err = false;
      FillBlock(&local, &eof, &err);
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !ready_ || stop_; });
        if (stop_) {
          return;
        }
        ready_block_.swap(local);
        ready_ = true;
        ready_eof_ = eof;
        ready_err_ = err;
      }
      cv_.notify_all();
      if (eof || err) {
        return;  // The final (possibly empty) block has been delivered.
      }
    }
  });
}

void TraceChunkReader::TakeBlock(std::string* dst, bool* at_eof,
                                 bool* read_err) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return ready_; });
  dst->swap(ready_block_);
  *at_eof = ready_eof_;
  *read_err = ready_err_;
  ready_ = false;
  lock.unlock();
  cv_.notify_all();
}

void TraceChunkReader::NotePeak() {
  size_t mailbox = 0;
  {
    // The prefetch thread swaps blocks into the mailbox under mu_.
    std::lock_guard<std::mutex> lock(mu_);
    mailbox = ready_block_.capacity();
  }
  const size_t now = window_.capacity() + carry_.capacity() +
                     block_.capacity() + mailbox +
                     chunk_.records.capacity() * sizeof(TraceRecord);
  peak_buffer_bytes_ = std::max(peak_buffer_bytes_, now);
}

bool TraceChunkReader::Next() {
  while (status_.ok && !finished_) {
    // Assemble the parse window: the carried partial line, then fresh blocks
    // until the window contains a newline (normally one block; more only for
    // a pathological line longer than a chunk) or the file ends.
    window_.clear();
    window_.append(carry_);  // Copy, not swap: both keep their capacity.
    carry_.clear();
    size_t search_from = 0;  // The carry never contains a newline.
    while (!input_done_ &&
           window_.find('\n', search_from) == std::string::npos) {
      search_from = window_.size();
      bool at_eof = false;
      bool read_err = false;
      TakeBlock(&block_, &at_eof, &read_err);
      window_.append(block_);
      if (read_err) {
        status_ = TraceStatus::Error(0, "error reading trace file");
        finished_ = true;
        return false;
      }
      if (at_eof) {
        input_done_ = true;
      }
    }

    // Parse up to the last newline; carry the tail. At end of file the final
    // partial line (a file with no trailing newline) is parsed as-is.
    size_t parse_len = window_.size();
    if (!input_done_) {
      const size_t last_nl = window_.rfind('\n');
      parse_len = last_nl + 1;  // A newline is guaranteed by the loop above.
      carry_.assign(window_, parse_len, std::string::npos);
    }

    chunk_.name.clear();
    chunk_.tenants = 0;
    chunk_.records.clear();
    status_ = ScanTraceChunk(std::string_view(window_.data(), parse_len),
                             next_line_, &chunk_, &next_line_);
    NotePeak();
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
