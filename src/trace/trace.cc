#include "trace/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

namespace afraid {

TraceStats ComputeTraceStats(const Trace& trace) {
  TraceStats s;
  s.requests = trace.records.size();
  if (trace.records.empty()) {
    return s;
  }
  int64_t total_bytes = 0;
  SimDuration idle_100ms = 0;
  SimTime prev = 0;
  for (const TraceRecord& r : trace.records) {
    if (r.is_write) {
      ++s.writes;
      s.bytes_written += r.size;
    } else {
      s.bytes_read += r.size;
    }
    total_bytes += r.size;
    const SimDuration gap = r.time - prev;
    if (gap > Milliseconds(100)) {
      idle_100ms += gap - Milliseconds(100);
    }
    prev = r.time;
  }
  s.mean_size_bytes = static_cast<double>(total_bytes) / static_cast<double>(s.requests);
  const SimDuration duration = trace.Duration();
  if (s.requests > 1 && duration > 0) {
    s.mean_interarrival_ms =
        ToMilliseconds(duration) / static_cast<double>(s.requests - 1);
    s.idle_fraction_100ms = static_cast<double>(idle_100ms) / static_cast<double>(duration);
  }
  s.write_fraction = static_cast<double>(s.writes) / static_cast<double>(s.requests);
  return s;
}

std::string SerializeTrace(const Trace& trace) {
  std::string out;
  out += "# afraid-trace v1\n";
  out += "# name " + trace.name + "\n";
  if (trace.tenants > 0) {
    out += "# tenants " + std::to_string(trace.tenants) + "\n";
  }
  char line[96];
  for (const TraceRecord& r : trace.records) {
    std::snprintf(line, sizeof(line), "%" PRId64 " %c %" PRId64 " %d\n", r.time,
                  r.is_write ? 'W' : 'R', r.offset, r.size);
    out += line;
  }
  return out;
}

std::string TraceStatus::Format(const std::string& source) const {
  if (ok) {
    return source + ": ok";
  }
  if (line <= 0) {
    return source + ": " + message;
  }
  return source + ":" + std::to_string(line) + ": " + message;
}

// --- The fast scanner ---------------------------------------------------------

namespace {

inline bool IsFieldSep(char c) { return c == ' ' || c == '\t'; }

// Consumes [ \t]+; false if no separator was present.
inline bool SkipSep(const char*& p, const char* end) {
  if (p >= end || !IsFieldSep(*p)) {
    return false;
  }
  do {
    ++p;
  } while (p < end && IsFieldSep(*p));
  return true;
}

// Decimal int64 with optional leading '-'. False on no digits or overflow.
inline bool ScanInt64(const char*& p, const char* end, int64_t* out) {
  bool neg = false;
  if (p < end && *p == '-') {
    neg = true;
    ++p;
  }
  if (p >= end || *p < '0' || *p > '9') {
    return false;
  }
  uint64_t v = 0;
  constexpr uint64_t kMax = static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  do {
    const uint64_t d = static_cast<uint64_t>(*p - '0');
    if (v > (kMax - d) / 10) {
      return false;
    }
    v = v * 10 + d;
    ++p;
  } while (p < end && *p >= '0' && *p <= '9');
  const auto sv = static_cast<int64_t>(v);
  *out = neg ? -sv : sv;
  return true;
}

}  // namespace

TraceStatus ParseTraceText(std::string_view text, Trace* out) {
  out->name.clear();
  out->tenants = 0;
  out->records.clear();
  // One reservation up front: at most one record per newline, so the record
  // vector never reallocates during the scan.
  out->records.reserve(
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  int64_t next_line = 0;
  return ScanTraceChunk(text, 1, out, &next_line);
}

TraceStatus ScanTraceChunk(std::string_view text, int64_t first_line,
                           Trace* out, int64_t* next_line) {
  const char* p = text.data();
  const char* const end = p + text.size();
  int64_t line_no = first_line - 1;
  while (p < end) {
    ++line_no;
    const char* eol = static_cast<const char*>(
        memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* line_end = eol != nullptr ? eol : end;
    if (line_end > p && line_end[-1] == '\r') {
      --line_end;
    }
    const char* next = eol != nullptr ? eol + 1 : end;
    if (p == line_end) {  // Empty line.
      p = next;
      continue;
    }
    if (*p == '#') {  // Comment / header line.
      const char* h = p + 1;
      SkipSep(h, line_end);
      const char* key_begin = h;
      while (h < line_end && !IsFieldSep(*h)) {
        ++h;
      }
      const std::string_view key(key_begin, static_cast<size_t>(h - key_begin));
      if (key == "name") {
        SkipSep(h, line_end);
        out->name.assign(h, static_cast<size_t>(line_end - h));
      } else if (key == "tenants") {
        SkipSep(h, line_end);
        int64_t tenants = 0;
        // Header lines are comments; a malformed value is ignored, not fatal.
        if (ScanInt64(h, line_end, &tenants) && tenants > 0 &&
            tenants <= std::numeric_limits<int32_t>::max()) {
          out->tenants = static_cast<int32_t>(tenants);
        }
      }
      p = next;
      continue;
    }

    // "<time> <R|W> <offset> <size>".
    TraceRecord r;
    SkipSep(p, line_end);
    if (!ScanInt64(p, line_end, &r.time)) {
      return TraceStatus::Error(line_no, "malformed time field");
    }
    if (!SkipSep(p, line_end) || p >= line_end) {
      return TraceStatus::Error(line_no, "truncated record (expected '<time> <R|W> <offset> <size>')");
    }
    const char op = *p++;
    if (op != 'R' && op != 'W') {
      return TraceStatus::Error(line_no, "malformed op field (expected R or W)");
    }
    if (!SkipSep(p, line_end) || p >= line_end) {
      return TraceStatus::Error(line_no, "truncated record (expected '<time> <R|W> <offset> <size>')");
    }
    if (!ScanInt64(p, line_end, &r.offset)) {
      return TraceStatus::Error(line_no, "malformed offset field");
    }
    if (!SkipSep(p, line_end) || p >= line_end) {
      return TraceStatus::Error(line_no, "truncated record (expected '<time> <R|W> <offset> <size>')");
    }
    int64_t size64 = 0;
    if (!ScanInt64(p, line_end, &size64) ||
        size64 > std::numeric_limits<int32_t>::max() ||
        size64 < std::numeric_limits<int32_t>::min()) {
      return TraceStatus::Error(line_no, "malformed size field");
    }
    r.size = static_cast<int32_t>(size64);
    SkipSep(p, line_end);
    if (p != line_end) {
      return TraceStatus::Error(line_no, "trailing characters after record");
    }
    if (r.time < 0) {
      return TraceStatus::Error(line_no, "negative time");
    }
    if (r.offset < 0) {
      return TraceStatus::Error(line_no, "negative offset");
    }
    if (r.size <= 0) {
      return TraceStatus::Error(line_no, "non-positive size");
    }
    r.is_write = (op == 'W');
    out->records.push_back(r);
    p = next;
  }
  *next_line = line_no + 1;
  return TraceStatus::Ok();
}

TraceStatus LoadTraceFile(const std::string& path, Trace* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return TraceStatus::Error(0, "cannot open trace file");
  }
  std::string buf;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long size = std::ftell(f);
    if (size > 0) {
      buf.resize(static_cast<size_t>(size));
    }
    std::rewind(f);
  }
  // Single read into the owned buffer; the scanner works in place on it.
  const size_t got = buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
  const bool read_ok = std::ferror(f) == 0 && got == buf.size();
  std::fclose(f);
  if (!read_ok) {
    return TraceStatus::Error(0, "error reading trace file");
  }
  return ParseTraceText(buf, out);
}

// --- Compatibility wrappers ---------------------------------------------------

bool ParseTrace(const std::string& text, Trace* out) {
  return ParseTraceText(text, out).ok;
}

bool WriteTraceFile(const std::string& path, const Trace& trace) {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) {
    return false;
  }
  f << SerializeTrace(trace);
  return static_cast<bool>(f);
}

bool ReadTraceFile(const std::string& path, Trace* out) {
  return LoadTraceFile(path, out).ok;
}

}  // namespace afraid
