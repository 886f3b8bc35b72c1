// Minimal JSON support for the observability layer: a streaming writer used
// by every artifact serializer (report.json, metrics.jsonl, trace.json). The
// tests parse those artifacts back with tests/obs/json_reader.h.
//
// The writer emits non-finite doubles as the bare literals Infinity /
// -Infinity / NaN (the availability model legitimately produces infinite
// MTTDLs). Python's json module and the tests' reader both accept them;
// strictly-conforming consumers should treat report fields as possibly
// non-finite.

#ifndef AFRAID_OBS_JSON_H_
#define AFRAID_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace afraid {

// --- Writer -------------------------------------------------------------------

// Streaming JSON writer with automatic comma placement. Usage:
//   JsonWriter w;
//   w.BeginObject().Key("requests").Value(int64_t{42}).EndObject();
//   std::string out = std::move(w).Take();
// The caller is responsible for well-formed nesting (asserted in debug).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& Value(std::string_view s);
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }
  JsonWriter& Value(double d);
  JsonWriter& Value(int64_t i);
  JsonWriter& Value(uint64_t u);
  JsonWriter& Value(int32_t i) { return Value(static_cast<int64_t>(i)); }
  JsonWriter& Value(bool b);
  JsonWriter& Null();
  // Appends pre-serialized JSON verbatim (e.g. a nested object built earlier).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  void MaybeComma();
  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool pending_key_ = false;
};

// Escapes `s` into a double-quoted JSON string literal.
std::string JsonEscape(std::string_view s);

}  // namespace afraid

#endif  // AFRAID_OBS_JSON_H_
