// The JSON reader the tests parse observability artifacts back with: a
// small recursive-descent parser over the output of obs/json.h's JsonWriter
// (report.json, metrics.jsonl, trace.json). It accepts the writer's
// non-finite literals (Infinity, -Infinity, NaN).

#ifndef AFRAID_TESTS_OBS_JSON_READER_H_
#define AFRAID_TESTS_OBS_JSON_READER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace afraid {

// A parsed JSON value. Arrays/objects own their children; object key order is
// preserved (Get() does a linear scan -- artifacts are small).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  int64_t AsInt() const { return static_cast<int64_t>(number_); }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& Items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& Members() const {
    return members_;
  }

  // Object member lookup; nullptr if absent or not an object.
  const JsonValue* Get(std::string_view key) const;
  // Convenience: Get(key)->AsDouble() with a default for absent members.
  double GetNumber(std::string_view key, double fallback = 0.0) const;
  std::string GetString(std::string_view key, std::string fallback = "") const;

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses `text` into *out. Returns false (with a position/diagnostic in
// *error if non-null) on malformed input. Accepts the writer's non-finite
// literals (Infinity, -Infinity, NaN).
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

}  // namespace afraid

#endif  // AFRAID_TESTS_OBS_JSON_READER_H_
