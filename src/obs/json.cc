#include "obs/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace afraid {

// --- Writer -------------------------------------------------------------------

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // Value completing a "key": pair; no comma.
  }
  if (!first_.empty()) {
    if (first_.back()) {
      first_.back() = false;
    } else {
      out_ += ',';
    }
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  assert(!first_.empty());
  first_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  assert(!first_.empty());
  first_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  assert(!pending_key_);
  MaybeComma();
  out_ += JsonEscape(key);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view s) {
  MaybeComma();
  out_ += JsonEscape(s);
  return *this;
}

JsonWriter& JsonWriter::Value(double d) {
  MaybeComma();
  if (std::isnan(d)) {
    out_ += "NaN";
  } else if (std::isinf(d)) {
    out_ += d > 0 ? "Infinity" : "-Infinity";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
  }
  return *this;
}

JsonWriter& JsonWriter::Value(int64_t i) {
  MaybeComma();
  out_ += std::to_string(i);
  return *this;
}

JsonWriter& JsonWriter::Value(uint64_t u) {
  MaybeComma();
  out_ += std::to_string(u);
  return *this;
}

JsonWriter& JsonWriter::Value(bool b) {
  MaybeComma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  MaybeComma();
  out_ += json;
  return *this;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace afraid
