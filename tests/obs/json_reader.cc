#include "json_reader.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace afraid {

const JsonValue* JsonValue::Get(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : fallback;
}

std::string JsonValue::GetString(std::string_view key, std::string fallback) const {
  const JsonValue* v = Get(key);
  return v != nullptr && v->is_string() ? v->AsString() : std::move(fallback);
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    if (!ParseValue(out)) {
      if (error != nullptr) {
        *error = error_ + " at offset " + std::to_string(pos_);
      }
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      if (error != nullptr) {
        *error = "trailing data at offset " + std::to_string(pos_);
      }
      return false;
    }
    return true;
  }

 private:
  bool Fail(const char* why) {
    if (error_.empty()) {
      error_ = why;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Literal("true") || Fail("bad literal");
      case 'f':
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Literal("false") || Fail("bad literal");
      case 'n':
        out->type_ = JsonValue::Type::kNull;
        return Literal("null") || Fail("bad literal");
      case 'N':
        out->type_ = JsonValue::Type::kNumber;
        out->number_ = std::nan("");
        return Literal("NaN") || Fail("bad literal");
      case 'I':
        out->type_ = JsonValue::Type::kNumber;
        out->number_ = HUGE_VAL;
        return Literal("Infinity") || Fail("bad literal");
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type_ = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return Fail("expected object key");
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipWs();
      JsonValue child;
      if (!ParseValue(&child)) {
        return false;
      }
      out->members_.emplace_back(std::move(key), std::move(child));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue child;
      if (!ParseValue(&child)) {
        return false;
      }
      out->items_.push_back(std::move(child));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("bad \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // by our artifacts; encode them as-is).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    out->type_ = JsonValue::Type::kNumber;
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
      if (Literal("Infinity")) {
        out->number_ = text_[start] == '-' ? -HUGE_VAL : HUGE_VAL;
        return true;
      }
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number_ = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Fail("malformed number");
    }
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return JsonParser(text).Parse(out, error);
}

}  // namespace afraid
