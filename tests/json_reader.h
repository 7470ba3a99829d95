#ifndef CTFL_TESTS_JSON_READER_H_
#define CTFL_TESTS_JSON_READER_H_

// Minimal recursive-descent JSON reader for the tests' round trips of the
// library's JSON writers: RunReport parse-back, metrics snapshot (JSONL)
// lines and BENCH_*.json inspection. Parses the JSON subset those writers
// emit (objects, arrays, strings with standard escapes, numbers, booleans,
// null). Numbers are kept both as a double (strtod — bit-exact for the
// %.17g writers) and as the raw source text so integer callers can reparse
// without double-rounding.

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "ctfl/util/result.h"
#include "ctfl/util/string_util.h"

namespace ctfl {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;

  bool boolean = false;
  double number = 0.0;
  std::string raw_number;  ///< source text of the number token
  std::string string;
  std::vector<JsonValue> array;
  /// Insertion-ordered key/value pairs (JSON objects may repeat keys;
  /// Find returns the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Integer view of a number token (strtoll on the raw text; falls back
  /// to a cast of the double for exponent forms).
  int64_t AsInt64() const;
};

namespace json_reader {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    CTFL_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("json: %s at offset %zu", message.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(StrFormat("expected '%c'", c));
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      }
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        return ParseNull(out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out) {
    CTFL_RETURN_IF_ERROR(Expect('{'));
    out->kind = JsonValue::Kind::kObject;
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      CTFL_RETURN_IF_ERROR(ParseString(&key));
      CTFL_RETURN_IF_ERROR(Expect(':'));
      JsonValue value;
      CTFL_RETURN_IF_ERROR(ParseValue(&value));
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume('}')) return Status::OK();
      CTFL_RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseArray(JsonValue* out) {
    CTFL_RETURN_IF_ERROR(Expect('['));
    out->kind = JsonValue::Kind::kArray;
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue value;
      CTFL_RETURN_IF_ERROR(ParseValue(&value));
      out->array.push_back(std::move(value));
      if (Consume(']')) return Status::OK();
      CTFL_RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
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
              return Error("bad \\u escape digit");
            }
          }
          // Our writers only emit \u00xx for control bytes; decode the
          // low byte and pass anything wider through UTF-8-ly enough for
          // a round trip of what we write.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseBool(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return Status::OK();
    }
    return Error("expected boolean");
  }

  Status ParseNull(JsonValue* out) {
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return Status::OK();
    }
    return Error("expected null");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    out->kind = JsonValue::Kind::kNumber;
    out->raw_number = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(out->raw_number.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace json_reader

inline const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

inline int64_t JsonValue::AsInt64() const {
  if (!raw_number.empty() && raw_number.find_first_of(".eE") ==
                                 std::string::npos) {
    char* end = nullptr;
    const long long v = std::strtoll(raw_number.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<int64_t>(v);
  }
  return static_cast<int64_t>(number);
}

/// Parses one JSON document; trailing non-whitespace is an error.
inline Result<JsonValue> ParseJson(const std::string& text) {
  return json_reader::Parser(text).Parse();
}

}  // namespace ctfl

#endif  // CTFL_TESTS_JSON_READER_H_
