#include "core/json_min.h"

#include <cctype>
#include <cfenv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/rounding.h"

namespace fedms::core {

namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::runtime_error("json parse error at byte " +
                           std::to_string(offset) + ": " + what);
}

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json value is not a ") + wanted);
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return value;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_space();
    const char c = peek();
    Json value;
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      value.type_ = Json::Type::kString;
      value.string_ = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      value.type_ = Json::Type::kBool;
      value.bool_ = true;
      return value;
    }
    if (consume_literal("false")) {
      value.type_ = Json::Type::kBool;
      value.bool_ = false;
      return value;
    }
    if (consume_literal("null")) return value;
    if (c == '-' || (c >= '0' && c <= '9')) {
      // Decimal→binary conversion is rounding-mode-sensitive; a repro or
      // schedule file must parse to the same bits whatever fenv mode the
      // run executes under, so the conversion is pinned to nearest.
      const core::ScopedRoundingMode nearest(FE_TONEAREST);
      char* end = nullptr;
      value.type_ = Json::Type::kNumber;
      value.number_ = std::strtod(text_.c_str() + pos_, &end);
      if (end == text_.c_str() + pos_) fail(pos_, "bad number");
      pos_ = static_cast<std::size_t>(end - text_.c_str());
      return value;
    }
    fail(pos_, "unexpected character");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        default: fail(pos_ - 1, "unsupported escape");
      }
    }
  }

  Json parse_array() {
    expect('[');
    Json value;
    value.type_ = Json::Type::kArray;
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    for (;;) {
      value.array_.push_back(parse_value());
      skip_space();
      const char c = peek();
      ++pos_;
      if (c == ']') return value;
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json value;
    value.type_ = Json::Type::kObject;
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    for (;;) {
      skip_space();
      const std::size_t key_offset = pos_;
      std::string key = parse_string();
      for (const auto& [existing, unused] : value.object_)
        if (existing == key)
          fail(key_offset, "duplicate object key \"" + key + "\"");
      skip_space();
      expect(':');
      value.object_.emplace_back(std::move(key), parse_value());
      skip_space();
      const char c = peek();
      ++pos_;
      if (c == '}') return value;
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number");
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string");
  return string_;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::kString) type_error("u64 string");
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(string_.c_str(), &end, 0);
  if (end == string_.c_str() || *end != '\0')
    throw std::runtime_error("json string \"" + string_ +
                             "\" is not a u64");
  return value;
}

std::size_t Json::as_size() const {
  const double value = as_number();
  const auto narrowed = static_cast<std::size_t>(value);
  if (value < 0.0 || double(narrowed) != value)
    throw std::runtime_error("json number is not a non-negative integer");
  return narrowed;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) type_error("array");
  return array_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) type_error("object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = find(key);
  if (value == nullptr)
    throw std::runtime_error("json object is missing key \"" + key + "\"");
  return *value;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double value) {
  if (!std::isfinite(value)) return "null";
  // Both directions of the round-trip are pinned to nearest: snprintf's
  // binary→decimal shortening and the strtod check drift by one digit in
  // the last place under directed fenv modes, which would make a file
  // written under one mode parse to different bits under another.
  const core::ScopedRoundingMode nearest(FE_TONEAREST);
  char buffer[40];
  // Shortest representation that strtod round-trips exactly: try
  // increasing precision until the parse gives the bits back.
  for (int precision = 9; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string exact_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

}  // namespace fedms::core
