// Minimal JSON reader for the repo's few JSON inputs: fuzz repro files,
// churn scenarios and matrix specs.
//
// The library's other JSON needs are write-only (telemetry, traces), so
// the repo deliberately carries no general-purpose parser. This one
// supports exactly the subset those inputs use (objects, arrays, strings
// with simple escapes, finite numbers, true/false/null) and throws
// std::runtime_error with a byte offset on anything else. 64-bit seeds are stored as strings
// ("0x..."), never as numbers, so no precision is lost to double.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fedms::core {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses one JSON document (trailing garbage is an error). Throws
  // std::runtime_error with the byte offset of the problem.
  static Json parse(const std::string& text);

  Type type() const { return type_; }

  // Typed accessors; each throws std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  // Unsigned 64-bit from a string field ("0x..." or decimal).
  std::uint64_t as_u64() const;
  // Number narrowed to size_t; throws if negative or non-integral.
  std::size_t as_size() const;

  const std::vector<Json>& items() const;  // array elements
  // Object lookup: nullptr when absent / at() throws when absent.
  const Json* find(const std::string& key) const;
  const Json& at(const std::string& key) const;
  // Object members in document order. Keys are unique (the parser rejects
  // duplicates) — this is how strict schema validators reject unknown keys.
  const std::vector<std::pair<std::string, Json>>& members() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  friend class JsonParser;
};

// Escapes a string for embedding in a JSON document (adds no quotes).
std::string json_escape(const std::string& text);

// Shortest round-trippable formatting for a double (%.17g, trimmed),
// identical under every fenv rounding mode; "null" when not finite (JSON
// has no NaN or Infinity).
std::string json_double(double value);

// C99 hexfloat ("%a"): exact text for a double in both directions, under
// every fenv rounding mode (decimal snprintf/strtod obey the ambient mode,
// so 0.3 prints as 0.299999 under FE_TOWARDZERO). For doubles that must
// reach another process bit for bit: node reports and child argv.
std::string exact_double(double value);

}  // namespace fedms::core
