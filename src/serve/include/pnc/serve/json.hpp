#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pnc::serve {

/// Minimal JSON value + recursive-descent parser for the pnc_serve NDJSON
/// protocol (one object per line). Supports the full JSON grammar except
/// \uXXXX escapes beyond Latin-1; numbers parse as double. Not a general
/// purpose library — the server protocol and the load generator are the
/// only intended users.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object member, or nullptr if absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  /// Convenience lookups with defaults for optional protocol fields.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;

  /// Parse one JSON document; throws std::runtime_error with a byte offset
  /// on malformed input, including trailing garbage.
  static JsonValue parse(std::string_view text);

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Escape a string for embedding in a JSON document (adds no quotes).
std::string json_escape(const std::string& raw);

}  // namespace pnc::serve
