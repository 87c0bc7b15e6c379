#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file json_value.h
/// A small JSON reader for the endpoint's responses (SPARQL results,
/// /stats, /update). The library only writes JSON, so the benchmark
/// brings its own reader.

namespace perfbench {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member `key` of an object, or nullptr.
  const JsonValue* Find(std::string_view key) const;
  /// Numeric member `key`, or `fallback` when absent or not a number.
  double Number(std::string_view key, double fallback = 0) const;
};

/// Parses a complete JSON document; nullopt on any syntax error.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace perfbench
