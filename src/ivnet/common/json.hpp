// Minimal JSON writer for experiment reports — enough for the CLI and the
// benches to emit machine-readable results (objects, arrays, strings,
// numbers, booleans; UTF-8 passthrough with control-character escaping).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ivnet {

/// Escape a string for inclusion inside JSON quotes.
std::string json_escape(std::string_view text);

/// Flat-field scanner, not a parser: the first number following `"key":`
/// anywhere in `doc`, or `fallback` when the key is absent. Intended for
/// pulling known numeric fields back out of documents this writer emitted
/// (campaign cell results, metric snapshots); keys must be unique in `doc`.
double json_find_number(std::string_view doc, std::string_view key,
                        double fallback);

/// Flat-field scanner for string values: the content of the first
/// `"key":"..."` in `doc` with basic escapes (\\, \", \n, \t, ...) undone,
/// or `fallback` when the key is absent or not followed by a string. Same
/// contract as json_find_number: keys must be unique in `doc`.
std::string json_find_string(std::string_view doc, std::string_view key,
                             std::string_view fallback);

/// Streaming JSON writer with explicit begin/end nesting.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("gain").value(85.2);
///   w.key("series").begin_array().value(1).value(2).end_array();
///   w.end_object();
///   std::string out = w.str();
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key (must be inside an object).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(int number);
  JsonWriter& value(std::size_t number);
  JsonWriter& value(bool flag);

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

  /// The serialized document. Valid once all containers are closed.
  const std::string& str() const { return out_; }

  /// True when every begin_* has been matched by an end_*.
  bool complete() const { return stack_.empty() && !out_.empty(); }

 private:
  void comma_if_needed();

  enum class Frame { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  std::vector<bool> first_;  // parallel to stack_: next item is the first?
};

}  // namespace ivnet
