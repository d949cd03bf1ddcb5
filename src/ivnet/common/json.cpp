#include "ivnet/common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ivnet {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

double json_find_number(std::string_view doc, std::string_view key,
                        double fallback) {
  const std::string needle = '"' + std::string(key) + "\":";
  const std::size_t pos = doc.find(needle);
  if (pos == std::string_view::npos) return fallback;
  std::size_t start = pos + needle.size();
  // Any JSON whitespace may follow the colon, not just spaces.
  while (start < doc.size() &&
         (doc[start] == ' ' || doc[start] == '\t' || doc[start] == '\n' ||
          doc[start] == '\r')) {
    ++start;
  }
  if (start >= doc.size()) return fallback;
  // from_chars, to match the std::to_chars writer: locale-independent, so a
  // document written on one machine parses identically on any other (strtod
  // under a de_DE locale would read "0.5" as 0).
  double value = 0.0;
  const auto res =
      std::from_chars(doc.data() + start, doc.data() + doc.size(), value);
  return res.ec == std::errc() ? value : fallback;
}

std::string json_find_string(std::string_view doc, std::string_view key,
                             std::string_view fallback) {
  const std::string needle = '"' + std::string(key) + "\":";
  const std::size_t pos = doc.find(needle);
  if (pos == std::string_view::npos) return std::string(fallback);
  std::size_t i = pos + needle.size();
  while (i < doc.size() && doc[i] == ' ') ++i;
  if (i >= doc.size() || doc[i] != '"') return std::string(fallback);
  ++i;
  std::string out;
  while (i < doc.size() && doc[i] != '"') {
    char c = doc[i++];
    if (c == '\\' && i < doc.size()) {
      const char esc = doc[i++];
      switch (esc) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        default: c = esc; break;  // \" \\ \/ and anything unknown: literal
      }
    }
    out += c;
  }
  if (i >= doc.size()) return std::string(fallback);  // unterminated string
  return out;
}

void JsonWriter::comma_if_needed() {
  if (stack_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_ += ',';
  }
}

JsonWriter& JsonWriter::begin_object() {
  comma_if_needed();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma_if_needed();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma_if_needed();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  // The upcoming value must not emit another comma.
  if (!first_.empty()) first_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  comma_if_needed();
  out_ += '"';
  out_ += json_escape(text);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(double number) {
  comma_if_needed();
  if (std::isfinite(number)) {
    // Shortest round-trip form via to_chars: locale- and libc-independent,
    // unlike printf %g, so snapshots compare byte-equal across platforms.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), number);
    out_.append(buf, res.ptr);
  } else {
    out_ += "null";  // JSON has no inf/nan
  }
  return *this;
}

JsonWriter& JsonWriter::value(int number) {
  comma_if_needed();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(std::size_t number) {
  comma_if_needed();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  comma_if_needed();
  out_ += flag ? "true" : "false";
  return *this;
}

}  // namespace ivnet
