#include "obs/chrome_trace.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <variant>
#include <vector>

namespace ddsim::obs {

// ------------------------------------------------------------------ export

namespace {

void writeEscaped(std::ostream& os, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\';
    }
    os << c;
  }
}

}  // namespace

void writeChromeTrace(std::ostream& os, const TraceCollector& collector) {
  const auto tracks = collector.tracks();
  os << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    if (!first) {
      os << ",";
    }
    first = false;
    // Label the track; metadata events carry no timestamp semantics.
    os << "\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": "
       << tid << ", \"args\": {\"name\": \"track-" << tid << "\"}}";
    for (const TraceEvent& e : tracks[tid]->events) {
      os << ",\n{\"name\": \"";
      writeEscaped(os, e.name);
      os << "\", \"cat\": \"";
      writeEscaped(os, e.category);
      os << "\", \"ph\": \"" << e.phase << "\", \"pid\": 0, \"tid\": " << tid;
      // Microseconds with nanosecond resolution kept in the fraction.
      os << ", \"ts\": " << e.timeNs / 1000 << "." << (e.timeNs % 1000) / 100
         << (e.timeNs % 100) / 10 << e.timeNs % 10;
      if (e.phase == 'i') {
        os << ", \"s\": \"t\"";
      }
      if (e.id != kNoEventId) {
        os << ", \"args\": {\"id\": " << e.id << "}";
      }
      os << "}";
    }
  }
  os << "\n], \"displayTimeUnit\": \"ms\"";
  if (const std::uint64_t dropped = collector.droppedCount(); dropped > 0) {
    os << ", \"metadata\": {\"dropped_events\": " << dropped << "}";
  }
  os << "}\n";
}

// -------------------------------------------------------------- validation

namespace {

/// Minimal recursive-descent JSON reader — just enough to re-parse the
/// exporter's output (and reject malformed files) without an external
/// dependency. Numbers are doubles; object member order is not preserved.
struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  [[nodiscard]] const JsonObject* object() const {
    return std::get_if<JsonObject>(&v);
  }
  [[nodiscard]] const JsonArray* array() const {
    return std::get_if<JsonArray>(&v);
  }
  [[nodiscard]] const std::string* string() const {
    return std::get_if<std::string>(&v);
  }
  [[nodiscard]] const double* number() const {
    return std::get_if<double>(&v);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse(std::string& error) {
    JsonValue value;
    if (!parseValue(value)) {
      error = error_.empty() ? "malformed JSON" : error_;
      return std::nullopt;
    }
    skipWhitespace();
    if (pos_ != text_.size()) {
      error = "trailing characters after JSON document";
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool parseValue(JsonValue& out) {
    skipWhitespace();
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{': return parseObject(out);
      case '[': return parseArray(out);
      case '"': return parseString(out);
      case 't':
      case 'f':
      case 'n': return parseKeyword(out);
      default: return parseNumber(out);
    }
  }

  bool parseObject(JsonValue& out) {
    ++pos_;  // '{'
    JsonObject obj;
    skipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out.v = std::move(obj);
      return true;
    }
    for (;;) {
      JsonValue key;
      skipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parseString(key)) {
        return fail("expected object key string");
      }
      if (!consume(':')) {
        return false;
      }
      JsonValue value;
      if (!parseValue(value)) {
        return false;
      }
      obj.emplace(std::move(*key.string()), std::move(value));
      skipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!consume('}')) {
      return false;
    }
    out.v = std::move(obj);
    return true;
  }

  bool parseArray(JsonValue& out) {
    ++pos_;  // '['
    JsonArray arr;
    skipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out.v = std::move(arr);
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!parseValue(value)) {
        return false;
      }
      arr.push_back(std::move(value));
      skipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!consume(']')) {
      return false;
    }
    out.v = std::move(arr);
    return true;
  }

  bool parseString(JsonValue& out) {
    ++pos_;  // '"'
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return fail("unterminated escape");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              return fail("truncated \\u escape");
            }
            pos_ += 4;   // validated for length only
            c = '?';     // code point not needed for validation
            break;
          default: return fail("unknown escape");
        }
      }
      s += c;
    }
    if (pos_ >= text_.size()) {
      return fail("unterminated string");
    }
    ++pos_;  // closing '"'
    out.v = std::move(s);
    return true;
  }

  bool parseKeyword(JsonValue& out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out.v = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out.v = false;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out.v = nullptr;
      return true;
    }
    return fail("unknown keyword");
  }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected a value");
    }
    try {
      out.v = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return fail("malformed number");
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

TraceValidation failValidation(std::string error) {
  TraceValidation v;
  v.error = std::move(error);
  return v;
}

}  // namespace

TraceValidation validateChromeTrace(const std::string& json) {
  std::string parseError;
  const auto doc = JsonParser(json).parse(parseError);
  if (!doc) {
    return failValidation("not valid JSON: " + parseError);
  }
  const JsonObject* root = doc->object();
  if (root == nullptr) {
    return failValidation("top-level value is not an object");
  }
  const auto eventsIt = root->find("traceEvents");
  if (eventsIt == root->end()) {
    return failValidation("missing \"traceEvents\" key");
  }
  const JsonArray* events = eventsIt->second.array();
  if (events == nullptr) {
    return failValidation("\"traceEvents\" is not an array");
  }

  struct TrackState {
    std::vector<std::string> stack;  ///< open span names ('B' without 'E')
    double lastTs = -1.0;
    bool sawEvent = false;
  };
  std::map<double, TrackState> perTrack;

  TraceValidation result;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonObject* e = (*events)[i].object();
    if (e == nullptr) {
      return failValidation("event " + std::to_string(i) +
                            " is not an object");
    }
    const auto phIt = e->find("ph");
    if (phIt == e->end() || phIt->second.string() == nullptr ||
        phIt->second.string()->size() != 1) {
      return failValidation("event " + std::to_string(i) +
                            " lacks a one-character \"ph\"");
    }
    const char ph = (*phIt->second.string())[0];
    if (ph == 'M') {
      continue;  // metadata events carry no timeline semantics
    }
    if (ph != 'B' && ph != 'E' && ph != 'i') {
      return failValidation("event " + std::to_string(i) +
                            " has unsupported phase '" + ph + "'");
    }
    const auto nameIt = e->find("name");
    if (nameIt == e->end() || nameIt->second.string() == nullptr) {
      return failValidation("event " + std::to_string(i) + " lacks a name");
    }
    const auto tidIt = e->find("tid");
    const auto tsIt = e->find("ts");
    if (tidIt == e->end() || tidIt->second.number() == nullptr) {
      return failValidation("event " + std::to_string(i) + " lacks a tid");
    }
    if (tsIt == e->end() || tsIt->second.number() == nullptr) {
      return failValidation("event " + std::to_string(i) + " lacks a ts");
    }
    TrackState& track = perTrack[*tidIt->second.number()];
    const double ts = *tsIt->second.number();
    if (track.sawEvent && ts < track.lastTs) {
      return failValidation(
          "event " + std::to_string(i) + " (" + *nameIt->second.string() +
          "): timestamp " + std::to_string(ts) + " < previous " +
          std::to_string(track.lastTs) + " on the same track");
    }
    track.lastTs = ts;
    track.sawEvent = true;
    if (ph == 'B') {
      track.stack.push_back(*nameIt->second.string());
    } else if (ph == 'E') {
      if (track.stack.empty()) {
        return failValidation("event " + std::to_string(i) + " (" +
                              *nameIt->second.string() +
                              "): 'E' without matching 'B'");
      }
      if (track.stack.back() != *nameIt->second.string()) {
        return failValidation("event " + std::to_string(i) + ": 'E' for \"" +
                              *nameIt->second.string() +
                              "\" but innermost open span is \"" +
                              track.stack.back() + "\"");
      }
      track.stack.pop_back();
    }
    ++result.events;
  }
  for (const auto& [tid, track] : perTrack) {
    if (!track.stack.empty()) {
      return failValidation("track " + std::to_string(tid) + " ends with " +
                            std::to_string(track.stack.size()) +
                            " unclosed span(s), innermost \"" +
                            track.stack.back() + "\"");
    }
  }
  result.tracks = perTrack.size();
  result.ok = true;
  return result;
}

TraceValidation validateChromeTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return failValidation("cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return validateChromeTrace(ss.str());
}

}  // namespace ddsim::obs
