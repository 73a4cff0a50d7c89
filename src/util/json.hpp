// The repo's one JSON type: every document it writes (run reports, the
// Chrome trace, reconfiguration logs, BENCH_*.json records, fuzz
// summaries) is built as a Json and serialized here, and nue_managerd's
// line-delimited wire protocol (docs/SERVICE.md) parses and dumps with it
// on both ends of the socket. Deliberately small: objects keep insertion
// order (dumps are deterministic, which the daemon smoke test diffs),
// numbers are doubles (every id, epoch and count fits the 53-bit
// mantissa), strings escape every control character, and parse errors
// throw with an offset so a garbled request is rejected as a protocol
// error instead of crashing a shard.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nue {

class Json {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(int n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::uint32_t n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::uint64_t n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool as_bool() const { return bool_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<Json>& items() const { return arr_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return obj_;
  }

  // --- object helpers -------------------------------------------------------

  /// Member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [k, v] : obj_) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  bool has(const std::string& key) const { return find(key) != nullptr; }

  std::string str(const std::string& key, const std::string& def = "") const {
    const Json* v = find(key);
    return v && v->is_string() ? v->str_ : def;
  }
  double num(const std::string& key, double def = 0.0) const {
    const Json* v = find(key);
    return v && v->is_number() ? v->num_ : def;
  }
  bool boolean(const std::string& key, bool def = false) const {
    const Json* v = find(key);
    return v && v->is_bool() ? v->bool_ : def;
  }

  /// Set (or overwrite) an object member, keeping insertion order.
  /// Chains: Json::object().set("a", 1).set("b", 2) builds a value in
  /// place and moves it on.
  Json&& set(const std::string& key, Json value) && {
    return std::move(set(key, std::move(value)));
  }
  Json& set(const std::string& key, Json value) & {
    type_ = Type::kObject;
    for (auto& [k, v] : obj_) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    obj_.emplace_back(key, std::move(value));
    return *this;
  }

  Json& push_back(Json value) {
    type_ = Type::kArray;
    arr_.push_back(std::move(value));
    return *this;
  }

  // --- serialization --------------------------------------------------------

  std::string dump() const {
    std::ostringstream os;
    write(os);
    return os.str();
  }

  void write(std::ostream& os) const {
    switch (type_) {
      case Type::kNull:
        os << "null";
        return;
      case Type::kBool:
        os << (bool_ ? "true" : "false");
        return;
      case Type::kNumber:
        // Integers (the common case: ids, epochs, counts) print without a
        // fraction so dumps stay byte-stable. The range test comes first:
        // a peer's 1e300 or a NaN must not reach the cast.
        if (num_ >= -0x1p63 && num_ < 0x1p63 &&
            static_cast<double>(static_cast<long long>(num_)) == num_) {
          os << static_cast<long long>(num_);
        } else {
          os << num_;
        }
        return;
      case Type::kString:
        write_string(os, str_);
        return;
      case Type::kArray: {
        os << '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
          if (i) os << ',';
          arr_[i].write(os);
        }
        os << ']';
        return;
      }
      case Type::kObject: {
        os << '{';
        for (std::size_t i = 0; i < obj_.size(); ++i) {
          if (i) os << ',';
          write_string(os, obj_[i].first);
          os << ':';
          obj_[i].second.write(os);
        }
        os << '}';
        return;
      }
    }
  }

  // --- parsing --------------------------------------------------------------

  /// Parse one JSON document; throws std::runtime_error (with the byte
  /// offset) on malformed input or trailing garbage.
  static Json parse(const std::string& text) {
    std::size_t pos = 0;
    Json j = parse_value(text, pos);
    skip_ws(text, pos);
    if (pos != text.size()) {
      throw std::runtime_error("trailing characters at offset " +
                               std::to_string(pos));
    }
    return j;
  }

 private:
  static void write_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (char ch : s) {
      switch (ch) {
        case '"': os << "\\\""; break;
        case '\\': os << "\\\\"; break;
        case '\n': os << "\\n"; break;
        case '\r': os << "\\r"; break;
        case '\t': os << "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            const char* hex = "0123456789abcdef";
            os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
          } else {
            os << ch;
          }
      }
    }
    os << '"';
  }

  [[noreturn]] static void fail(const char* what, std::size_t pos) {
    throw std::runtime_error(std::string(what) + " at offset " +
                             std::to_string(pos));
  }

  static void skip_ws(const std::string& t, std::size_t& pos) {
    while (pos < t.size() && (t[pos] == ' ' || t[pos] == '\t' ||
                              t[pos] == '\n' || t[pos] == '\r')) {
      ++pos;
    }
  }

  static bool consume(const std::string& t, std::size_t& pos,
                      const char* lit) {
    std::size_t p = pos;
    for (const char* c = lit; *c; ++c, ++p) {
      if (p >= t.size() || t[p] != *c) return false;
    }
    pos = p;
    return true;
  }

  static Json parse_value(const std::string& t, std::size_t& pos) {
    skip_ws(t, pos);
    if (pos >= t.size()) fail("unexpected end of input", pos);
    const char c = t[pos];
    if (c == '{') return parse_object(t, pos);
    if (c == '[') return parse_array(t, pos);
    if (c == '"') return Json(parse_string(t, pos));
    if (consume(t, pos, "true")) return Json(true);
    if (consume(t, pos, "false")) return Json(false);
    if (consume(t, pos, "null")) return Json(nullptr);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(t, pos);
    fail("unexpected character", pos);
  }

  static Json parse_object(const std::string& t, std::size_t& pos) {
    Json j = object();
    ++pos;  // '{'
    skip_ws(t, pos);
    if (pos < t.size() && t[pos] == '}') {
      ++pos;
      return j;
    }
    for (;;) {
      skip_ws(t, pos);
      if (pos >= t.size() || t[pos] != '"') fail("expected member name", pos);
      std::string key = parse_string(t, pos);
      skip_ws(t, pos);
      if (pos >= t.size() || t[pos] != ':') fail("expected ':'", pos);
      ++pos;
      j.obj_.emplace_back(std::move(key), parse_value(t, pos));
      skip_ws(t, pos);
      if (pos >= t.size()) fail("unterminated object", pos);
      if (t[pos] == ',') {
        ++pos;
        continue;
      }
      if (t[pos] == '}') {
        ++pos;
        return j;
      }
      fail("expected ',' or '}'", pos);
    }
  }

  static Json parse_array(const std::string& t, std::size_t& pos) {
    Json j = array();
    ++pos;  // '['
    skip_ws(t, pos);
    if (pos < t.size() && t[pos] == ']') {
      ++pos;
      return j;
    }
    for (;;) {
      j.arr_.push_back(parse_value(t, pos));
      skip_ws(t, pos);
      if (pos >= t.size()) fail("unterminated array", pos);
      if (t[pos] == ',') {
        ++pos;
        continue;
      }
      if (t[pos] == ']') {
        ++pos;
        return j;
      }
      fail("expected ',' or ']'", pos);
    }
  }

  static std::string parse_string(const std::string& t, std::size_t& pos) {
    ++pos;  // '"'
    std::string out;
    while (pos < t.size()) {
      const char c = t[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (c == '\\') {
        if (pos + 1 >= t.size()) fail("unterminated escape", pos);
        const char e = t[pos + 1];
        pos += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > t.size()) fail("truncated \\u escape", pos);
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = t[pos + static_cast<std::size_t>(i)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape", pos);
            }
            pos += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by this protocol; lone surrogates encode as-is).
            if (cp < 0x80) {
              out += static_cast<char>(cp);
            } else if (cp < 0x800) {
              out += static_cast<char>(0xC0 | (cp >> 6));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (cp >> 12));
              out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (cp & 0x3F));
            }
            break;
          }
          default:
            fail("unknown escape", pos - 1);
        }
        continue;
      }
      out += c;
      ++pos;
    }
    fail("unterminated string", pos);
  }

  static Json parse_number(const std::string& t, std::size_t& pos) {
    const std::size_t start = pos;
    if (pos < t.size() && t[pos] == '-') ++pos;
    while (pos < t.size() &&
           ((t[pos] >= '0' && t[pos] <= '9') || t[pos] == '.' ||
            t[pos] == 'e' || t[pos] == 'E' || t[pos] == '+' ||
            t[pos] == '-')) {
      ++pos;
    }
    try {
      std::size_t used = 0;
      const std::string tok = t.substr(start, pos - start);
      const double v = std::stod(tok, &used);
      if (used != tok.size()) fail("malformed number", start);
      return Json(v);
    } catch (const std::logic_error&) {
      fail("malformed number", start);
    }
  }

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace nue
