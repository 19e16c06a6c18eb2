#include "hmcs/util/json.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <utility>

#include "hmcs/util/error.hpp"
#include "hmcs/util/string_util.hpp"

namespace hmcs {

namespace {

bool needs_escape(unsigned char ch) {
  return ch < 0x20 || ch == '"' || ch == '\\';
}

/// True when a byte of `word` needs an escape: the bit tricks "has a
/// byte below n" and "has a zero byte" (of word ^ the byte), exact as
/// tests for any byte; bytes from 0x80 never match.
bool word_needs_escape(std::uint64_t word) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHighs = 0x8080808080808080ull;
  const auto has_zero = [](std::uint64_t x) {
    return (x - kOnes) & ~x & kHighs;
  };
  return (((word - kOnes * 0x20) & ~word & kHighs) |
          has_zero(word ^ (kOnes * '"')) | has_zero(word ^ (kOnes * '\\'))) !=
         0;
}

/// Whether any byte of `text` needs an escape, eight at a time.
bool needs_escape(std::string_view text) {
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text.data() + i, 8);
    if (word_needs_escape(word)) return true;
  }
  for (; i < text.size(); ++i) {
    if (needs_escape(static_cast<unsigned char>(text[i]))) return true;
  }
  return false;
}

/// put_quoted's room for `text`, given `escapes` = needs_escape(text):
/// exact when nothing needs an escape, else the worst case.
std::size_t quoted_size(std::string_view text, bool escapes) {
  return (escapes ? 6 * text.size() : text.size()) + 2;
}

/// Writes `text` quoted, and escaped per RFC 8259, at `at`, which has
/// room for quoted_size(text, escapes) bytes; returns the end.
char* put_quoted(char* at, std::string_view text, bool escapes) {
  static constexpr char kHex[] = "0123456789abcdef";
  *at++ = '"';
  if (!escapes) {
    std::memcpy(at, text.data(), text.size());
    at += text.size();
    *at++ = '"';
    return at;
  }
  for (const char c : text) {
    const auto ch = static_cast<unsigned char>(c);
    if (!needs_escape(ch)) {
      *at++ = c;
      continue;
    }
    *at++ = '\\';
    switch (ch) {
      case '"': *at++ = '"'; break;
      case '\\': *at++ = '\\'; break;
      case '\b': *at++ = 'b'; break;
      case '\f': *at++ = 'f'; break;
      case '\n': *at++ = 'n'; break;
      case '\r': *at++ = 'r'; break;
      case '\t': *at++ = 't'; break;
      default:
        *at++ = 'u';
        *at++ = '0';
        *at++ = '0';
        *at++ = kHex[ch >> 4];
        *at++ = kHex[ch & 0xf];
    }
  }
  *at++ = '"';
  return at;
}

}  // namespace

char* JsonWriter::room(std::size_t bytes) {
  if (buf_.size() - size_ < bytes) {
    buf_.resize(std::max({2 * buf_.size(), size_ + bytes, std::size_t{256}}));
  }
  return buf_.data() + size_;
}

char* JsonWriter::value_room(std::size_t bytes) {
  const char last = size_ == 0 ? '\n' : buf_[size_ - 1];
  bool comma = false;
  if (stack_.empty()) {
    ensure(last == '\n', "JsonWriter: document already complete");
  } else if (stack_.back() == '}') {
    ensure(last == ':', "JsonWriter: object value requires key() first");
  } else {
    comma = last != '[';
  }
  char* at = room(bytes + 1);
  if (comma) *at++ = ',';
  return at;
}

JsonWriter& JsonWriter::put_value(std::string_view text) {
  char* at = value_room(text.size());
  text.copy(at, text.size());
  size_ = static_cast<std::size_t>(at + text.size() - buf_.data());
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  put_value("{");
  stack_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  put_value("[");
  stack_ += ']';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  ensure(!stack_.empty() && stack_.back() == '}',
         "JsonWriter: end_object without open object");
  ensure(buf_[size_ - 1] != ':', "JsonWriter: dangling key");
  *room(1) = '}';
  ++size_;
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  ensure(!stack_.empty() && stack_.back() == ']',
         "JsonWriter: end_array without open array");
  *room(1) = ']';
  ++size_;
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  ensure(!stack_.empty() && stack_.back() == '}',
         "JsonWriter: key() outside an object");
  const char last = buf_[size_ - 1];
  ensure(last != ':', "JsonWriter: two keys in a row");
  const bool escapes = needs_escape(name);
  char* at = room(quoted_size(name, escapes) + 2);
  if (last != '{') *at++ = ',';
  at = put_quoted(at, name, escapes);
  *at++ = ':';
  size_ = static_cast<std::size_t>(at - buf_.data());
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  const bool escapes = needs_escape(text);
  char* at = put_quoted(value_room(quoted_size(text, escapes)), text, escapes);
  size_ = static_cast<std::size_t>(at - buf_.data());
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) return null();
  // The bytes of "%.17g": enough digits to round-trip every double.
  char* at = put_g17(value_room(kG17Bytes), number);
  size_ = static_cast<std::size_t>(at - buf_.data());
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  char* at = value_room(20);  // every 64-bit integer
  at = std::to_chars(at, at + 20, number).ptr;
  size_ = static_cast<std::size_t>(at - buf_.data());
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  char* at = value_room(20);
  at = std::to_chars(at, at + 20, number).ptr;
  size_ = static_cast<std::size_t>(at - buf_.data());
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  return put_value(flag ? "true" : "false");
}

JsonWriter& JsonWriter::null() { return put_value("null"); }

JsonWriter& JsonWriter::end_line() {
  ensure(stack_.empty() && size_ != 0 && buf_[size_ - 1] != '\n',
         "JsonWriter: end_line without a complete value");
  *room(1) = '\n';
  ++size_;
  return *this;
}

std::string JsonWriter::str() const& {
  ensure(stack_.empty() && size_ != 0,
         "JsonWriter: document incomplete (unbalanced containers)");
  return buf_.substr(0, size_);
}

std::string JsonWriter::str() && {
  ensure(stack_.empty() && size_ != 0,
         "JsonWriter: document incomplete (unbalanced containers)");
  buf_.resize(size_);
  std::string text = std::move(buf_);
  buf_.clear();
  size_ = 0;
  return text;
}

void JsonWriter::flush_to(std::ostream& out) {
  if (size_ <= 1) return;
  out.write(buf_.data(), static_cast<std::streamsize>(size_ - 1));
  buf_[0] = buf_[size_ - 1];
  size_ = 1;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

bool JsonValue::as_bool() const {
  require(is_bool(), "JsonValue: not a boolean");
  return bool_value;
}

double JsonValue::as_number() const {
  require(is_number(), "JsonValue: not a number");
  return number_value;
}

const std::string& JsonValue::as_string() const {
  require(is_string(), "JsonValue: not a string");
  return string_value;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  require(value != nullptr, [&] {
    return "JsonValue: missing object member '" + std::string(key) + "'";
  });
  return *value;
}

const JsonValue& JsonValue::at(std::size_t index) const {
  require(is_array(), "JsonValue: not an array");
  require(index < items.size(), "JsonValue: array index out of range");
  return items[index];
}

std::size_t JsonValue::size() const {
  if (is_array()) return items.size();
  if (is_object()) return members.size();
  return 0;
}

namespace {

/// Recursive-descent RFC 8259 parser over a string_view with an explicit
/// cursor; errors report the byte offset.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    check(pos_ == text_.size(), "trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(std::string_view message) const {
    require(false, "parse_json: " + std::string(message) + " at offset " +
                       std::to_string(pos_));
    // require(false, ...) always throws; unreachable.
    throw LogicError("parse_json: unreachable");
  }
  void check(bool condition, std::string_view message) const {
    if (!condition) fail(message);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const {
    check(!at_end(), "unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char ch = peek();
    ++pos_;
    return ch;
  }
  void skip_whitespace() {
    while (!at_end()) {
      const char ch = text_[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }
  void expect_literal(std::string_view literal) {
    check(text_.substr(pos_, literal.size()) == literal,
          "invalid literal");
    pos_ += literal.size();
  }

  JsonValue parse_value() {
    check(depth_ < kMaxDepth, "nesting too deep");
    skip_whitespace();
    const char ch = peek();
    switch (ch) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue value;
        value.type = JsonValue::Type::kString;
        value.string_value = parse_string();
        return value;
      }
      case 't': {
        expect_literal("true");
        JsonValue value;
        value.type = JsonValue::Type::kBool;
        value.bool_value = true;
        return value;
      }
      case 'f': {
        expect_literal("false");
        JsonValue value;
        value.type = JsonValue::Type::kBool;
        return value;
      }
      case 'n':
        expect_literal("null");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    ++depth_;
    take();  // '{'
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    skip_whitespace();
    if (peek() == '}') {
      take();
      --depth_;
      return value;
    }
    for (;;) {
      skip_whitespace();
      check(peek() == '"', "expected object key");
      std::string key = parse_string();
      check(value.find(key) == nullptr, "duplicate object key");
      skip_whitespace();
      check(take() == ':', "expected ':' after object key");
      value.members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = take();
      if (next == '}') break;
      check(next == ',', "expected ',' or '}' in object");
    }
    --depth_;
    return value;
  }

  JsonValue parse_array() {
    ++depth_;
    take();  // '['
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    skip_whitespace();
    if (peek() == ']') {
      take();
      --depth_;
      return value;
    }
    for (;;) {
      value.items.push_back(parse_value());
      skip_whitespace();
      const char next = take();
      if (next == ']') break;
      check(next == ',', "expected ',' or ']' in array");
    }
    --depth_;
    return value;
  }

  std::string parse_string() {
    check(take() == '"', "expected string");
    std::string out;
    for (;;) {
      const char ch = take();
      if (ch == '"') return out;
      check(static_cast<unsigned char>(ch) >= 0x20,
            "unescaped control character in string");
      if (ch != '\\') {
        out += ch;
        continue;
      }
      const char escape = take();
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = take();
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences; good enough for the metric
          // and trace names this parser reads back).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("invalid escape sequence");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && text_[pos_] == '-') ++pos_;
    check(!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9',
          "invalid number");
    if (text_[pos_] == '0') {
      ++pos_;  // RFC 8259: no leading zeros — "0" ends the integer part
    } else {
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!at_end() && text_[pos_] == '.') {
      ++pos_;
      check(!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9',
            "digit required after decimal point");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      check(!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9',
            "digit required in exponent");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    // strtod reports overflow via ERANGE + ±HUGE_VAL; accepting it would
    // silently turn "1e999" into inf and poison every config or journal
    // that round-trips through this parser. Underflow (ERANGE with a
    // denormal/zero result) is a faithful nearest representation and is
    // allowed. The whole token must be consumed — the grammar above
    // guarantees it, but a strtod disagreement means a parser bug, not
    // a caller error.
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    check(end == token.c_str() + token.size(), "invalid number");
    if (errno == ERANGE &&
        (parsed == HUGE_VAL || parsed == -HUGE_VAL)) {
      pos_ = start;  // report the error at the start of the number
      fail("number out of range ('" + token + "')");
    }
    value.number_value = parsed;
    return value;
  }

  static constexpr std::size_t kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

// ---------------------------------------------------------------------------
// Member readers
// ---------------------------------------------------------------------------

namespace {

/// "<prefix>: '<key>' <problem>", built only when a read fails.
[[noreturn]] void member_error(std::string_view prefix, std::string_view key,
                               std::string_view problem) {
  std::string message(prefix);
  message += ": '";
  message += key;
  message += "' ";
  message += problem;
  detail::throw_config_error(message, std::source_location::current());
}

}  // namespace

void reject_unknown_members(const JsonValue& object,
                            std::initializer_list<std::string_view> known,
                            std::string_view prefix, std::string_view where) {
  for (const auto& [key, value] : object.members) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message(prefix);
    message += ": unknown key '" + key + "' in ";
    message += where;
    detail::throw_config_error(message, std::source_location::current());
  }
}

double number_member(const JsonValue& object, std::string_view key,
                     double fallback, std::string_view prefix) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) return fallback;
  if (!member->is_number()) member_error(prefix, key, "must be a number");
  return member->number_value;
}

std::string string_member(const JsonValue& object, std::string_view key,
                          std::string_view fallback, std::string_view prefix) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) return std::string(fallback);
  if (!member->is_string()) member_error(prefix, key, "must be a string");
  return member->string_value;
}

bool bool_member(const JsonValue& object, std::string_view key, bool fallback,
                 std::string_view prefix) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) return fallback;
  if (!member->is_bool()) member_error(prefix, key, "must be a boolean");
  return member->bool_value;
}

std::uint64_t detail::read_json_uint(const JsonValue& value, int bits,
                                     bool decimal_string,
                                     std::string_view prefix,
                                     std::string_view key) {
  ensure(bits >= 1 && bits <= 64, "read_json_uint: bits must be in [1, 64]");
  const std::uint64_t max =
      bits == 64 ? std::numeric_limits<std::uint64_t>::max()
                 : (std::uint64_t{1} << bits) - 1;
  if (value.is_number()) {
    // 2^bits is exact in a double, so every whole number below it
    // converts exactly; NaN fails the first comparison.
    const double number = value.number_value;
    if (number >= 0.0 && number == std::floor(number) &&
        number < std::ldexp(1.0, bits)) {
      return static_cast<std::uint64_t>(number);
    }
  } else if (decimal_string && value.is_string()) {
    // from_chars into an unsigned type takes digits only: a sign or
    // leading whitespace fails, and anything after the digits is left
    // unconsumed.
    const std::string& text = value.string_value;
    std::uint64_t parsed = 0;
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, parsed);
    if (error == std::errc() && stop == end && parsed <= max) return parsed;
  }
  member_error(prefix, key,
               "must be an integer in [0, " + std::to_string(max) + "]" +
                   (decimal_string ? " (a number or a decimal string)" : ""));
}

}  // namespace hmcs
