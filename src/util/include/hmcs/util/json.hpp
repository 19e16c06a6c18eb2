#pragma once

/// \file json.hpp
/// A minimal JSON writer plus a small read-back parser: enough to
/// serialise configurations and results for downstream tooling — and to
/// load them back for round-trip tests and report post-processing —
/// without pulling in a dependency. Values are emitted in insertion
/// order; strings are escaped per RFC 8259; non-finite doubles are
/// emitted as null (JSON has no inf/nan). The parser accepts exactly
/// RFC 8259 documents (no comments, no trailing commas) and keeps
/// object members in document order.
///
///   JsonWriter json;
///   json.begin_object();
///   json.key("clusters").value(8);
///   json.key("latency_ms").value(31.4);
///   json.key("series").begin_array().value(1.0).value(2.0).end_array();
///   json.end_object();
///   std::string text = std::move(json).str();  // no copy

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hmcs {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; must be inside an object and followed by
  /// exactly one value (or container).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int32_t number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(std::uint32_t number) { return value(static_cast<std::uint64_t>(number)); }
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// Ends a complete root value with '\n', after which the next value
  /// starts a new document in the same buffer: JSON lines without one
  /// writer or one copy per line. Throws LogicError inside a container.
  JsonWriter& end_line();

  /// Finished text: one document, or the lines ended by end_line().
  /// Throws LogicError if containers are unbalanced or nothing was
  /// written.
  std::string str() const&;
  /// The same text moved out without a copy; the writer is left empty.
  std::string str() &&;

  /// Writes the buffered text to `out` and drops it from the buffer,
  /// all but its last byte, which decides the next separator: a
  /// document of any size reaches a file through a bounded buffer.
  /// str() then returns only the text not yet flushed.
  void flush_to(std::ostream& out);
  /// Bytes buffered since construction or the last flush_to().
  std::size_t buffered() const { return size_; }

 private:
  /// Room for `bytes` more bytes of text; returns where they go.
  char* room(std::size_t bytes);
  /// Checks that a value may come next and writes its separator;
  /// returns where the value's at most `bytes` bytes go.
  char* value_room(std::size_t bytes);
  JsonWriter& put_value(std::string_view text);

  // No per-value state: the last byte of the text tells the next token
  // what it needs ('{' or '[': an empty container, ':': a key awaiting
  // its value, '\n' or nothing: a fresh document, anything else: a
  // value).
  std::string buf_;        ///< the text, then spare room
  std::size_t size_ = 0;   ///< bytes of text in buf_
  /// The closing byte of every open container, innermost last.
  std::string stack_;
};

/// A parsed JSON value. Deliberately a plain open struct (no variant
/// gymnastics): exactly one of the payload members is meaningful per
/// `type`, and the typed accessors throw hmcs::ConfigError on kind
/// mismatch so test assertions fail with a message instead of reading
/// a default.
struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;  ///< array elements
  /// Object members in document order (duplicate keys are rejected).
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Object member by key, or nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object member by key; throws when absent.
  const JsonValue& at(std::string_view key) const;
  /// Array element by index; throws when out of range.
  const JsonValue& at(std::size_t index) const;
  /// Array/object element count; 0 for scalars.
  std::size_t size() const;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Throws hmcs::ConfigError with an offset
/// on malformed input.
JsonValue parse_json(std::string_view text);

// --- Member readers ---------------------------------------------------------
//
// The one reader set for JSON that comes from outside: sweep and tree
// configs, workloads, serve requests, chaos plans and journal lines all
// read their members through these. `prefix` names the reader ("serve",
// "sweep config", ...) and starts every error message; every rejection
// throws hmcs::ConfigError.

/// Rejects the first member of `object` not named in `known`:
/// "<prefix>: unknown key '<key>' in <where>".
void reject_unknown_members(const JsonValue& object,
                            std::initializer_list<std::string_view> known,
                            std::string_view prefix, std::string_view where);

/// Optional members: `fallback` when absent; a member of another kind
/// throws "<prefix>: '<key>' must be a number" (a string, a boolean).
double number_member(const JsonValue& object, std::string_view key,
                     double fallback, std::string_view prefix);
std::string string_member(const JsonValue& object, std::string_view key,
                          std::string_view fallback, std::string_view prefix);
bool bool_member(const JsonValue& object, std::string_view key, bool fallback,
                 std::string_view prefix);

namespace detail {
/// json_uint's width-independent core: `value` as an integer in
/// [0, 2^bits), strings of decimal digits too when `decimal_string`.
std::uint64_t read_json_uint(const JsonValue& value, int bits,
                             bool decimal_string, std::string_view prefix,
                             std::string_view key);
}  // namespace detail

/// The one integer reader: `value` as a T, checked against T's range.
/// It must be a whole JSON number in [0, max T]; fractions, negatives
/// and larger values throw "<prefix>: '<key>' must be an integer in
/// [0, max]", and an out-of-range double is never cast, because that
/// cast is undefined behaviour. The u64 form also takes the
/// decimal-string spelling — exact for all 64 bits, where a double is
/// exact only to 2^53 (seeds use all 64) — and a sign, whitespace or
/// any other non-digit in the string throws.
template <std::unsigned_integral T>
T json_uint(const JsonValue& value, std::string_view prefix,
            std::string_view key) {
  return static_cast<T>(detail::read_json_uint(
      value, std::numeric_limits<T>::digits, std::same_as<T, std::uint64_t>,
      prefix, key));
}

/// Optional integer member: `fallback` when absent, else json_uint<T>.
template <std::unsigned_integral T>
T uint_member(const JsonValue& object, std::string_view key, T fallback,
              std::string_view prefix) {
  const JsonValue* member = object.find(key);
  return member == nullptr ? fallback : json_uint<T>(*member, prefix, key);
}

}  // namespace hmcs
