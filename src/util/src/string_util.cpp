#include "hmcs/util/string_util.hpp"

#include <cctype>
#include <charconv>

#include "hmcs/util/error.hpp"

namespace hmcs {

namespace {

/// std::to_chars at an explicit precision prints exactly what printf
/// prints for the same conversion in the "C" locale. `%f` of DBL_MAX
/// has 309 integer digits, so a precision that overflows the stack
/// buffer gets a buffer sized for the worst case.
void append_chars(std::string& out, double value, std::chars_format format,
                  int precision) {
  char buf[512];
  const auto [end, error] =
      std::to_chars(buf, buf + sizeof(buf), value, format, precision);
  if (error == std::errc()) {
    out.append(buf, end);
    return;
  }
  const std::size_t start = out.size();
  out.resize(start + 320 + static_cast<std::size_t>(precision));
  const auto [last, retry] =
      std::to_chars(out.data() + start, out.data() + out.size(), value,
                    format, precision);
  ensure(retry == std::errc(), "append_chars: buffer too small");
  out.resize(static_cast<std::size_t>(last - out.data()));
}

}  // namespace

void append_fixed(std::string& out, double value, int precision) {
  append_chars(out, value, std::chars_format::fixed, precision);
}

void append_compact(std::string& out, double value, int significant_digits) {
  if (value == 0.0) {
    out += '0';
    return;
  }
  append_chars(out, value, std::chars_format::general, significant_digits);
}

std::string format_fixed(double value, int precision) {
  std::string out;
  append_fixed(out, value, precision);
  return out;
}

std::string format_compact(double value, int significant_digits) {
  std::string out;
  append_compact(out, value, significant_digits);
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(width - s.size(), ' ') + std::string(s);
}

std::string pad_right(std::string_view s, std::size_t width) {
  if (s.size() >= width) return std::string(s);
  return std::string(s) + std::string(width - s.size(), ' ');
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return std::string(s.substr(begin, end - begin));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s) {
  const std::string t = trim(s);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  require(ec == std::errc() && ptr == t.data() + t.size(),
          "not a valid number: '" + t + "'");
  return value;
}

long long parse_int(std::string_view s) {
  const std::string t = trim(s);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  require(ec == std::errc() && ptr == t.data() + t.size(),
          "not a valid integer: '" + t + "'");
  return value;
}

}  // namespace hmcs
