#include "hmcs/util/table.hpp"

#include <algorithm>
#include <ostream>

#include "hmcs/util/error.hpp"
#include "hmcs/util/string_util.hpp"

namespace hmcs {

Table::Table(std::vector<std::string> headers) : columns_(headers.size()) {
  require(!headers.empty(), "Table: needs at least one column");
  for (const std::string& header : headers) cell(header);
}

Table& Table::cell(std::string_view text) {
  text_ += text;
  ends_.push_back(text_.size());
  return *this;
}

Table& Table::cell(double value, int precision) {
  append_fixed(text_, value, precision);
  ends_.push_back(text_.size());
  return *this;
}

void Table::end_row() {
  const std::size_t complete = (rows_ + 1) * columns_;
  if (ends_.size() != complete + columns_) {
    // Drop the partial row so the table stays well-formed.
    ends_.resize(complete);
    text_.resize(ends_.back());
    require(false, "Table: row width does not match header width");
  }
  ++rows_;
}

void Table::add_row(const std::vector<std::string>& cells) {
  for (const std::string& text : cells) cell(text);
  end_row();
}

void Table::add_numeric_row(const std::vector<double>& cells, int precision) {
  for (const double value : cells) cell(value, precision);
  end_row();
}

std::string Table::render() const {
  // Only complete rows render; a row still being built is left out.
  const std::size_t n_cells = (rows_ + 1) * columns_;
  const auto width_of = [&](std::size_t i) {
    return ends_[i] - (i == 0 ? 0 : ends_[i - 1]);
  };
  std::vector<std::size_t> widths(columns_, 0);
  for (std::size_t i = 0; i < n_cells; ++i) {
    widths[i % columns_] = std::max(widths[i % columns_], width_of(i));
  }

  std::size_t line = 2;  // "|" ... "\n"
  for (const std::size_t width : widths) line += width + 3;
  std::string out;
  out.reserve(line * (rows_ + 2));
  const auto emit_row = [&](std::size_t row) {
    for (std::size_t c = 0; c < columns_; ++c) {
      const std::size_t i = row * columns_ + c;
      const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
      out += c == 0 ? "| " : " | ";
      out.append(widths[c] - width_of(i), ' ');
      out.append(text_, begin, ends_[i] - begin);
    }
    out += " |\n";
  };

  emit_row(0);
  for (std::size_t c = 0; c < columns_; ++c) {
    out += '|';
    out.append(widths[c] + 2, '-');
  }
  out += "|\n";
  for (std::size_t row = 1; row <= rows_; ++row) emit_row(row);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Table& table) {
  return os << table.render();
}

}  // namespace hmcs
