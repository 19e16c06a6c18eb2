#include "hmcs/util/csv.hpp"

#include <ostream>

#include "hmcs/util/error.hpp"
#include "hmcs/util/output_file.hpp"
#include "hmcs/util/string_util.hpp"

namespace hmcs {

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : columns_(headers.size()) {
  require(!headers.empty(), "CsvWriter: needs at least one column");
  for (const std::string& header : headers) cell(header);
  end_row();
}

void CsvWriter::begin_cell() {
  if (row_cells_ != 0) text_ += ',';
  ++row_cells_;
}

CsvWriter& CsvWriter::cell(std::string_view text) {
  begin_cell();
  if (text.find_first_of(",\"\n\r") == std::string_view::npos) {
    text_ += text;
    return *this;
  }
  text_ += '"';
  for (const char ch : text) {
    if (ch == '"') text_ += '"';
    text_ += ch;
  }
  text_ += '"';
  return *this;
}

CsvWriter& CsvWriter::cell(double value, int significant_digits) {
  begin_cell();
  // %g output holds no comma, quote or line break: never quoted.
  append_compact(text_, value, significant_digits);
  return *this;
}

void CsvWriter::end_row() {
  if (row_cells_ != columns_) {
    text_.resize(row_start_);
    row_cells_ = 0;
    require(false, "CsvWriter: row width does not match header width");
  }
  text_ += '\n';
  row_start_ = text_.size();
  row_cells_ = 0;
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  for (const std::string& text : cells) cell(text);
  end_row();
}

void CsvWriter::add_numeric_row(const std::vector<double>& cells) {
  for (const double value : cells) cell(value, 9);
  end_row();
}

std::string CsvWriter::to_string() const {
  return text_.substr(0, row_start_);
}

void CsvWriter::flush_to(std::ostream& out) {
  out.write(text_.data(), static_cast<std::streamsize>(row_start_));
  text_.erase(0, row_start_);
  row_start_ = 0;
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream out = open_output_file(path);
  require(out.good(), "CsvWriter: cannot open '" + path + "' for writing");
  out.write(text_.data(), static_cast<std::streamsize>(row_start_));
  require(out.good(), "CsvWriter: failed writing '" + path + "'");
}

}  // namespace hmcs
