#pragma once

/// \file csv.hpp
/// CSV writer used by the benchmark harnesses so every figure's series
/// can be re-plotted outside the repo (the paper's figures are line
/// charts; we emit the points as CSV alongside the ASCII table). Rows
/// are serialised into one buffer as they are added, with RFC-4180-style
/// quoting of cells containing commas, quotes, line feeds or carriage
/// returns.
///
///   CsvWriter csv({"clusters", "latency_ms"});
///   csv.add_row({"4", "1.25"});
///   csv.cell("8").cell(2.5, 9).end_row();   // no string per value

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hmcs {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void add_row(const std::vector<std::string>& cells);
  /// Cells formatted by format_compact(value, 9).
  void add_numeric_row(const std::vector<double>& cells);

  /// Appends one cell of the current row.
  CsvWriter& cell(std::string_view text);
  /// Appends format_compact(value, significant_digits) as one cell.
  CsvWriter& cell(double value, int significant_digits);
  /// Ends the current row; throws ConfigError (and drops the row) when
  /// its width does not match the header width.
  void end_row();

  /// Every complete row not yet flushed.
  std::string to_string() const;

  /// Writes the complete rows to `out` and drops them from the buffer,
  /// so a series of any length reaches a file through a bounded buffer.
  void flush_to(std::ostream& out);
  /// Bytes buffered since construction or the last flush_to().
  std::size_t buffered() const { return text_.size(); }

  /// Writes to `path` (open_output_file), throwing hmcs::Error if the
  /// file cannot be written.
  void write_file(const std::string& path) const;

 private:
  void begin_cell();

  std::size_t columns_ = 0;
  std::string text_;
  std::size_t row_start_ = 0;  ///< offset of the current row in text_
  std::size_t row_cells_ = 0;  ///< cells appended to the current row
};

}  // namespace hmcs
