#pragma once

/// \file table.hpp
/// A minimal ASCII table printer used by the benchmark harnesses and
/// examples to emit paper-style result tables. Cells are kept in one
/// buffer; render() pads them into another.
///
/// Usage:
///   Table t({"C", "Analysis (ms)", "Simulation (ms)"});
///   t.add_row({"4", "1.234", "1.301"});
///   t.cell("8").cell(1.5, 3).cell(1.6, 3).end_row();  // no string per value
///   std::cout << t.render();

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hmcs {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must have exactly as many cells as there are
  /// headers (throws ConfigError otherwise).
  void add_row(const std::vector<std::string>& cells);

  /// Convenience: formats numeric cells with the given precision.
  void add_numeric_row(const std::vector<double>& cells, int precision = 3);

  /// Appends one cell of the current row.
  Table& cell(std::string_view text);
  /// Appends format_fixed(value, precision) as one cell.
  Table& cell(double value, int precision);
  /// Ends the current row; throws ConfigError (and drops the row) when
  /// its width does not match the header width.
  void end_row();

  std::size_t num_rows() const { return rows_; }
  std::size_t num_columns() const { return columns_; }

  /// Renders the table with a header separator and right-aligned cells.
  std::string render() const;

 private:
  std::size_t columns_ = 0;
  std::size_t rows_ = 0;  ///< body rows, the header excluded
  std::string text_;      ///< every cell's bytes, row-major, header first
  std::vector<std::size_t> ends_;  ///< end offset of each cell in text_
};

std::ostream& operator<<(std::ostream& os, const Table& table);

}  // namespace hmcs
