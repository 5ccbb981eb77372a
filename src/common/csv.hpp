#pragma once

// A small column-typed table with CSV (de)serialization.
//
// Used as the storage format of the feature database (training records) and
// of benchmark outputs. Cells are stored as strings; typed accessors parse
// on demand and throw tp::IoError on malformed content. Tables read from
// CSV remember their source name and per-row line numbers, so structural
// errors (wrong column count, unterminated quote) and cell parse failures
// name the exact file:line instead of failing downstream.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace tp::common {

class Table {
public:
  Table() = default;
  explicit Table(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const noexcept { return columns_; }
  std::size_t numRows() const noexcept { return rows_.size(); }
  std::size_t numColumns() const noexcept { return columns_.size(); }

  /// Index of a named column; throws IoError if absent.
  std::size_t columnIndex(const std::string& name) const;

  /// Append a row; must have exactly numColumns() cells.
  void addRow(std::vector<std::string> cells);

  const std::string& cell(std::size_t row, std::size_t col) const;
  const std::string& cell(std::size_t row, const std::string& column) const;
  double cellDouble(std::size_t row, const std::string& column) const;
  long long cellInt(std::size_t row, const std::string& column) const;

  /// RFC-4180-ish CSV: quotes fields containing separator/quote/newline.
  void writeCsv(std::ostream& os) const;
  void writeCsvFile(const std::string& path) const;
  /// Parse CSV; `source` names the input in error messages ("<csv>" when
  /// empty). Throws tp::IoError with source:line on malformed rows.
  static Table readCsv(std::istream& is, const std::string& source = "");
  static Table readCsvFile(const std::string& path);

  /// " (source:line)" provenance of a row read from CSV; empty for rows
  /// added programmatically. Used in cell parse error messages.
  std::string rowLocation(std::size_t row) const;

private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::string source_;  ///< name of the CSV input rows were read from
  std::vector<std::size_t> rowLines_;  ///< 1-based start line; 0 = not CSV
};

}  // namespace tp::common
