#include "common/csv.hpp"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace tp::common {

namespace {

bool needsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void writeField(std::ostream& os, const std::string& s) {
  if (!needsQuoting(s)) {
    os << s;
    return;
  }
  os << '"';
  for (char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

enum class RecordStatus { Ok, Eof, UnterminatedQuote };

/// Parse one CSV record (handles quoted fields spanning lines). `line`
/// advances past every newline consumed, including those inside quotes.
RecordStatus readRecord(std::istream& is, std::vector<std::string>& fields,
                        std::size_t& line) {
  fields.clear();
  std::string field;
  bool inQuotes = false;
  bool sawAnything = false;
  int c;
  while ((c = is.get()) != EOF) {
    sawAnything = true;
    const char ch = static_cast<char>(c);
    if (ch == '\n') ++line;
    if (inQuotes) {
      if (ch == '"') {
        if (is.peek() == '"') {
          field.push_back('"');
          is.get();
        } else {
          inQuotes = false;
        }
      } else {
        field.push_back(ch);
      }
    } else if (ch == '"') {
      inQuotes = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\r') {
      // tolerate CRLF
    } else if (ch == '\n') {
      fields.push_back(std::move(field));
      return RecordStatus::Ok;
    } else {
      field.push_back(ch);
    }
  }
  if (inQuotes) return RecordStatus::UnterminatedQuote;
  if (!sawAnything) return RecordStatus::Eof;
  fields.push_back(std::move(field));
  return RecordStatus::Ok;
}

}  // namespace

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  TP_REQUIRE(!columns_.empty(), "Table requires at least one column");
}

std::size_t Table::columnIndex(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  throw IoError("Table: no such column: " + name);
}

void Table::addRow(std::vector<std::string> cells) {
  TP_REQUIRE(cells.size() == columns_.size(),
             "Table::addRow: expected " << columns_.size() << " cells, got "
                                        << cells.size());
  rows_.push_back(std::move(cells));
  rowLines_.push_back(0);
}

std::string Table::rowLocation(std::size_t row) const {
  if (row >= rowLines_.size() || rowLines_[row] == 0) return "";
  return " (" + source_ + ":" + std::to_string(rowLines_[row]) + ")";
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  TP_ASSERT(row < rows_.size() && col < columns_.size());
  return rows_[row][col];
}

const std::string& Table::cell(std::size_t row,
                               const std::string& column) const {
  return cell(row, columnIndex(column));
}

double Table::cellDouble(std::size_t row, const std::string& column) const {
  const std::string& s = cell(row, column);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw IoError("Table: cell is not a double: '" + s + "' in column " +
                  column + rowLocation(row));
  }
  return v;
}

long long Table::cellInt(std::size_t row, const std::string& column) const {
  const std::string& s = cell(row, column);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw IoError("Table: cell is not an integer: '" + s + "' in column " +
                  column + rowLocation(row));
  }
  return v;
}

void Table::writeCsv(std::ostream& os) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) os << ',';
    writeField(os, columns_[i]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      writeField(os, row[i]);
    }
    os << '\n';
  }
}

void Table::writeCsvFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw IoError("cannot open for writing: " + path);
  writeCsv(os);
  if (!os) throw IoError("write failed: " + path);
}

Table Table::readCsv(std::istream& is, const std::string& source) {
  const std::string name = source.empty() ? std::string("<csv>") : source;
  std::size_t line = 1;
  std::size_t recordLine = line;
  std::vector<std::string> fields;

  auto next = [&]() -> RecordStatus {
    recordLine = line;
    const RecordStatus status = readRecord(is, fields, line);
    if (status == RecordStatus::UnterminatedQuote) {
      throw IoError(name + ":" + std::to_string(recordLine) +
                    ": unterminated quoted field");
    }
    return status;
  };

  if (next() == RecordStatus::Eof) throw IoError(name + ": empty input");
  Table t(fields);
  t.source_ = name;
  while (next() == RecordStatus::Ok) {
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != t.columns_.size()) {
      throw IoError(name + ":" + std::to_string(recordLine) + ": expected " +
                    std::to_string(t.columns_.size()) + " columns, got " +
                    std::to_string(fields.size()));
    }
    t.rows_.push_back(fields);
    t.rowLines_.push_back(recordLine);
  }
  return t;
}

Table Table::readCsvFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open for reading: " + path);
  return readCsv(is, path);
}

}  // namespace tp::common
