#include "common/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace skycube {

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delimiter) {
  std::vector<std::string> cells;
  std::string cell;
  for (char c : line) {
    if (c == delimiter) {
      cells.push_back(cell);
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(cell);
  return cells;
}

/// Why a cell failed to parse — drives the error message.
enum class CellError {
  kOk,
  kEmpty,
  kEmbeddedNul,
  kNotNumeric,
  kNotFinite,
};

CellError ParseCell(const std::string& text, double* out) {
  if (text.empty()) return CellError::kEmpty;
  // strtod stops at the first NUL, which would silently accept garbage
  // after it ("1\0junk") — reject the byte outright.
  if (text.find('\0') != std::string::npos) return CellError::kEmbeddedNul;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str()) return CellError::kNotNumeric;
  // Allow trailing spaces only.
  for (const char* p = end; *p != '\0'; ++p) {
    if (*p != ' ' && *p != '\t') return CellError::kNotNumeric;
  }
  // NaN poisons dominance comparisons and the presort, and inf + -inf makes
  // a coordinate sum NaN; dataset values must be finite.
  if (!std::isfinite(value)) return CellError::kNotFinite;
  *out = value;
  return CellError::kOk;
}

/// Printable copy of a cell for error messages (NUL bytes would truncate
/// the message; other control bytes would garble the terminal).
std::string PrintableCell(const std::string& cell) {
  std::string out;
  out.reserve(cell.size());
  for (char c : cell) {
    out += (c >= 0x20 && c != 0x7F) ? c : '?';
  }
  if (out.size() > 32) {
    out.resize(29);
    out += "...";
  }
  return out;
}

std::string CellContext(size_t line_number, size_t column) {
  return "at line " + std::to_string(line_number) + ", column " +
         std::to_string(column + 1);
}

}  // namespace

Result<CsvTable> ParseNumericCsv(const std::string& text,
                                 const CsvReadOptions& options) {
  CsvTable table;
  std::istringstream stream(text);
  std::string line;
  size_t line_number = 0;
  size_t width = 0;
  bool saw_header = false;
  while (std::getline(stream, line)) {
    ++line_number;
    if (line.empty() || line == "\r") continue;
    std::vector<std::string> cells = SplitLine(line, options.delimiter);
    if (options.has_header && !saw_header) {
      table.column_names = cells;
      width = cells.size();
      saw_header = true;
      continue;
    }
    if (width == 0) width = cells.size();
    if (cells.size() != width) {
      return Status::InvalidArgument(
          "ragged CSV row at line " + std::to_string(line_number) + ": got " +
          std::to_string(cells.size()) + " cell(s), expected " +
          std::to_string(width));
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (size_t column = 0; column < cells.size(); ++column) {
      const std::string& cell = cells[column];
      double value = 0;
      switch (ParseCell(cell, &value)) {
        case CellError::kOk:
          break;
        case CellError::kEmpty:
          return Status::InvalidArgument("empty cell " +
                                         CellContext(line_number, column));
        case CellError::kEmbeddedNul:
          return Status::InvalidArgument("embedded NUL byte " +
                                         CellContext(line_number, column));
        case CellError::kNotNumeric:
          return Status::InvalidArgument(
              "non-numeric cell '" + PrintableCell(cell) + "' " +
              CellContext(line_number, column));
        case CellError::kNotFinite:
          return Status::InvalidArgument(
              "non-finite value '" + PrintableCell(cell) + "' " +
              CellContext(line_number, column) +
              " (dataset values must be finite)");
      }
      row.push_back(value);
    }
    table.rows.push_back(std::move(row));
  }
  if (options.has_header && !saw_header) {
    return Status::InvalidArgument("CSV has no header row");
  }
  return table;
}

Result<CsvTable> ReadNumericCsv(const std::string& path,
                                const CsvReadOptions& options) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open CSV file: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseNumericCsv(buffer.str(), options);
}

Status WriteNumericCsv(const std::string& path, const CsvTable& table,
                       char delimiter) {
  std::ofstream file(path);
  if (!file) return Status::Internal("cannot open CSV file for write: " + path);
  if (!table.column_names.empty()) {
    for (size_t i = 0; i < table.column_names.size(); ++i) {
      if (i > 0) file << delimiter;
      file << table.column_names[i];
    }
    file << '\n';
  }
  std::ostringstream row_buffer;
  row_buffer.precision(17);
  for (const std::vector<double>& row : table.rows) {
    row_buffer.str("");
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) row_buffer << delimiter;
      row_buffer << row[i];
    }
    row_buffer << '\n';
    file << row_buffer.str();
  }
  file.flush();
  if (!file) return Status::Internal("I/O error writing CSV file: " + path);
  return Status::Ok();
}

}  // namespace skycube
