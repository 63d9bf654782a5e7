// Minimal RFC-4180-ish CSV reader/writer used to load and persist
// datasets. Supports quoted fields containing commas, quotes and newlines.

#ifndef MLNCLEAN_COMMON_CSV_H_
#define MLNCLEAN_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mlnclean {

/// Parsed CSV content: a header row plus data rows.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Parses CSV text strictly. Every row must have the same arity as the
/// header; the first malformed record fails the parse with an IOError
/// that names it: "CSV header: <reason>" (empty input, stray or
/// unterminated quote) or "CSV row N: <reason>" (N = 1-based data record,
/// the header being row 0; wrong arity, stray or unterminated quote).
Result<CsvTable> ParseCsv(std::string_view text);

/// Reads and parses a CSV file (strict, as ParseCsv).
Result<CsvTable> ReadCsvFile(const std::string& path);

/// Serializes a table to CSV text, quoting only where necessary.
std::string WriteCsv(const CsvTable& table);

/// Writes a table to a file.
Status WriteCsvFile(const CsvTable& table, const std::string& path);

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_CSV_H_
