#include "common/csv.h"

#include <fstream>
#include <sstream>

namespace mlnclean {

namespace {

// Parses one record starting at *pos; advances *pos past the record and its
// trailing newline. Returns false at end of input. A malformed record
// (stray or unterminated quote) sets *reason and still returns true; the
// caller fails the parse there, so *pos is left where it was.
bool ParseRecord(std::string_view text, size_t* pos, std::vector<std::string>* fields,
                 std::string* reason) {
  fields->clear();
  reason->clear();
  size_t i = *pos;
  if (i >= text.size()) return false;
  std::string field;
  bool in_quotes = false;
  bool record_done = false;
  while (i < text.size() && !record_done) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field += c;
        ++i;
      }
    } else {
      switch (c) {
        case '"':
          if (!field.empty()) {
            *reason = "stray quote inside unquoted CSV field";
            return true;
          }
          in_quotes = true;
          ++i;
          break;
        case ',':
          fields->push_back(std::move(field));
          field.clear();
          ++i;
          break;
        case '\r':
          ++i;
          if (i < text.size() && text[i] == '\n') ++i;
          record_done = true;
          break;
        case '\n':
          ++i;
          record_done = true;
          break;
        default:
          field += c;
          ++i;
      }
    }
  }
  if (in_quotes) {
    *reason = "unterminated quoted CSV field";
    return true;
  }
  fields->push_back(std::move(field));
  *pos = i;
  return true;
}

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\r\n") != std::string_view::npos;
}

void AppendField(std::string* out, std::string_view field) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

Result<CsvTable> ParseCsv(std::string_view text) {
  CsvTable table;
  size_t pos = 0;
  std::string reason;
  std::vector<std::string> fields;
  if (!ParseRecord(text, &pos, &fields, &reason)) {
    return Status::IOError("CSV header: empty input");
  }
  if (!reason.empty()) return Status::IOError("CSV header: " + reason);
  table.header = std::move(fields);
  const size_t arity = table.header.size();
  size_t row_number = 0;  // 1-based data rows; the header is row 0
  while (ParseRecord(text, &pos, &fields, &reason)) {
    ++row_number;
    if (reason.empty()) {
      // Tolerate a trailing blank line.
      if (fields.size() == 1 && fields[0].empty() && pos >= text.size()) break;
      if (fields.size() != arity) {
        reason = std::to_string(fields.size()) + " fields, expected " +
                 std::to_string(arity);
      }
    }
    if (!reason.empty()) {
      return Status::IOError("CSV row " + std::to_string(row_number) + ": " + reason);
    }
    table.rows.push_back(std::move(fields));
  }
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str());
}

std::string WriteCsv(const CsvTable& table) {
  std::string out;
  for (size_t i = 0; i < table.header.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendField(&out, table.header[i]);
  }
  out.push_back('\n');
  for (const auto& row : table.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendField(&out, row[i]);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const CsvTable& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open file for write: " + path);
  out << WriteCsv(table);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace mlnclean
