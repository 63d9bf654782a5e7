#include "common/csv.h"

#include <gtest/gtest.h>

namespace mlnclean {
namespace {

TEST(CsvTest, ParseSimple) {
  auto r = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0], (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(r->rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto r = ParseCsv("name,notes\n\"Doe, John\",\"said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0], "Doe, John");
  EXPECT_EQ(r->rows[0][1], "said \"hi\"");
}

TEST(CsvTest, ParseEmbeddedNewline) {
  auto r = ParseCsv("a,b\n\"line1\nline2\",x\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0], "line1\nline2");
}

TEST(CsvTest, ParseCrLf) {
  auto r = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvTest, MissingNewlineAtEof) {
  auto r = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

// Every strict-parse error is an IOError naming the record it stopped at:
// "CSV header: ..." or "CSV row N: ..." (N = 1-based data record).
void ExpectCsvError(std::string_view text, const std::string& message) {
  auto r = ParseCsv(text);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
  EXPECT_EQ(r.status().message(), message);
}

TEST(CsvTest, ArityMismatchIsError) {
  ExpectCsvError("a,b\n1,2,3\n", "CSV row 1: 3 fields, expected 2");
}

TEST(CsvTest, EmptyInputIsError) {
  ExpectCsvError("", "CSV header: empty input");
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  ExpectCsvError("a\n1\n\"oops\n", "CSV row 2: unterminated quoted CSV field");
}

TEST(CsvTest, StrayQuoteIsError) {
  ExpectCsvError("a\n1\n2\nx\"y\n", "CSV row 3: stray quote inside unquoted CSV field");
}

TEST(CsvTest, BrokenHeaderErrorSaysHeader) {
  ExpectCsvError("\"oops\n", "CSV header: unterminated quoted CSV field");
  ExpectCsvError("a\"b,c\n1,2\n", "CSV header: stray quote inside unquoted CSV field");
}

// Row numbers count data records, not physical lines: a quoted newline
// does not shift the number of a later bad row.
TEST(CsvTest, ErrorRowCountsRecordsNotLines) {
  ExpectCsvError("a,b\n\"two\nlines\",1\n2,2\n3\n", "CSV row 3: 1 fields, expected 2");
}

TEST(CsvTest, WriteQuotesOnlyWhenNeeded) {
  CsvTable t;
  t.header = {"a", "b"};
  t.rows = {{"plain", "with,comma"}, {"with\"quote", "with\nnewline"}};
  std::string text = WriteCsv(t);
  EXPECT_EQ(text,
            "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(CsvTest, RoundTrip) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{"a,b", "c\"d"}, {"", "plain"}, {"nl\nin", "end"}};
  auto r = ParseCsv(WriteCsv(t));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->header, t.header);
  EXPECT_EQ(r->rows, t.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable t;
  t.header = {"k", "v"};
  t.rows = {{"1", "one"}, {"2", "two"}};
  std::string path = ::testing::TempDir() + "/mlnclean_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto r = ReadCsvFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows, t.rows);
}

TEST(CsvTest, MissingFileIsError) {
  EXPECT_TRUE(ReadCsvFile("/nonexistent/path.csv").status().IsIOError());
}

}  // namespace
}  // namespace mlnclean
