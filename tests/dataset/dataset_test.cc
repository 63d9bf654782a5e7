#include "dataset/dataset.h"

#include <gtest/gtest.h>


namespace mlnclean {
namespace {

Dataset MakeSmall() {
  Schema s = *Schema::Make({"A", "B"});
  return *Dataset::Make(s, {{"x", "1"}, {"y", "2"}, {"x", "3"}});
}

TEST(DatasetTest, BasicAccessors) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(d.num_attrs(), 2u);
  EXPECT_EQ(d.num_cells(), 6u);
  EXPECT_EQ(d.at(0, 0), "x");
  EXPECT_EQ(d.at(2, 1), "3");
  EXPECT_EQ(d.row(1), (std::vector<Value>{"y", "2"}));
}

TEST(DatasetTest, SetMutatesCell) {
  Dataset d = MakeSmall();
  d.set(1, 0, "z");
  EXPECT_EQ(d.at(1, 0), "z");
}

TEST(DatasetTest, AppendChecksArity) {
  Dataset d = MakeSmall();
  EXPECT_TRUE(d.Append({"a", "b"}).ok());
  EXPECT_TRUE(d.Append({"only-one"}).IsInvalid());
  EXPECT_EQ(d.num_rows(), 4u);
}

TEST(DatasetTest, MakeRejectsBadRows) {
  Schema s = *Schema::Make({"A", "B"});
  auto r = Dataset::Make(s, {{"x", "1"}, {"bad"}});
  EXPECT_FALSE(r.ok());
}

TEST(DatasetTest, DomainFirstAppearanceOrder) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.Domain(0), (std::vector<Value>{"x", "y"}));
  EXPECT_EQ(d.Domain(1), (std::vector<Value>{"1", "2", "3"}));
}

TEST(DatasetTest, CloneIsDeep) {
  Dataset d = MakeSmall();
  Dataset copy = d.Clone();
  copy.set(0, 0, "changed");
  EXPECT_EQ(d.at(0, 0), "x");
  EXPECT_EQ(copy.at(0, 0), "changed");
}

TEST(DatasetTest, Equality) {
  EXPECT_EQ(MakeSmall(), MakeSmall());
  Dataset d = MakeSmall();
  d.set(0, 0, "q");
  EXPECT_FALSE(d == MakeSmall());
}

TEST(DatasetTest, CsvRoundTrip) {
  Dataset d = MakeSmall();
  CsvTable t = d.ToCsv();
  EXPECT_EQ(t.header, (std::vector<std::string>{"A", "B"}));
  auto back = Dataset::FromCsv(WriteCsv(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, d);
}

TEST(DatasetTest, FromCsvRejectsDuplicateHeader) {
  EXPECT_FALSE(Dataset::FromCsv("A,A\n1,2\n").ok());
}

TEST(DatasetTest, FromCsvFailsOnAMalformedRow) {
  auto d = Dataset::FromCsv("A,B\nx,1\nonly-one\ny,2\n");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().message(), "CSV row 2: 1 fields, expected 2");
}

TEST(DatasetTest, EmptyValueIsNull) {
  Schema s = *Schema::Make({"A"});
  Dataset d = *Dataset::Make(s, {{""}});
  EXPECT_EQ(d.at(0, 0), "");
  EXPECT_EQ(d.id_at(0, 0), kNullValueId);
}

TEST(DatasetTest, CsvRoundTripWithNullsAndDuplicates) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset d = *Dataset::Make(
      s, {{"x", ""}, {"", "x"}, {"x", "x"}, {"", ""}, {"x", "y"}});
  auto back = Dataset::FromCsv(WriteCsv(d.ToCsv()));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, d);
  // Domains survive the round trip, NULL at its first-appearance rank.
  EXPECT_EQ(back->Domain(0), (std::vector<Value>{"x", ""}));
  EXPECT_EQ(back->Domain(1), (std::vector<Value>{"", "x", "y"}));
}

TEST(DatasetTest, DuplicateValuesShareOneId) {
  Dataset d = MakeSmall();  // column A = x, y, x
  EXPECT_EQ(d.id_at(0, 0), d.id_at(2, 0));
  EXPECT_NE(d.id_at(0, 0), d.id_at(1, 0));
  EXPECT_EQ(d.dict(0).size(), 3u);  // NULL + x + y
}

TEST(DatasetTest, SetWithNovelValueGrowsDictionary) {
  Dataset d = MakeSmall();
  const size_t before = d.dict(0).size();
  d.set(1, 0, "novel");
  EXPECT_EQ(d.dict(0).size(), before + 1);
  EXPECT_EQ(d.at(1, 0), "novel");
  // Setting an existing value reuses its id instead of growing.
  d.set(1, 0, "x");
  EXPECT_EQ(d.dict(0).size(), before + 1);
  EXPECT_EQ(d.id_at(1, 0), d.id_at(0, 0));
  // The overwritten value stays in the attribute's domain (the dictionary
  // never forgets), in first-appearance order.
  EXPECT_EQ(d.Domain(0), (std::vector<Value>{"x", "y", "novel"}));
}

TEST(DatasetTest, CloneSharesIdUniverse) {
  Dataset d = MakeSmall();
  Dataset copy = d.Clone();
  for (TupleId t = 0; t < 3; ++t) {
    for (AttrId a = 0; a < 2; ++a) {
      EXPECT_EQ(copy.id_at(t, a), d.id_at(t, a));
    }
  }
  // Writing an original id into the clone round-trips through strings.
  copy.set_id(1, 0, d.id_at(0, 0));
  EXPECT_EQ(copy.at(1, 0), "x");
  EXPECT_EQ(d.at(1, 0), "y");  // deep copy: the original is untouched
}

TEST(DatasetTest, EmptyLikeAndAppendRowFrom) {
  Dataset d = MakeSmall();
  Dataset out = Dataset::EmptyLike(d);
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(out.dict(0).size(), d.dict(0).size());
  out.AppendRowFrom(d, 2);
  out.AppendRowFrom(d, 0);
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.row(0), (std::vector<Value>{"x", "3"}));
  EXPECT_EQ(out.row(1), (std::vector<Value>{"x", "1"}));
  EXPECT_EQ(out.id_at(0, 0), d.id_at(2, 0));
}

TEST(DatasetTest, GatherCopiesListedRowsById) {
  Dataset d = MakeSmall();
  // List order, with a repeated row.
  Dataset out = d.Gather({2, 0, 2});
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_TRUE(out.schema() == d.schema());
  EXPECT_EQ(out.row(0), d.row(2));
  EXPECT_EQ(out.row(1), d.row(0));
  EXPECT_EQ(out.row(2), d.row(2));
  // Ids stay valid against the source's dictionaries, which are copied.
  for (AttrId a = 0; a < 2; ++a) {
    EXPECT_EQ(out.dict(a).size(), d.dict(a).size());
    EXPECT_EQ(out.id_at(0, a), d.id_at(2, a));
    EXPECT_EQ(out.id_at(1, a), d.id_at(0, a));
  }
  out.set_id(1, 0, d.id_at(1, 0));
  EXPECT_EQ(out.at(1, 0), d.at(1, 0));
  // A new value in the copy leaves the source's dictionary alone.
  out.set(0, 0, "fresh");
  EXPECT_EQ(d.dict(0).size() + 1, out.dict(0).size());

  Dataset empty = d.Gather({});
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.dict(1).size(), d.dict(1).size());
}

TEST(DatasetTest, SliceSharesIdsAndClampsBounds) {
  Dataset d = MakeSmall();
  Dataset mid = d.Slice(1, 3);
  EXPECT_EQ(mid.num_rows(), 2u);
  EXPECT_EQ(mid.row(0), d.row(1));
  EXPECT_EQ(mid.id_at(0, 0), d.id_at(1, 0));  // dictionary-sharing copy
  // end past the table clamps; an empty or inverted range is empty.
  EXPECT_EQ(d.Slice(2, 100).num_rows(), 1u);
  EXPECT_EQ(d.Slice(1, 1).num_rows(), 0u);
  EXPECT_EQ(d.Slice(5, 2).num_rows(), 0u);
  EXPECT_EQ(d.Slice(0, 0).dict(0).size(), d.dict(0).size());
}

TEST(DatasetTest, EqualityIgnoresIdAssignment) {
  // Same content, different intern order: b's dictionary assigns different
  // ids than a's, but the tables are equal.
  Schema s = *Schema::Make({"A"});
  Dataset a = *Dataset::Make(s, {{"x"}, {"y"}});
  Dataset b = *Dataset::Make(s, {{"y"}, {"y"}});
  b.set(0, 0, "x");
  b.set(1, 0, "y");
  EXPECT_NE(a.id_at(0, 0), b.id_at(0, 0));
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace mlnclean
