#include "dataset/dataset.h"

#include <algorithm>
#include <numeric>

namespace mlnclean {

Result<Dataset> Dataset::Make(Schema schema, std::vector<std::vector<Value>> rows) {
  Dataset ds(std::move(schema));
  ds.Reserve(rows.size());
  for (auto& row : rows) {
    MLN_RETURN_NOT_OK(ds.Append(row));
  }
  return ds;
}

Result<Dataset> Dataset::FromCsv(std::string_view text) {
  return FromCsv(text, nullptr);
}

Result<Dataset> Dataset::FromCsvFile(const std::string& path) {
  return FromCsvFile(path, nullptr);
}

Result<Dataset> Dataset::FromCsv(std::string_view text, QuarantineReport* quarantine) {
  MLN_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text, quarantine));
  MLN_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(table.header)));
  return Make(std::move(schema), std::move(table.rows));
}

Result<Dataset> Dataset::FromCsvFile(const std::string& path,
                                     QuarantineReport* quarantine) {
  MLN_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path, quarantine));
  MLN_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(table.header)));
  return Make(std::move(schema), std::move(table.rows));
}

Dataset Dataset::EmptyLike(const Dataset& other) {
  return Dataset(other.schema_, other.dicts_);
}

std::vector<Value> Dataset::row(TupleId tid) const {
  std::vector<Value> out;
  out.reserve(num_attrs());
  for (size_t a = 0; a < cols_.size(); ++a) {
    out.push_back(dicts_[a].value(cols_[a][static_cast<size_t>(tid)]));
  }
  return out;
}

Status Dataset::Append(const std::vector<Value>& row) {
  if (row.size() != schema_.num_attrs()) {
    return Status::Invalid("row arity " + std::to_string(row.size()) +
                           " does not match schema arity " +
                           std::to_string(schema_.num_attrs()));
  }
  for (size_t a = 0; a < row.size(); ++a) {
    cols_[a].push_back(dicts_[a].Intern(row[a]));
  }
  ++num_rows_;
  return Status::OK();
}

void Dataset::Reserve(size_t rows) {
  for (auto& col : cols_) col.reserve(rows);
}

void Dataset::AppendRowFrom(const Dataset& src, TupleId tid) {
  for (size_t a = 0; a < cols_.size(); ++a) {
    cols_[a].push_back(src.cols_[a][static_cast<size_t>(tid)]);
  }
  ++num_rows_;
}

Dataset Dataset::Gather(const std::vector<TupleId>& rows) const {
  Dataset out(schema_, dicts_);
  for (size_t a = 0; a < cols_.size(); ++a) {
    const std::vector<ValueId>& src = cols_[a];
    std::vector<ValueId>& dst = out.cols_[a];
    dst.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) dst[i] = src[static_cast<size_t>(rows[i])];
  }
  out.num_rows_ = rows.size();
  return out;
}

Dataset Dataset::Slice(size_t begin, size_t end) const {
  end = std::min(end, num_rows_);
  std::vector<TupleId> rows(begin < end ? end - begin : 0);
  std::iota(rows.begin(), rows.end(), static_cast<TupleId>(begin));
  return Gather(rows);
}

std::vector<Dataset> SplitIntoBatches(const Dataset& data, size_t k) {
  std::vector<Dataset> batches;
  if (k == 0) return batches;
  const size_t rows = data.num_rows();
  const size_t chunk = (rows + k - 1) / k;
  for (size_t begin = 0; begin < rows; begin += chunk) {
    batches.push_back(data.Slice(begin, begin + chunk));
  }
  return batches;
}

CsvTable Dataset::ToCsv() const {
  CsvTable table;
  table.header = schema_.names();
  table.rows.reserve(num_rows_);
  for (TupleId tid = 0; tid < static_cast<TupleId>(num_rows_); ++tid) {
    table.rows.push_back(row(tid));
  }
  return table;
}

uint64_t HashRowIds(const Dataset& data, TupleId tid) {
  uint64_t h = kValueIdHashSeed;
  for (AttrId a = 0; a < static_cast<AttrId>(data.num_attrs()); ++a) {
    h = MixValueIdHash(h, data.id_at(tid, a));
  }
  return h;
}

uint64_t HashRowIds(const Dataset& data, TupleId tid,
                    const std::vector<AttrId>& attrs) {
  uint64_t h = kValueIdHashSeed;
  for (AttrId a : attrs) h = MixValueIdHash(h, data.id_at(tid, a));
  return h;
}

bool SameRowIds(const Dataset& data, TupleId a, TupleId b) {
  for (AttrId attr = 0; attr < static_cast<AttrId>(data.num_attrs()); ++attr) {
    if (data.id_at(a, attr) != data.id_at(b, attr)) return false;
  }
  return true;
}

bool SameRowIds(const Dataset& data, TupleId a, TupleId b,
                const std::vector<AttrId>& attrs) {
  for (AttrId attr : attrs) {
    if (data.id_at(a, attr) != data.id_at(b, attr)) return false;
  }
  return true;
}

bool Dataset::operator==(const Dataset& other) const {
  if (!(schema_ == other.schema_) || num_rows_ != other.num_rows_) return false;
  for (size_t a = 0; a < cols_.size(); ++a) {
    const auto& ca = cols_[a];
    const auto& cb = other.cols_[a];
    // Ids translate across the operands via each side's dictionary; the
    // string compare runs once per id pair change, not once per cell.
    ValueId prev_a = kInvalidValueId, prev_b = kInvalidValueId;
    bool prev_equal = false;
    for (size_t r = 0; r < ca.size(); ++r) {
      if (ca[r] != prev_a || cb[r] != prev_b) {
        prev_a = ca[r];
        prev_b = cb[r];
        prev_equal = dicts_[a].value(prev_a) == other.dicts_[a].value(prev_b);
      }
      if (!prev_equal) return false;
    }
  }
  return true;
}

}  // namespace mlnclean
