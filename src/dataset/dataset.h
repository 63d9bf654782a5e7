// Dataset: a string-typed relational table, the unit of work for cleaning.
// Data-cleaning literature (and this paper) treats all cell values as
// strings; typed interpretation happens inside rules where needed.
//
// Storage is columnar and dictionary-encoded: one ValueDict per attribute
// (string <-> dense ValueId, NULL = id 0) plus one vector<ValueId> column
// per attribute. The string-facing facade (at/set/row/Domain/CSV) is
// unchanged for callers, while the hot layers — grounding, AGP/RSC
// distance scans, FSCR fusion, dedup, partitioning — work on the id API:
// within one dictionary, id equality is value equality, and an id pair is
// a perfect memo key for symmetric distances. Two datasets share an id
// universe when one was created from the other via Clone(), EmptyLike()
// or Gather() (the copy's dictionaries extend the original's, so original
// ids stay valid in the copy).
//
// Thread-safety: concurrent reads are safe. set_id() on distinct cells is
// safe from multiple threads (it only writes a column slot); set() and
// Append/InternValue may grow a dictionary and must not race with anything.

#ifndef MLNCLEAN_DATASET_DATASET_H_
#define MLNCLEAN_DATASET_DATASET_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "dataset/schema.h"
#include "dataset/value_dict.h"

namespace mlnclean {

/// Stable identifier of a tuple (its position in the originating dataset).
using TupleId = int;

/// Columnar, dictionary-encoded relational table with a fixed schema.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema)
      : schema_(std::move(schema)),
        dicts_(schema_.num_attrs()),
        cols_(schema_.num_attrs()) {}

  /// Builds a dataset, validating row arity against the schema.
  static Result<Dataset> Make(Schema schema, std::vector<std::vector<Value>> rows);

  /// Loads a dataset from CSV (header row = schema).
  static Result<Dataset> FromCsv(std::string_view text);
  static Result<Dataset> FromCsvFile(const std::string& path);

  /// Quarantining loads: malformed data rows are recorded in `quarantine`
  /// (1-based row numbers + reasons) and skipped instead of failing the
  /// whole batch; a broken header still fails. nullptr = strict.
  static Result<Dataset> FromCsv(std::string_view text, QuarantineReport* quarantine);
  static Result<Dataset> FromCsvFile(const std::string& path,
                                     QuarantineReport* quarantine);

  /// An empty dataset with `other`'s schema and a copy of its
  /// dictionaries: ids of `other` remain valid here, so rows can be copied
  /// by id. This is how the distributed partitioner ships dictionaries
  /// with shards.
  static Dataset EmptyLike(const Dataset& other);

  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_attrs() const { return schema_.num_attrs(); }
  /// Total number of attribute values (rows x attrs), the paper's
  /// denominator for the error rate.
  size_t num_cells() const { return num_rows() * num_attrs(); }

  // ---- string facade -----------------------------------------------------

  /// Materializes a row as strings (facade over the columns).
  std::vector<Value> row(TupleId tid) const;

  const Value& at(TupleId tid, AttrId attr) const {
    const size_t a = static_cast<size_t>(attr);
    return dicts_[a].value(cols_[a][static_cast<size_t>(tid)]);
  }

  /// Sets a cell, interning novel values into the attribute's dictionary.
  /// Not safe to call concurrently with anything; use set_id for parallel
  /// writes of already-interned values.
  void set(TupleId tid, AttrId attr, const Value& v) {
    const size_t a = static_cast<size_t>(attr);
    cols_[a][static_cast<size_t>(tid)] = dicts_[a].Intern(v);
  }

  /// Appends a row; arity must match the schema.
  Status Append(const std::vector<Value>& row);

  /// Pre-allocates column capacity for `rows` rows.
  void Reserve(size_t rows);

  /// Distinct values of `attr` in first-appearance order, O(|dictionary|)
  /// straight off the dictionary. The domain is the dictionary's history,
  /// not a scan of the current cells: values overwritten by set() — and
  /// values interned via InternValue without ever being written to a
  /// cell — remain part of it (the dictionary never forgets a value).
  std::vector<Value> Domain(AttrId attr) const {
    return dicts_[static_cast<size_t>(attr)].FirstAppearanceDomain();
  }

  /// Serializes to CSV.
  CsvTable ToCsv() const;

  /// Deep-copies the table. The copy's dictionaries start identical to the
  /// source's, so source ids stay valid in the copy (FSCR writes repairs
  /// into a clone by id for exactly this reason).
  Dataset Clone() const { return *this; }

  /// Content equality: same schema and the same cell values. Dictionary
  /// id assignments may differ between the operands.
  bool operator==(const Dataset& other) const;

  // ---- id API ------------------------------------------------------------

  ValueId id_at(TupleId tid, AttrId attr) const {
    return cols_[static_cast<size_t>(attr)][static_cast<size_t>(tid)];
  }

  /// Writes an already-interned id into a cell. Safe from multiple threads
  /// on distinct cells (no dictionary mutation).
  void set_id(TupleId tid, AttrId attr, ValueId id) {
    cols_[static_cast<size_t>(attr)][static_cast<size_t>(tid)] = id;
  }

  /// Interns `v` into `attr`'s dictionary without touching any cell.
  ValueId InternValue(AttrId attr, std::string_view v) {
    return dicts_[static_cast<size_t>(attr)].Intern(v);
  }

  const ValueDict& dict(AttrId attr) const {
    return dicts_[static_cast<size_t>(attr)];
  }

  const std::vector<ValueId>& column(AttrId attr) const {
    return cols_[static_cast<size_t>(attr)];
  }

  /// Appends row `tid` of `src` by id. `src` must share this dataset's id
  /// universe (this was created from `src` via EmptyLike/Clone and `src`
  /// has not interned past this dataset's dictionaries).
  void AppendRowFrom(const Dataset& src, TupleId tid);

  /// The listed rows, in list order (repeats allowed), as a new dataset
  /// with a copy of this table's dictionaries, so ids stay valid in it.
  /// Each column is copied in one pass: the row-subset primitive of
  /// dedup, Slice and shard materialization.
  Dataset Gather(const std::vector<TupleId>& rows) const;

  /// Rows [begin, end) as a Gather: the micro-batch/shard slicing
  /// primitive of the serving and distributed paths.
  Dataset Slice(size_t begin, size_t end) const;

 private:
  Dataset(const Schema& schema, const std::vector<ValueDict>& dicts)
      : schema_(schema), dicts_(dicts), cols_(schema_.num_attrs()) {}

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<ValueDict> dicts_;            // one per attribute
  std::vector<std::vector<ValueId>> cols_;  // [attr][row]
};

/// Splits `data` into `k` contiguous micro-batches (ceil-division row
/// chunks) sharing its dictionaries via Slice. The serving round-trip
/// gates compare transcripts produced in different processes, so every
/// process must split identically — one implementation, used by the
/// example, the snapshot CLI, and the tests. k = 0 yields no batches; the
/// last batch may be short.
std::vector<Dataset> SplitIntoBatches(const Dataset& data, size_t k);

/// Order-sensitive hash of a tuple's dictionary ids over `attrs` (or all
/// attributes). Shared by every layer that buckets tuples by id rows —
/// duplicate elimination, violation grouping — with Same*Ids as the exact
/// confirm on hash match. Only comparable within one dataset (or datasets
/// sharing an id universe).
uint64_t HashRowIds(const Dataset& data, TupleId tid);
uint64_t HashRowIds(const Dataset& data, TupleId tid,
                    const std::vector<AttrId>& attrs);

/// Exact id-row equality over `attrs` (or all attributes).
bool SameRowIds(const Dataset& data, TupleId a, TupleId b);
bool SameRowIds(const Dataset& data, TupleId a, TupleId b,
                const std::vector<AttrId>& attrs);

}  // namespace mlnclean

#endif  // MLNCLEAN_DATASET_DATASET_H_
