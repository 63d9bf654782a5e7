// Global weight adjustment (Section 6, Eq. 6): a γ learned in several
// parts gets the support-weighted average
//     w(γ) = Σ_i n_i·w_i / Σ_i n_i
// of its per-part weights, so evidence from one part backs up γs that are
// under-supported in another. Backs both the distributed driver's global
// merge and the CleanModel weight store (it depends only on the index
// layer, which is why it lives here rather than under distributed/).
//
// γ identity is (rule, the γ's values in the rule's attribute order: reason
// values, then result values). Values are interned
// into table-owned per-attribute ValueDicts — independent of any dataset's
// dictionaries, so accumulating indexes built over different datasets (or
// the same data interned in a different order) always agrees on γ ids.
// Keys are packed id tuples, which is also what makes the store
// serializable with stable ids: a snapshot persists the dictionaries and
// the id-keyed entries verbatim (see cleaning/model_io.h).

#ifndef MLNCLEAN_INDEX_WEIGHT_MERGE_H_
#define MLNCLEAN_INDEX_WEIGHT_MERGE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/value_dict.h"
#include "index/mln_index.h"

namespace mlnclean {

/// Accumulates per-part learned weights keyed by γ identity (rule, values)
/// and hands back the Eq. 6 average.
/// `rules` must be the rule set the indexes were built over; it maps every
/// value position of a γ to its schema attribute. `data` is the dataset a
/// part's index was built over: its dictionaries turn the γ ids into the
/// values the table keys on.
class GlobalWeightTable {
 public:
  /// Folds in one part's post-learning index (call after weight learning,
  /// before RSC). The only member that interns new values: callers that
  /// share a table across threads may run Apply/Lookup concurrently with
  /// each other, but never with Accumulate.
  void Accumulate(const MlnIndex& part_index, const Dataset& data, const RuleSet& rules);

  /// Overwrites every γ weight in `part_index` with its merged global
  /// weight. γs never seen by Accumulate keep their local weight.
  /// Read-only on the table (values are looked up, never interned).
  void Apply(MlnIndex* part_index, const Dataset& data, const RuleSet& rules) const;

  /// Merged weight of a γ, or NotFound. Read-only.
  Result<double> Lookup(const RuleSet& rules, size_t rule_index,
                        const std::vector<Value>& reason,
                        const std::vector<Value>& result) const;

  size_t size() const { return table_.size(); }

  // ---- snapshot surface (cleaning/model_io) ------------------------------

  /// One entry, unpacked. `ids` index the per-attribute dictionaries
  /// below through the rule's attributes (Constraint::attrs(), a γ's id
  /// order).
  struct EntryView {
    size_t rule_index;
    std::vector<ValueId> ids;
    double weighted_sum;  // Σ n_i w_i
    double support;       // Σ n_i
  };

  /// Per-attribute interners backing the γ keys (empty until the first
  /// Accumulate or RestoreDicts; sized to the rule schema afterwards).
  size_t num_attr_dicts() const { return dicts_.size(); }
  const ValueDict& attr_dict(size_t attr) const { return dicts_[attr]; }

  /// Visits every entry in deterministic (byte-sorted key) order, so two
  /// saves of the same table produce identical bytes.
  void ForEachEntrySorted(const std::function<void(const EntryView&)>& fn) const;

  /// Snapshot decode: installs the interners rebuilt from a snapshot.
  /// Replaces any existing dictionaries; call before RestoreEntry.
  void RestoreDicts(std::vector<ValueDict> dicts);

  /// Snapshot decode: re-inserts one entry. Bounds-checked against `rules`
  /// and the restored dictionaries (arity must match the rule, every id
  /// must exist in its attribute's dictionary); Invalid otherwise.
  Status RestoreEntry(const RuleSet& rules, const EntryView& entry);

 private:
  struct Entry {
    double weighted_sum = 0.0;  // Σ n_i w_i
    double support = 0.0;       // Σ n_i
  };

  // Packed key, written into *key: u32 rule_index, then the ids in the
  // rule's attribute order, 4 raw bytes each.
  static void PackKey(size_t rule_index, const std::vector<ValueId>& ids, std::string* key);

  /// The table id of `value` in attribute `attr`'s interner, or
  /// kInvalidValueId when it was never interned (read-only).
  ValueId FindValue(size_t attr, const Value& value) const;

  std::vector<ValueDict> dicts_;  // one per schema attribute
  std::unordered_map<std::string, Entry> table_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_INDEX_WEIGHT_MERGE_H_
