#include "cleaning/agp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>

namespace mlnclean {

namespace {

// Index 0 of every ValueIndex stands for "no value": an abnormal value no
// normal γ* holds. Its term is always 0.
constexpr uint32_t kNoSlot = 0;

// Open addressing from a value's dictionary id (or, for length rows, a
// length) to a dense index from 1, keeping the value's bytes alongside.
// Reused across blocks.
struct ValueIndex {
  std::vector<std::string_view> values;  // index -> value
  std::vector<ValueId> ids;              // index -> id
  std::vector<uint32_t> table;           // index per cell, kNoSlot if empty

  void Reset(size_t capacity) {
    values.assign(1, std::string_view());
    ids.assign(1, 0);
    table.assign(capacity, kNoSlot);
  }
  size_t size() const { return values.size(); }

  // The index of `id`, inserting it (with `value`) when `add`; kNoSlot
  // when absent.
  uint32_t Find(ValueId id, std::string_view value, bool add) {
    const size_t mask = table.size() - 1;
    const size_t h = static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32);
    for (size_t b = h & mask;; b = (b + 1) & mask) {
      const uint32_t s = table[b];
      if (s == kNoSlot) {
        if (!add) return kNoSlot;
        const uint32_t index = static_cast<uint32_t>(values.size());
        values.push_back(value);
        ids.push_back(id);
        table[b] = index;
        return index;
      }
      if (ids[s] == id) return s;
    }
  }
};

// Term rows over one position's slots, cached per block: a row is a
// deterministic function of its key, computed once and extended when a
// star reload adds slots.
struct RowCache {
  ValueIndex keys;
  std::vector<std::vector<double>> rows;  // key index -> term per slot

  void Reset(size_t capacity) {
    for (size_t r = 1; r < keys.size(); ++r) rows[r].clear();
    keys.Reset(capacity);
  }

  // The row of `key`, extended to `k` slots with `term(s)`.
  template <typename Term>
  double* Row(ValueId key, size_t k, Term term) {
    const uint32_t r = keys.Find(key, {}, true);
    if (rows.size() <= r) rows.resize(r + 1);
    std::vector<double>& row = rows[r];
    if (row.empty()) row.push_back(0.0);  // kNoSlot
    for (size_t s = row.size(); s < k; ++s) row.push_back(term(s));
    return row.data();
  }
};

// The distinct values one γ* position takes among a block's normal γ*s,
// the term rows over them, and the current abnormal γ*'s view of it.
struct PositionSlots {
  ValueIndex slots;
  // Tabled positions (fewer slots than candidates) take the kernel row of
  // the abnormal value; the others the length-bound row of its length.
  RowCache kernel_rows, length_rows;
  bool tabled = false;
  // The current abnormal γ*: its value, its slot, and its term row, whose
  // own slot reads 0 for the length of this abnormal's scan.
  std::string_view abnormal_value;
  uint32_t abnormal_slot = kNoSlot;
  double* terms = nullptr;
  double own_term = 0.0;  // the row's own-slot entry, restored after the scan
};

// Per-thread scratch, reused across blocks and cleans: only ever grows.
struct AgpScratch {
  std::vector<PositionSlots> positions;
  std::vector<const ValueDict*> dicts;  // per position: its attribute's dictionary
  std::vector<uint32_t> slots;         // candidate-major: [c * P + p]
  std::vector<uint32_t> old_slots;     // a reloaded candidate's previous row
  std::vector<const Piece*> stars;     // current γ* of each normal group
  std::vector<double> bounds;          // per candidate
  // Candidates bucketed by their slots on the tabled positions (CSR):
  // bucket b holds members[bucket_start[b] .. bucket_start[b + 1]), each
  // bucket in candidate order.
  std::vector<size_t> bucket_positions;  // the tabled positions keyed on
  std::vector<uint32_t> members;
  std::vector<uint32_t> bucket_start;
  std::vector<double> bucket_bounds;
  std::vector<size_t> normal_idx, abnormal_idx;
  std::vector<std::pair<size_t, size_t>> merges;  // (abnormal, target) groups
  std::vector<char> remove;
};

// One γ* distance with the kernel on the bounded positions: the fold of
// PieceDistance (index/piece.cc) over the same nonzero terms, in its order.
double ExactDistance(const AgpScratch& scratch, const uint32_t* row, size_t num_pos,
                     DistanceMetric metric, size_t* kernel_calls) {
  double total = 0.0;
  for (size_t p = 0; p < num_pos; ++p) {
    const PositionSlots& ps = scratch.positions[p];
    const uint32_t s = row[p];
    if (ps.tabled || s == ps.abnormal_slot) {
      total += ps.terms[s];
    } else {
      total += NormalizedDistance(metric, ps.abnormal_value, ps.slots.values[s]);
      ++*kernel_calls;
    }
  }
  return total;
}

// Groups the candidates by their slots on the currently tabled positions.
void BuildBuckets(AgpScratch* scratch, size_t n, size_t num_pos) {
  std::vector<size_t>& keyed = scratch->bucket_positions;
  keyed.clear();
  for (size_t p = 0; p < num_pos; ++p) {
    if (scratch->positions[p].tabled) keyed.push_back(p);
  }
  const uint32_t* slots = scratch->slots.data();
  auto compare = [&](uint32_t a, uint32_t b) {
    for (size_t p : keyed) {
      const uint32_t sa = slots[a * num_pos + p], sb = slots[b * num_pos + p];
      if (sa != sb) return sa < sb ? -1 : 1;
    }
    return 0;
  };
  std::vector<uint32_t>& members = scratch->members;
  members.resize(n);
  for (size_t c = 0; c < n; ++c) members[c] = static_cast<uint32_t>(c);
  std::sort(members.begin(), members.end(), [&](uint32_t a, uint32_t b) {
    const int order = compare(a, b);
    return order != 0 ? order < 0 : a < b;
  });
  scratch->bucket_start.clear();
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || compare(members[i - 1], members[i]) != 0) {
      scratch->bucket_start.push_back(static_cast<uint32_t>(i));
    }
  }
  scratch->bucket_start.push_back(static_cast<uint32_t>(n));
}

}  // namespace

size_t RunAgp(Block* block, const Dataset& data, const Constraint& rule,
              const CleaningOptions& options, CleaningReport* report) {
  thread_local AgpScratch scratch;
  const size_t tau = options.agp_threshold;
  const DistanceMetric metric = options.distance;
  std::vector<Group>& groups = block->groups;
  std::vector<size_t>& normal_idx = scratch.normal_idx;
  std::vector<size_t>& abnormal_idx = scratch.abnormal_idx;
  normal_idx.clear();
  abnormal_idx.clear();
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    (groups[gi].TupleCount() <= tau ? abnormal_idx : normal_idx).push_back(gi);
  }
  if (abnormal_idx.empty()) return 0;
  const size_t n = normal_idx.size();

  // A group's key: its first γ's reason ids, as the record keeps them.
  const size_t key_arity = rule.reason_attrs().size();
  auto key_of = [key_arity](const Group& group) {
    const std::vector<ValueId>& ids = group.pieces.front().ids;
    return std::vector<ValueId>(ids.begin(), ids.begin() + key_arity);
  };
  // The record's account of the abnormal group as it was detected.
  auto describe = [&](const Group& abnormal, AgpMergeRecord* rec) {
    rec->block = block->rule_index;
    rec->abnormal_key = key_of(abnormal);
    rec->num_pieces = abnormal.pieces.size();
    for (const auto& piece : abnormal.pieces) {
      rec->abnormal_tuples.insert(rec->abnormal_tuples.end(), piece.tuples.begin(),
                                  piece.tuples.end());
    }
  };
  if (n == 0) {
    // No normal group to merge into: every group stays in place.
    if (report) {
      for (size_t ai : abnormal_idx) {
        AgpMergeRecord rec;
        describe(groups[ai], &rec);
        report->agp.push_back(std::move(rec));
      }
    }
    return 0;
  }

  // Layout: one position per rule attribute, a γ's id order; slots are
  // keyed by dictionary id and view the dictionary's bytes.
  const size_t num_pos = rule.attrs().size();
  if (scratch.positions.size() < num_pos) scratch.positions.resize(num_pos);
  scratch.dicts.clear();
  for (AttrId a : rule.attrs()) scratch.dicts.push_back(&data.dict(a));
  // A position gains at most one slot per merge and one row key per
  // abnormal γ*, so the tables never fill past half. Slots and row caches
  // are cleared per block: they index this block's positions.
  size_t capacity = 16;
  while (capacity < 2 * (n + abnormal_idx.size() + 1)) capacity *= 2;
  for (size_t p = 0; p < num_pos; ++p) {
    PositionSlots& ps = scratch.positions[p];
    ps.slots.Reset(capacity);
    ps.kernel_rows.Reset(capacity);
    ps.length_rows.Reset(capacity);
  }
  scratch.slots.resize(n * num_pos);
  scratch.old_slots.resize(num_pos);
  scratch.stars.resize(n);
  scratch.bounds.resize(n);
  auto load_slots = [&](size_t c) {
    uint32_t* row = scratch.slots.data() + c * num_pos;
    const std::vector<ValueId>& ids = scratch.stars[c]->ids;
    for (size_t p = 0; p < num_pos; ++p) {
      row[p] = scratch.positions[p].slots.Find(ids[p], scratch.dicts[p]->value(ids[p]), true);
    }
  };
  for (size_t c = 0; c < n; ++c) {
    scratch.stars[c] = &groups[normal_idx[c]].Star();
    load_slots(c);
  }
  // A position with fewer distinct values than candidates is tabled: one
  // kernel call per slot gives every candidate's exact term.
  for (size_t p = 0; p < num_pos; ++p) {
    PositionSlots& ps = scratch.positions[p];
    ps.tabled = ps.slots.size() - 1 < n;
  }
  BuildBuckets(&scratch, n, num_pos);

  // Merged pieces move only after the scan, so every γ* stays put while
  // the block is scanned.
  scratch.merges.clear();
  for (size_t ai : abnormal_idx) {
    const Group& abnormal = groups[ai];
    AgpMergeRecord rec;  // counts the scan's work; described if reported

    // Term rows of this γ*: the kernel row of its value on tabled
    // positions, the length-bound row of its length elsewhere, each
    // computed once per block and extended to the current slots; equal
    // values cost 0.
    const std::vector<ValueId>& a_ids = abnormal.Star().ids;
    for (size_t p = 0; p < num_pos; ++p) {
      PositionSlots& ps = scratch.positions[p];
      const ValueId id = a_ids[p];
      ps.abnormal_value = scratch.dicts[p]->value(id);
      ps.abnormal_slot = ps.slots.Find(id, ps.abnormal_value, false);
      const size_t k = ps.slots.size();
      const std::string_view value = ps.abnormal_value;
      if (ps.tabled) {
        ps.terms = ps.kernel_rows.Row(id, k, [&](size_t s) {
          ++rec.kernel_calls;
          return NormalizedDistance(metric, value, ps.slots.values[s]);
        });
      } else {
        ps.terms = ps.length_rows.Row(static_cast<ValueId>(value.size()), k, [&](size_t s) {
          return NormalizedDistanceLowerBound(metric, value.size(),
                                              ps.slots.values[s].size());
        });
      }
      ps.own_term = ps.terms[ps.abnormal_slot];
      ps.terms[ps.abnormal_slot] = 0.0;
    }

    // One bound per bucket: its tabled terms folded in the exact
    // distance's order, bounded positions counted as 0. Rounding is
    // monotone, so it is <= the bound of every member, and each member's
    // bound (tabled terms and length bounds) is <= its rounded distance.
    const size_t num_buckets = scratch.bucket_start.size() - 1;
    scratch.bucket_bounds.resize(num_buckets);
    size_t first_bucket = 0;
    for (size_t b = 0; b < num_buckets; ++b) {
      const uint32_t* row =
          scratch.slots.data() + size_t{scratch.members[scratch.bucket_start[b]]} * num_pos;
      double total = 0.0;
      for (size_t p : scratch.bucket_positions) total += scratch.positions[p].terms[row[p]];
      scratch.bucket_bounds[b] = total;
      if (total < scratch.bucket_bounds[first_bucket]) first_bucket = b;
    }
    rec.bucket_bounds = num_buckets;

    // Lexicographic (distance, position) minimum, as the all-pairs scan's
    // strict `<` keeps: a candidate before the best may still win a tie,
    // one after it must beat the best. The bucket of the smallest bound
    // goes first and its smallest-bound member is evaluated exactly.
    double best = std::numeric_limits<double>::infinity();
    size_t best_pos = n;
    auto scan_bucket = [&](size_t b) {
      const uint32_t* begin = scratch.members.data() + scratch.bucket_start[b];
      const uint32_t* end = scratch.members.data() + scratch.bucket_start[b + 1];
      rec.candidate_bounds += static_cast<size_t>(end - begin);
      for (const uint32_t* it = begin; it != end; ++it) {
        const uint32_t* row = scratch.slots.data() + size_t{*it} * num_pos;
        double total = 0.0;
        for (size_t p = 0; p < num_pos; ++p) total += scratch.positions[p].terms[row[p]];
        scratch.bounds[*it] = total;
      }
      size_t first = n;
      if (best_pos == n) {
        first = *begin;
        for (const uint32_t* it = begin; it != end; ++it) {
          if (scratch.bounds[*it] < scratch.bounds[first]) first = *it;
        }
        best = ExactDistance(scratch, scratch.slots.data() + first * num_pos, num_pos,
                             metric, &rec.kernel_calls);
        best_pos = first;
        ++rec.exact_evaluations;
      }
      for (const uint32_t* it = begin; it != end; ++it) {
        const size_t c = *it;
        const double bound = scratch.bounds[c];
        if (c == first || (c < best_pos ? bound > best : bound >= best)) continue;
        const double d = ExactDistance(scratch, scratch.slots.data() + c * num_pos, num_pos,
                                       metric, &rec.kernel_calls);
        ++rec.exact_evaluations;
        if (d < best || (d == best && c < best_pos)) {
          best = d;
          best_pos = c;
        }
      }
    };
    scan_bucket(first_bucket);
    // A bucket whose bound equals the best may still hold a tie that wins
    // on position: only a strictly larger bound skips it.
    for (size_t b = 0; b < num_buckets; ++b) {
      if (b != first_bucket && scratch.bucket_bounds[b] <= best) scan_bucket(b);
    }
    for (size_t p = 0; p < num_pos; ++p) {
      PositionSlots& ps = scratch.positions[p];
      ps.terms[ps.abnormal_slot] = ps.own_term;
    }

    const size_t target_gi = normal_idx[best_pos];
    scratch.merges.emplace_back(ai, target_gi);
    if (report) {
      describe(abnormal, &rec);
      rec.target_key = key_of(groups[target_gi]);
      rec.merged = true;
      rec.pairs = n;
      report->agp.push_back(std::move(rec));
    }
    // The target's γ* over its pieces followed by the merged-in ones
    // (Group::Star's first-maximum rule); reload its slots if it moved.
    const Piece* star = scratch.stars[best_pos];
    for (const Piece& piece : abnormal.pieces) {
      if (piece.support() > star->support()) star = &piece;
    }
    if (star == scratch.stars[best_pos]) continue;
    scratch.stars[best_pos] = star;
    uint32_t* row = scratch.slots.data() + best_pos * num_pos;
    std::copy(row, row + num_pos, scratch.old_slots.begin());
    load_slots(best_pos);
    // Rebuild the buckets when the reloaded candidate changed bucket or a
    // tabled position grew to as many slots as there are candidates.
    bool rebucket = false;
    for (size_t p : scratch.bucket_positions) {
      PositionSlots& ps = scratch.positions[p];
      if (row[p] != scratch.old_slots[p]) rebucket = true;
      if (ps.slots.size() - 1 >= n) {
        ps.tabled = false;
        rebucket = true;
      }
    }
    if (rebucket) BuildBuckets(&scratch, n, num_pos);
  }

  scratch.remove.assign(groups.size(), 0);
  for (const auto& [ai, target_gi] : scratch.merges) {
    Group& abnormal = groups[ai];
    Group& target = groups[target_gi];
    for (auto& piece : abnormal.pieces) target.pieces.push_back(std::move(piece));
    abnormal.pieces.clear();
    scratch.remove[ai] = 1;
  }
  size_t kept = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (scratch.remove[gi]) continue;
    if (kept != gi) groups[kept] = std::move(groups[gi]);
    ++kept;
  }
  groups.resize(kept);
  return scratch.merges.size();
}

void RunAgpAll(MlnIndex* index, const Dataset& data, const RuleSet& rules,
               const CleaningOptions& options, CleaningReport* report,
               const ExecContext& ctx) {
  // Blocks are independent; collect per-block records and splice them back
  // in block order, so the report does not depend on which worker ran
  // which block.
  const size_t num_blocks = index->num_blocks();
  std::vector<CleaningReport> local(report ? num_blocks : 0);
  ParallelFor(num_blocks, ctx, [&](size_t bi) {
    if (ctx.Stopped()) return;
    Block& block = index->block(bi);
    RunAgp(&block, data, rules.rule(block.rule_index), options,
           report ? &local[bi] : nullptr);
  });
  if (report) SpliceRecords(&local, &CleaningReport::agp, &report->agp);
}

}  // namespace mlnclean
