#include "cleaning/fscr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

#include "common/distance.h"

namespace mlnclean {

namespace {

// One fused cell: the target attribute, the repair value's id in the
// cleaned dataset's dictionary (dirty ids are a prefix of it, so dirty
// cells compare directly), and a pointer to the value string owned by the
// γ it came from.
struct AssignedCell {
  AttrId attr;
  ValueId id;
  const Value* value;
};

// The cells one γ assigns. Conflict checks compare ids — within one
// attribute's dictionary, id equality is value equality.
using Assignment = std::vector<AssignedCell>;

// A stage-1 clean version of a tuple: a γ (one per block the tuple is in
// scope for). The flattened (attr, id, value) form is shared with every
// other tuple the γ covers — it is computed once per γ, not once per
// (γ, tuple).
struct Version {
  size_t block_index = 0;
  const Piece* piece = nullptr;
  const Assignment* assignment = nullptr;
  double weight = 0.0;
};

// Returns the cell assigned to `attr`, or nullptr.
const AssignedCell* Lookup(const Assignment& a, AttrId attr) {
  for (const auto& cell : a) {
    if (cell.attr == attr) return &cell;
  }
  return nullptr;
}

// Flattens a γ into assigned cells using its rule's attribute lists,
// resolving every value to an id in `cleaned`'s dictionaries (interning is
// only needed for hand-built pieces whose values never occurred in the
// data; grounded pieces reuse their dataset ids).
Assignment PieceAssignment(const Constraint& rule, const Piece& piece,
                           Dataset* cleaned) {
  Assignment out;
  const auto& reason_attrs = rule.reason_attrs();
  const auto& result_attrs = rule.result_attrs();
  out.reserve(reason_attrs.size() + result_attrs.size());
  auto resolve = [&](AttrId attr, const Value& value, const std::vector<ValueId>& ids,
                     size_t i) {
    ValueId id;
    if (i < ids.size() && ids[i] < cleaned->dict(attr).size() &&
        cleaned->dict(attr).value(ids[i]) == value) {
      id = ids[i];
    } else {
      id = cleaned->InternValue(attr, value);
    }
    out.push_back(AssignedCell{attr, id, &value});
  };
  for (size_t i = 0; i < reason_attrs.size(); ++i) {
    resolve(reason_attrs[i], piece.reason[i], piece.reason_ids, i);
  }
  for (size_t i = 0; i < result_attrs.size(); ++i) {
    resolve(result_attrs[i], piece.result[i], piece.result_ids, i);
  }
  return out;
}

// Per-block list of γs sorted by descending weight, for the γ' fallback
// search of Algorithm 2 (line 19). Assignments point into the per-piece
// storage owned by RunFscr.
struct BlockCandidates {
  std::vector<const Piece*> by_weight;
  std::vector<const Assignment*> assignments;
};

constexpr uint32_t kUnassigned = ~uint32_t{0};

// Dominance memo of one tuple's search: fixed-width word keys, each
// mapped to the largest f seen with it. Open addressing with linear
// probing; every entry carries the generation it was written in, so
// Clear() is O(1) and the table allocates only while growing towards the
// largest search its shard has run.
class DominanceMemo {
 public:
  explicit DominanceMemo(size_t width) : width_(width) {}

  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: stale stamps could match again
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }

  // True when `key` was seen before with an f >= `f`; otherwise records
  // `f` as the key's best and returns false.
  bool Dominated(const uint32_t* key, double f) {
    if (2 * (size_ + 1) > capacity_) Grow();
    size_t slot = Hash(key) & (capacity_ - 1);
    while (stamps_[slot] == generation_) {
      if (std::equal(key, key + width_, &keys_[slot * width_])) {
        if (f <= best_[slot]) return true;
        best_[slot] = f;
        return false;
      }
      slot = (slot + 1) & (capacity_ - 1);
    }
    stamps_[slot] = generation_;
    std::copy(key, key + width_, &keys_[slot * width_]);
    best_[slot] = f;
    ++size_;
    return false;
  }

 private:
  uint64_t Hash(const uint32_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ull;
    for (size_t i = 0; i < width_; ++i) {
      h = (h ^ key[i]) * 0xFF51AFD7ED558CCDull;
      h ^= h >> 29;
    }
    return h;
  }

  void Grow() {
    std::vector<uint32_t> old_keys = std::move(keys_);
    std::vector<double> old_best = std::move(best_);
    std::vector<uint32_t> old_stamps = std::move(stamps_);
    const size_t old_capacity = capacity_;
    capacity_ = std::max<size_t>(64, 2 * capacity_);
    keys_.assign(capacity_ * width_, 0);
    best_.assign(capacity_, 0.0);
    stamps_.assign(capacity_, 0);
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old_stamps[i] != generation_) continue;
      const uint32_t* key = &old_keys[i * width_];
      size_t slot = Hash(key) & (capacity_ - 1);
      while (stamps_[slot] == generation_) slot = (slot + 1) & (capacity_ - 1);
      stamps_[slot] = generation_;
      std::copy(key, key + width_, &keys_[slot * width_]);
      best_[slot] = old_best[i];
    }
  }

  const size_t width_;
  size_t capacity_ = 0;  // a power of two (or 0)
  size_t size_ = 0;
  uint32_t generation_ = 0;
  std::vector<uint32_t> keys_;
  std::vector<double> best_;
  std::vector<uint32_t> stamps_;
};

// Search state one shard reuses across the tuples it fuses. `key` is the
// dominance-memo key of the current node, kept up to date in place:
// key[0] is the remaining-version mask, key[1 + attr] the id assigned to
// `attr` (kUnassigned when none; conflict checks read this slot table),
// and the last two words the bits of the running distance sum. `cells`
// is the fusion being built, in merge order, and `sums[k]` the distance
// sum of its first k cells. Between tuples the stack is empty, `sums` is
// {0} and every attribute slot is kUnassigned.
struct FusionWorkspace {
  explicit FusionWorkspace(size_t num_attrs)
      : key(num_attrs + 3, kUnassigned), memo(key.size()) {
    cells.reserve(num_attrs);
    sums.reserve(num_attrs + 1);
    sums.push_back(0.0);
  }

  std::vector<AssignedCell> cells;
  std::vector<double> sums;
  std::vector<uint32_t> key;
  std::vector<AssignedCell> best;
  std::vector<uint32_t> conflict_masks;
  DominanceMemo memo;
};

// GetFusionT for one tuple: a depth-first walk of merge orders over a
// cell stack (`remaining` is a bitmask over the tuple's versions), with
// exact state-dominance pruning. A node's state is its remaining mask,
// the set of assigned cells, and the running distance sum: conflict
// checks, γ' substitution and merging read the cells only as a set, and
// the score continues the same left fold of distances, so everything
// below a node is a function of that state and of f. With every weight
// >= 0, multiplying by the weights still to come and by the minimality
// factor is monotone in f, so a node whose state was already explored
// with an f at least as large cannot reach a strictly better leaf (the
// state cannot repeat on one path, so that earlier subtree is complete),
// and best_f_ moves only on a strict improvement: skipping it changes
// nothing. The distance sum has to be part of the state — (0.1+0.2)+0.3
// and (0.3+0.2)+0.1 differ in the last bit.
class FusionSearch {
 public:
  FusionSearch(const std::vector<Version>& versions,
               const std::vector<BlockCandidates>& candidates, size_t node_budget,
               bool prune, const Dataset& dirty, TupleId tid,
               double minimality_discount, FusionWorkspace* ws)
      : versions_(versions),
        candidates_(candidates),
        node_budget_(node_budget),
        prune_(prune),
        dirty_(dirty),
        tid_(tid),
        minimality_discount_(minimality_discount),
        ws_(*ws) {}

  // Exhaustive search. Returns the best (minimality-discounted) f-score,
  // 0 when every merge order fails; the fusion is left in ws->best.
  double Run() {
    if (prune_) ws_.memo.Clear();
    Explore(FullMask(), 1.0);
    return best_f_;
  }

  // Fallback for tuples with more versions than the exhaustive cap: merge
  // in descending-weight order with the same substitution rule. Returns
  // the f-score (<= 0 when the order fails); the fusion is left in
  // ws->best.
  double Greedy() {
    std::vector<size_t> order(versions_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return versions_[a].weight > versions_[b].weight;
    });
    double f = 1.0;
    for (size_t j : order) {
      double w = 0.0;
      if (!Merge(versions_[j], &w)) {
        f = 0.0;
        break;
      }
      f *= w;
    }
    if (f > 0.0) {
      f = Score(f);
      ws_.best = ws_.cells;
    }
    Pop(0);
    return f;
  }

  // True when the node budget cut the exhaustive search short.
  bool truncated() const { return truncated_; }

 private:
  uint32_t FullMask() const {
    return versions_.size() >= 32 ? ~uint32_t{0}
                                  : ((uint32_t{1} << versions_.size()) - 1);
  }

  // f-score of the complete fusion on the stack: the Eq. 5 weight product
  // times the minimality discount raised to the total *normalized edit
  // distance* between the fusion and the tuple's current values.
  // Rewriting a value entirely costs a full discount factor; nudging a
  // typo costs a small fraction — the same distance-over-minimality
  // reasoning the reliability score applies in stage I.
  double Score(double f) const {
    const double total = ws_.sums.back();
    return total == 0.0 ? f : f * std::pow(minimality_discount_, total);
  }

  void Consider(double f) {
    const double total = Score(f);
    if (total > best_f_) {
      best_f_ = total;
      ws_.best = ws_.cells;
    }
  }

  uint32_t& Slot(AttrId attr) { return ws_.key[1 + static_cast<size_t>(attr)]; }

  // True when `v` disagrees with the stack on some assigned attribute.
  bool Conflicts(const Assignment& v) {
    for (const auto& cell : v) {
      const uint32_t cur = Slot(cell.attr);
      if (cur != kUnassigned && cur != cell.id) return true;
    }
    return false;
  }

  // Pushes the cells of `v` on attributes not yet assigned. Each cell's
  // distance to the tuple's current value (unchanged cells are detected
  // by id alone) is added to the running sum as it is pushed, so the sum
  // folds left to right in merge order.
  void Push(const Assignment& v) {
    for (const auto& cell : v) {
      uint32_t& slot = Slot(cell.attr);
      if (slot != kUnassigned) continue;
      slot = cell.id;
      double sum = ws_.sums.back();
      if (dirty_.id_at(tid_, cell.attr) != cell.id) {
        const Value& current = dirty_.at(tid_, cell.attr);
        const size_t max_len = std::max(current.size(), cell.value->size());
        if (max_len != 0) {
          sum += static_cast<double>(Levenshtein(current, *cell.value)) / max_len;
        }
      }
      ws_.cells.push_back(cell);
      ws_.sums.push_back(sum);
    }
  }

  // Pops the stack back to `depth` cells.
  void Pop(size_t depth) {
    while (ws_.cells.size() > depth) {
      Slot(ws_.cells.back().attr) = kUnassigned;
      ws_.cells.pop_back();
      ws_.sums.pop_back();
    }
  }

  // Merges version `v` into the stack and sets `*w` to the weight of the
  // γ merged. When `v` conflicts with the stack, it is substituted by the
  // highest-weight γ' of its block (other than v's own γ) that does not
  // (Algorithm 2 line 19); false when there is none (this merge order
  // fails, f = 0).
  bool Merge(const Version& v, double* w) {
    if (!Conflicts(*v.assignment)) {
      Push(*v.assignment);
      *w = v.weight;
      return true;
    }
    const BlockCandidates& cands = candidates_[v.block_index];
    for (size_t c = 0; c < cands.by_weight.size(); ++c) {
      if (cands.by_weight[c] == v.piece) continue;  // Bj - {γj}
      if (!Conflicts(*cands.assignments[c])) {
        Push(*cands.assignments[c]);
        *w = cands.by_weight[c]->weight;
        return true;
      }
    }
    return false;
  }

  bool RemainingConflictFree(uint32_t remaining) {
    for (size_t j = 0; j < versions_.size(); ++j) {
      if (((remaining >> j) & 1u) == 0) continue;
      if (ws_.conflict_masks[j] & remaining) return false;
      if (Conflicts(*versions_[j].assignment)) return false;
    }
    return true;
  }

  // True when this node's state was already explored with an f at least
  // as large (see the class comment); otherwise records f for it.
  bool Dominated(uint32_t remaining, double f) {
    std::vector<uint32_t>& key = ws_.key;
    const size_t n = key.size();
    uint64_t sum_bits;
    std::memcpy(&sum_bits, &ws_.sums.back(), sizeof(sum_bits));
    key[0] = remaining;
    key[n - 2] = static_cast<uint32_t>(sum_bits);
    key[n - 1] = static_cast<uint32_t>(sum_bits >> 32);
    return ws_.memo.Dominated(key.data(), f);
  }

  void Explore(uint32_t remaining, double f) {
    if (node_budget_ == 0) {
      truncated_ = true;
      return;
    }
    --node_budget_;
    if (remaining == 0) {
      Consider(f);
      return;
    }
    const size_t depth = ws_.cells.size();
    // Fast path: when the remaining versions neither conflict pairwise nor
    // with the stack, the product is order-independent; they are merged
    // once, in version order.
    if (RemainingConflictFree(remaining)) {
      double total = f;
      for (size_t j = 0; j < versions_.size(); ++j) {
        if ((remaining >> j) & 1u) {
          total *= versions_[j].weight;
          Push(*versions_[j].assignment);
        }
      }
      Consider(total);
      Pop(depth);
      return;
    }
    if (prune_ && Dominated(remaining, f)) return;
    for (size_t j = 0; j < versions_.size(); ++j) {
      if (((remaining >> j) & 1u) == 0) continue;
      if (node_budget_ == 0) {
        truncated_ = true;
        return;
      }
      double w = 0.0;
      if (!Merge(versions_[j], &w)) continue;
      Explore(remaining & ~(uint32_t{1} << j), f * w);
      Pop(depth);
    }
  }

  const std::vector<Version>& versions_;
  const std::vector<BlockCandidates>& candidates_;
  size_t node_budget_;
  const bool prune_;
  const Dataset& dirty_;
  TupleId tid_;
  double minimality_discount_;
  FusionWorkspace& ws_;
  double best_f_ = 0.0;
  bool truncated_ = false;
};

}  // namespace

void RunFscr(const Dataset& dirty, const RuleSet& rules, const MlnIndex& index,
             const CleaningOptions& options, Dataset* cleaned,
             CleaningReport* report, const ExecContext& ctx) {
  const size_t num_rows = dirty.num_rows();
  // Per block: every γ's flattened assignment, computed exactly once (a γ
  // covering k tuples used to be flattened k times). Value-to-id
  // resolution (and any interning of never-seen values) happens here, in
  // the sequential setup — the parallel fusion below only reads
  // dictionaries and writes column slots via set_id.
  std::vector<std::vector<const Piece*>> block_pieces(index.num_blocks());
  std::vector<std::vector<Assignment>> block_assignments(index.num_blocks());
  // tid -> versions (one per block whose γ covers the tuple).
  std::vector<std::vector<Version>> versions_of(num_rows);
  std::vector<BlockCandidates> candidates(index.num_blocks());
  // Dominance pruning is exact only while extending a fusion can never
  // reverse the order of two f values, i.e. when no weight is negative (or
  // NaN). Learned weights are probability-scale, so this holds in
  // practice; it is checked here, not assumed.
  bool prune = true;
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    const Block& block = index.block(bi);
    const Constraint& rule = rules.rule(block.rule_index);
    std::vector<const Piece*>& pieces = block_pieces[bi];
    std::vector<Assignment>& assignments = block_assignments[bi];
    pieces.reserve(block.PieceCount());
    for (const Group& group : block.groups) {
      for (const Piece& piece : group.pieces) pieces.push_back(&piece);
    }
    assignments.reserve(pieces.size());
    for (const Piece* piece : pieces) {
      assignments.push_back(PieceAssignment(rule, *piece, cleaned));
    }
    for (size_t pi = 0; pi < pieces.size(); ++pi) {
      Version v;
      v.block_index = bi;
      v.piece = pieces[pi];
      v.assignment = &assignments[pi];
      v.weight = pieces[pi]->weight;
      if (!(v.weight >= 0.0)) prune = false;
      for (TupleId tid : pieces[pi]->tuples) {
        versions_of[static_cast<size_t>(tid)].push_back(v);
      }
    }
    // Candidate order for the γ' fallback: descending weight.
    BlockCandidates& cands = candidates[bi];
    std::vector<size_t> order(pieces.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return pieces[a]->weight > pieces[b]->weight;
    });
    cands.by_weight.reserve(order.size());
    cands.assignments.reserve(order.size());
    for (size_t i : order) {
      cands.by_weight.push_back(pieces[i]);
      cands.assignments.push_back(&assignments[i]);
    }
  }

  // Fusion is per tuple (reads shared candidates, writes only its own row
  // and record slot), so the tuple space shards freely across threads; the
  // record vector is indexed by tid, keeping the report in tuple order no
  // matter which shard finishes first. Without a report the records are
  // not materialized at all.
  std::vector<FscrRecord> records(report ? num_rows : 0);
  auto fuse_tuple = [&](size_t tid, FusionWorkspace* ws) {
    std::vector<Version>& versions = versions_of[tid];
    FscrRecord local;
    FscrRecord& rec = report ? records[tid] : local;
    rec.tuple = static_cast<TupleId>(tid);
    if (versions.empty()) return;
    // Conflict attributes among the original versions (order-independent;
    // this is the "detected conflicts" signal of the Precision-F metric).
    // The bitmask only tracks the first 32 versions — the exhaustive search
    // is capped below that anyway — but conflict_attrs records every pair.
    std::vector<uint32_t>& conflict_masks = ws->conflict_masks;
    conflict_masks.assign(versions.size(), 0);
    for (size_t i = 0; i < versions.size(); ++i) {
      for (size_t j = i + 1; j < versions.size(); ++j) {
        for (const auto& cell : *versions[i].assignment) {
          const AssignedCell* other = Lookup(*versions[j].assignment, cell.attr);
          if (other != nullptr && other->id != cell.id) {
            if (j < 32) conflict_masks[i] |= uint32_t{1} << j;
            if (i < 32) conflict_masks[j] |= uint32_t{1} << i;
            if (std::find(rec.conflict_attrs.begin(), rec.conflict_attrs.end(),
                          cell.attr) == rec.conflict_attrs.end()) {
              rec.conflict_attrs.push_back(cell.attr);
            }
          }
        }
      }
    }

    FusionSearch search(versions, candidates, options.max_fusion_nodes, prune, dirty,
                        static_cast<TupleId>(tid), options.fscr_minimality_discount,
                        ws);
    // The search's version bitmask is a uint32_t, so exhaustive exploration
    // is hard-capped at 31 versions regardless of the configured limit.
    const bool exhaustive =
        versions.size() <= std::min<size_t>(options.max_exhaustive_fusion, 31);
    const double f = exhaustive ? search.Run() : search.Greedy();
    if (!exhaustive) {
      rec.outcome = FusionOutcome::kGreedy;
    } else if (search.truncated()) {
      rec.outcome = FusionOutcome::kBudgetExhausted;
    }
    if (f > 0.0) {
      rec.fused = true;
      rec.f_score = f;
      for (const auto& cell : ws->best) {
        cleaned->set_id(static_cast<TupleId>(tid), cell.attr, cell.id);
      }
    }
    // f == 0: every merge order failed; the tuple keeps its current values
    // (Algorithm 2 initializes tfmax to t itself).
  };

  const size_t num_attrs = dirty.num_attrs();
  const size_t parallelism = ctx.parallelism();
  if (parallelism <= 1 || num_rows <= 1) {
    FusionWorkspace ws(num_attrs);
    for (size_t tid = 0; tid < num_rows; ++tid) {
      if (ctx.Stopped()) return;
      fuse_tuple(tid, &ws);
      ctx.Tick(1);
    }
  } else {
    // Contiguous shards, one per worker, each with its own search
    // workspace: each tuple's fusion is computed identically regardless of
    // which shard runs it, so the shard count (and hence the executor's
    // worker count) never changes the result.
    const size_t shards = parallelism;
    const size_t chunk = (num_rows + shards - 1) / shards;
    ParallelFor(shards, ctx, [&](size_t s) {
      const size_t begin = s * chunk;
      const size_t end = std::min(num_rows, begin + chunk);
      FusionWorkspace ws(num_attrs);
      for (size_t tid = begin; tid < end; ++tid) {
        if (ctx.Stopped()) return;
        fuse_tuple(tid, &ws);
        ctx.Tick(1);
      }
    });
  }

  if (report) {
    report->fscr.reserve(report->fscr.size() + records.size());
    std::move(records.begin(), records.end(), std::back_inserter(report->fscr));
  }
}

}  // namespace mlnclean
