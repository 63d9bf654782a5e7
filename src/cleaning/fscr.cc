#include "cleaning/fscr.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/distance.h"

namespace mlnclean {

namespace {

// A tuple with at most this many active versions (and at most
// kMaskWidth versions in all) is searched exhaustively; any other is
// fused greedily. The paper's rule sets have at most 7 rules, hence at
// most 7 versions per tuple, and 7 active versions bound the search at
// the sum of 7!/(7-k)! over k = 0..7, i.e. 13,700 nodes.
constexpr size_t kMaxExhaustiveFusion = 7;

// Width of the search's version masks.
constexpr size_t kMaskWidth = 32;

// 64-bit finalizer (MurmurHash3's fmix64).
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// One fused cell: the target attribute, the repair value's id (an id of
// the dirty dataset the index was built over; the cleaned dataset's
// dictionaries extend it, so ids carry over), and the cell's word in the
// visited set's incremental hash (a mix of attr and id, computed once
// per γ).
struct AssignedCell {
  AttrId attr;
  ValueId id;
  uint64_t hash;
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

// Flattens a γ into assigned cells using its rule's attribute order.
Assignment PieceAssignment(const Constraint& rule, const Piece& piece) {
  const std::vector<AttrId>& attrs = rule.attrs();
  Assignment out;
  out.reserve(attrs.size());
  for (size_t p = 0; p < attrs.size(); ++p) {
    const AttrId attr = attrs[p];
    const ValueId id = piece.ids[p];
    const uint64_t hash =
        Mix((static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32 | id) +
            0x9E3779B97F4A7C15ull);
    out.push_back(AssignedCell{attr, id, hash});
  }
  return out;
}

// Posting lists of one γ position of a block: the ranks (indexes into
// BlockCandidates::by_weight) of the γs holding id `id` at that position
// are ranks[offsets[id], offsets[id + 1]), ascending. An id past the last
// offset has no posting.
struct Postings {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> ranks;

  // Sets [*first, *last) to id's list.
  void Of(ValueId id, const uint32_t** first, const uint32_t** last) const {
    if (id + size_t{1} < offsets.size()) {
      *first = ranks.data() + offsets[id];
      *last = ranks.data() + offsets[id + 1];
    } else {
      *first = *last = ranks.data();
    }
  }
};

// Per-block list of γs sorted by descending weight, for the γ' fallback
// search of Algorithm 2 (line 19), with one Postings per γ position (every
// γ of a block assigns its rule's attributes, in the same order).
// Assignments point into the per-piece storage owned by RunFscr.
struct BlockCandidates {
  std::vector<const Piece*> by_weight;
  std::vector<const Assignment*> assignments;
  std::vector<Postings> postings;
};

// Builds `cands`' posting lists with one counting sort over the ids per
// position: filling in rank order keeps each list ascending.
void BuildPostings(BlockCandidates* cands) {
  if (cands->assignments.empty()) return;
  const size_t arity = cands->assignments.front()->size();
  const size_t n = cands->assignments.size();
  cands->postings.resize(arity);
  for (size_t p = 0; p < arity; ++p) {
    Postings& post = cands->postings[p];
    ValueId max_id = 0;
    for (const Assignment* a : cands->assignments) max_id = std::max(max_id, (*a)[p].id);
    post.offsets.assign(size_t{max_id} + 2, 0);
    for (const Assignment* a : cands->assignments) ++post.offsets[(*a)[p].id + size_t{1}];
    for (size_t i = 1; i < post.offsets.size(); ++i) post.offsets[i] += post.offsets[i - 1];
    post.ranks.resize(n);
    // Each id's offset advances past its entries as they are placed, so
    // afterwards offsets[id] holds the end of id's list; shifting the
    // array by one slot restores the starts.
    for (size_t r = 0; r < n; ++r) {
      post.ranks[post.offsets[(*cands->assignments[r])[p].id]++] = static_cast<uint32_t>(r);
    }
    for (size_t i = post.offsets.size() - 1; i > 0; --i) post.offsets[i] = post.offsets[i - 1];
    post.offsets[0] = 0;
  }
}

constexpr uint32_t kUnassigned = ~uint32_t{0};

// Visited set of one tuple's search: fixed-width word keys, each mapped
// to the sleep set its state was last explored with. Open addressing with
// linear probing on a hash the caller maintains incrementally; each entry
// stores its hash, compared before the full key, and carries the
// generation it was written in, so Clear() is O(1) and the table
// allocates only while growing towards the largest search its shard has
// run. The full key is always compared, so a hash collision never merges
// two states.
class VisitedSet {
 public:
  explicit VisitedSet(size_t width) : width_(width) {}

  void Clear() {
    size_ = 0;
    if (++generation_ == 0) {  // wrapped: stale stamps could match again
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }

  // Looks `key` (with hash `hash`) up. A new key is stored with sleep set
  // `sleep` and gives nullptr; a key seen before gives its stored sleep
  // set, valid until the next call.
  uint32_t* Visit(const uint32_t* key, uint64_t hash, uint32_t sleep) {
    if (2 * (size_ + 1) > capacity_) Grow();
    size_t slot = hash & (capacity_ - 1);
    while (stamps_[slot] == generation_) {
      if (hashes_[slot] == hash && std::equal(key, key + width_, &keys_[slot * width_])) {
        return &sleeps_[slot];
      }
      slot = (slot + 1) & (capacity_ - 1);
    }
    stamps_[slot] = generation_;
    hashes_[slot] = hash;
    std::copy(key, key + width_, &keys_[slot * width_]);
    sleeps_[slot] = sleep;
    ++size_;
    return nullptr;
  }

 private:
  void Grow() {
    std::vector<uint32_t> old_keys = std::move(keys_);
    std::vector<uint64_t> old_hashes = std::move(hashes_);
    std::vector<uint32_t> old_sleeps = std::move(sleeps_);
    std::vector<uint32_t> old_stamps = std::move(stamps_);
    const size_t old_capacity = capacity_;
    capacity_ = std::max<size_t>(64, 2 * capacity_);
    keys_.assign(capacity_ * width_, 0);
    hashes_.assign(capacity_, 0);
    sleeps_.assign(capacity_, 0);
    stamps_.assign(capacity_, 0);
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old_stamps[i] != generation_) continue;
      size_t slot = old_hashes[i] & (capacity_ - 1);
      while (stamps_[slot] == generation_) slot = (slot + 1) & (capacity_ - 1);
      stamps_[slot] = generation_;
      hashes_[slot] = old_hashes[i];
      const uint32_t* key = old_keys.data() + i * width_;
      std::copy(key, key + width_, &keys_[slot * width_]);
      sleeps_[slot] = old_sleeps[i];
    }
  }

  const size_t width_;
  size_t capacity_ = 0;  // a power of two (or 0)
  size_t size_ = 0;
  uint32_t generation_ = 0;
  std::vector<uint32_t> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> sleeps_;
  std::vector<uint32_t> stamps_;
};

// Normalized edit distance between a repair value and the dirty value it
// replaces, both ids of `attr`'s dictionary in `dirty`, memoized per
// (attr, dirty id, repair id): a term of a fusion's distance sum. Ids are
// fixed while FSCR runs, so one table serves every tuple of a shard. Open
// addressing, linear probing.
class CellDistanceMemo {
 public:
  double Get(const Dataset& dirty, AttrId attr, ValueId dirty_id, ValueId repair_id) {
    const uint64_t key = static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32 | dirty_id;
    if (2 * (size_ + 1) > entries_.size()) Grow();
    const size_t mask = entries_.size() - 1;
    size_t slot = Mix(key ^ Mix(repair_id)) & mask;
    while (entries_[slot].key != kEmpty) {
      if (entries_[slot].key == key && entries_[slot].repair == repair_id) {
        return entries_[slot].distance;
      }
      slot = (slot + 1) & mask;
    }
    const Value& dirty_value = dirty.dict(attr).value(dirty_id);
    const Value& repair = dirty.dict(attr).value(repair_id);
    const size_t max_len = std::max(dirty_value.size(), repair.size());
    const double distance =
        max_len == 0 ? 0.0 : static_cast<double>(Levenshtein(dirty_value, repair)) / max_len;
    entries_[slot] = Entry{key, repair_id, distance};
    ++size_;
    return distance;
  }

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};  // no attr is ~0u

  struct Entry {
    uint64_t key = kEmpty;  // attr << 32 | dirty id
    ValueId repair = 0;
    double distance = 0.0;
  };

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(std::max<size_t>(64, 2 * old.size()), Entry{});
    const size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.key == kEmpty) continue;
      size_t slot = Mix(e.key ^ Mix(e.repair)) & mask;
      while (entries_[slot].key != kEmpty) slot = (slot + 1) & mask;
      entries_[slot] = e;
    }
  }

  size_t size_ = 0;
  std::vector<Entry> entries_;  // size a power of two (or 0)
};

// One cell of a tuple's versions, filed under its attribute: the
// version's index, the id it assigns, and the cell's position in the
// version's assignment.
struct VersionCell {
  uint32_t version;
  ValueId id;
  uint32_t pos;
};

// The first conflict found on an attribute: versions i < j and the
// position of i's disagreeing cell.
struct FirstConflict {
  uint32_t i, j, pos;
  AttrId attr;

  bool operator<(const FirstConflict& o) const {
    return std::tie(i, j, pos) < std::tie(o.i, o.j, o.pos);
  }
};

// Search state one shard reuses across the tuples it fuses. `key` is the
// visited-set key of the current node, kept up to date in place: key[0]
// is the remaining-version mask and key[1 + attr] the id assigned to
// `attr` (kUnassigned when none; conflict checks and the score read this
// slot table). `cells` is the fusion being built, in merge order, and
// `masks.back()` the versions its tracked cells conflict with (one entry
// per tracked cell, above a 0). `weights[j]` is the weight of the γ
// merged for version j: its own γ's, or the γ' that replaced it. The
// per-attribute version lists are `entries[list_begin[a], list_begin[a +
// 1])`, in version order; `share_masks[j]` holds the versions whose rules
// share an attribute with version j's (j included). Between tuples the
// stack is empty, `masks` holds one 0 and every attribute slot is
// kUnassigned.
struct FusionWorkspace {
  explicit FusionWorkspace(size_t num_attrs)
      : key(num_attrs + 1, kUnassigned), list_begin(num_attrs + 1, 0), visited(key.size()) {
    cells.reserve(num_attrs);
    masks.reserve(num_attrs + 1);
    masks.push_back(0);
  }

  std::vector<AssignedCell> cells;
  std::vector<uint32_t> masks;
  std::vector<uint32_t> key;
  std::vector<double> weights;
  std::vector<AssignedCell> best;
  std::vector<uint32_t> conflict_masks;
  std::vector<uint32_t> share_masks;
  std::vector<uint32_t> list_begin;
  std::vector<VersionCell> entries;
  std::vector<FirstConflict> first_conflicts;
  VisitedSet visited;
  CellDistanceMemo distances;
};

// True when two of the `n` versions at `versions` assign different ids to
// one attribute. Uses the workspace's slot table and leaves it clear.
bool CellsDisagree(const Version* versions, size_t n, FusionWorkspace* ws) {
  bool disagree = false;
  for (const Version* v = versions; v != versions + n; ++v) {
    for (const AssignedCell& cell : *v->assignment) {
      uint32_t& slot = ws->key[1 + static_cast<size_t>(cell.attr)];
      if (slot == kUnassigned) {
        slot = cell.id;
      } else if (slot != cell.id) {
        disagree = true;
      }
    }
  }
  for (const Version* v = versions; v != versions + n; ++v) {
    for (const AssignedCell& cell : *v->assignment) {
      ws->key[1 + static_cast<size_t>(cell.attr)] = kUnassigned;
    }
  }
  return disagree;
}

// Files every cell of the `n` versions at `versions` under its attribute
// (a counting sort, so each list is in version order, then position
// order) and derives from the lists the pairwise conflict masks (over the
// first 32 versions) and `conflict_attrs`. Versions i < j conflict when a cell of i disagrees
// with j's first cell on the same attribute; an attribute is listed in
// the order it is first found over (i, j) pairs in lexicographic order,
// then over i's cells. Returns whether any pair conflicts.
bool IndexConflicts(const Version* versions, size_t n, FusionWorkspace* ws,
                    std::vector<AttrId>* conflict_attrs) {
  std::vector<uint32_t>& begin = ws->list_begin;
  std::fill(begin.begin(), begin.end(), 0);
  size_t total = 0;
  for (const Version* v = versions; v != versions + n; ++v) {
    for (const AssignedCell& cell : *v->assignment) ++begin[static_cast<size_t>(cell.attr) + 1];
    total += v->assignment->size();
  }
  for (size_t a = 1; a < begin.size(); ++a) begin[a] += begin[a - 1];
  ws->entries.resize(total);
  for (size_t j = 0; j < n; ++j) {
    const Assignment& cells = *versions[j].assignment;
    for (size_t pos = 0; pos < cells.size(); ++pos) {
      ws->entries[begin[static_cast<size_t>(cells[pos].attr)]++] = VersionCell{
          static_cast<uint32_t>(j), cells[pos].id, static_cast<uint32_t>(pos)};
    }
  }
  for (size_t a = begin.size() - 1; a > 0; --a) begin[a] = begin[a - 1];
  begin[0] = 0;

  ws->conflict_masks.assign(n, 0);
  std::vector<FirstConflict>& found = ws->first_conflicts;
  found.clear();
  for (size_t a = 0; a + 1 < begin.size(); ++a) {
    const VersionCell* first = ws->entries.data() + begin[a];
    const VersionCell* last = ws->entries.data() + begin[a + 1];
    bool any = false;
    FirstConflict earliest{};
    for (const VersionCell* q = first; q < last; ++q) {
      if (q != first && (q - 1)->version == q->version) continue;  // j's first cell only
      for (const VersionCell* p = first; p < q; ++p) {  // versions before j's
        if (p->id == q->id) continue;
        if (q->version < 32) ws->conflict_masks[p->version] |= uint32_t{1} << q->version;
        if (p->version < 32) ws->conflict_masks[q->version] |= uint32_t{1} << p->version;
        const FirstConflict c{p->version, q->version, p->pos, static_cast<AttrId>(a)};
        if (!any || c < earliest) earliest = c;
        any = true;
      }
    }
    if (any) found.push_back(earliest);
  }
  if (found.empty()) return false;
  std::sort(found.begin(), found.end());
  for (const FirstConflict& c : found) conflict_attrs->push_back(c.attr);
  return true;
}

// The versions a search must permute, as a mask over the `n` <=
// kMaskWidth versions IndexConflicts filed: every version that conflicts
// with another, closed under sharing an attribute with an active
// version. An inert version's attributes are touched by no active
// version, nor by any γ' substitute (a γ' comes from an active version's
// block, so it assigns that version's attributes), and it agrees with
// every other inert version; so its cells are the same in every fusion.
// Fills ws->share_masks on the way.
uint32_t ActiveVersions(size_t n, FusionWorkspace* ws) {
  std::vector<uint32_t>& share = ws->share_masks;
  share.assign(n, 0);
  const std::vector<uint32_t>& begin = ws->list_begin;
  for (size_t a = 0; a + 1 < begin.size(); ++a) {
    uint32_t touching = 0;
    for (uint32_t e = begin[a]; e < begin[a + 1]; ++e) {
      touching |= uint32_t{1} << ws->entries[e].version;
    }
    for (uint32_t e = begin[a]; e < begin[a + 1]; ++e) share[ws->entries[e].version] |= touching;
  }
  uint32_t active = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ws->conflict_masks[i] != 0) active |= uint32_t{1} << i;
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (size_t i = 0; i < n; ++i) {
      if ((active >> i & 1u) == 0 && (share[i] & active) != 0) {
        active |= uint32_t{1} << i;
        grew = true;
      }
    }
  }
  return active;
}

// GetFusionT for one tuple: a depth-first walk of merge orders over a
// cell stack (`remaining` is a bitmask over the tuple's versions) that
// explores each search state once. Inert versions (ActiveVersions) are
// merged once at the root, in version order, and only the active ones
// are permuted.
//
// A fusion's score is a function of the fusion, not of the order that
// found it: the weights of the γs merged for the versions (each one's
// own, or the γ' that replaced it), folded in version order, times the
// minimality discount raised to the distance sum of its cells, taken in
// attribute order. A node's state is its remaining mask and its assigned
// cells, and it fixes the γ merged for every version merged so far. A
// version merged as its own γ has all its cells among the assigned ones;
// a substituted one does not, for its γ conflicted with a cell that
// stays. A γ' assigns its version's attributes, so every γ' the state
// allows holds the values assigned there, and the one ranked first among
// them is the first conflict-free candidate in every order that reaches
// the state. Conflict checks, γ' lookups and merging read the cells only
// as a set, so everything below a node is a function of its state, for
// any weight sign: a state seen again leads to no leaf not already
// scored. best_f_ moves only on a strict improvement, so the first
// fusion found with the best score wins, as in a walk of every order.
//
// Merges that commute are not re-ordered (sleep sets: P. Godefroid,
// Partial-Order Methods for the Verification of Concurrent Systems, LNCS
// 1032, 1996, ch. 5). At a state, versions i and j are independent when
// their rules share no attribute (a merge, a γ' lookup or a failure of
// one reads and writes only its rule's attributes), or when both merge as
// their own γ there and do not conflict with each other; either order
// then reaches the same state. A child's sleep set holds the versions
// asleep or already explored at its parent that are independent of the
// version it merged: the sibling that merged them first reached the
// states they lead to. A visited state records the sleep set it was
// explored with; a revisit explores only the versions asleep then and
// awake now, and narrows the record to the versions asleep at both (the
// state-caching correction, ibid.). Each (state, version) pair is
// explored at most once.
//
// Below the root, the exhaustive search tracks conflicts: beside the
// stack it keeps the mask of versions its cells conflict with and the XOR
// of its cells' hash words, so a version's conflict check is one bit and
// the visited-set hash costs two words. The greedy path tests versions
// cell by cell.
class FusionSearch {
 public:
  FusionSearch(const Version* versions, size_t num_versions,
               const std::vector<BlockCandidates>& candidates, const Dataset& dirty,
               TupleId tid, double minimality_discount, FusionWorkspace* ws)
      : versions_(versions),
        num_versions_(num_versions),
        candidates_(candidates),
        dirty_(dirty),
        tid_(tid),
        minimality_discount_(minimality_discount),
        ws_(*ws) {
    ws_.weights.resize(num_versions);
  }

  // Exhaustive search over the versions in the `active` mask (non-zero
  // only when IndexConflicts filed the tuple's versions; at most
  // kMaskWidth versions in all), the inert ones merged first. Returns the
  // best (minimality-discounted) f-score, 0 when every merge order fails;
  // the fusion is left in ws->best.
  double Run(uint32_t active) {
    if (active != 0) ws_.visited.Clear();
    const uint32_t all = ~uint32_t{0} >> (kMaskWidth - num_versions_);
    for (uint32_t m = all & ~active; m != 0; m &= m - 1) {
      const size_t j = static_cast<size_t>(__builtin_ctz(m));
      ws_.weights[j] = versions_[j].weight;
      Push<false>(*versions_[j].assignment);
    }
    Explore(active, 0);
    Pop<false>(0);
    return best_f_;
  }

  // Fallback for tuples with more than kMaxExhaustiveFusion active
  // versions, or more than kMaskWidth versions: merge in descending-weight
  // order with the same substitution rule. Returns the f-score (<= 0 when
  // the order fails); the fusion is left in ws->best.
  double Greedy() {
    std::vector<size_t> order(num_versions_);
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return versions_[a].weight > versions_[b].weight;
    });
    bool merged = true;
    for (size_t j : order) {
      if (!Merge<false>(j)) {
        merged = false;
        break;
      }
    }
    double f = merged ? WeightProduct() : 0.0;
    if (f > 0.0) {
      f = Score(f);
      ws_.best = ws_.cells;
    }
    Pop<false>(0);
    return f;
  }

  // Work counters (FscrRecord::nodes, dominance_hits, substitutions).
  size_t nodes() const { return nodes_; }
  size_t dominance_hits() const { return dominance_hits_; }
  size_t substitutions() const { return substitutions_; }

 private:
  // The Eq. 5 weight product of a complete fusion: the weights merged for
  // the versions, in version order.
  double WeightProduct() const {
    double f = 1.0;
    for (size_t j = 0; j < num_versions_; ++j) f *= ws_.weights[j];
    return f;
  }

  // f-score of the complete fusion on the stack: the weight product `f`
  // times the minimality discount raised to the total *normalized edit
  // distance* between the fusion and the tuple's current values, summed
  // over the attributes in order (unchanged cells are detected by id
  // alone). Rewriting a value entirely costs a full discount factor;
  // nudging a typo costs a small fraction — the same
  // distance-over-minimality reasoning the reliability score applies in
  // stage I.
  double Score(double f) {
    double total = 0.0;
    for (size_t a = 1; a < ws_.key.size(); ++a) {
      const ValueId id = ws_.key[a];
      if (id == kUnassigned) continue;
      const AttrId attr = static_cast<AttrId>(a - 1);
      const ValueId current = dirty_.id_at(tid_, attr);
      if (id != current) total += ws_.distances.Get(dirty_, attr, current, id);
    }
    return total == 0.0 ? f : f * std::pow(minimality_discount_, total);
  }

  void Consider() {
    const double total = Score(WeightProduct());
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

  // Pushes the cells of `v` on attributes not yet assigned. A tracking
  // push also marks the versions the cell conflicts with and folds the
  // cell into the hash.
  template <bool kTrack>
  void Push(const Assignment& v) {
    for (const auto& cell : v) {
      uint32_t& slot = Slot(cell.attr);
      if (slot != kUnassigned) continue;
      slot = cell.id;
      ws_.cells.push_back(cell);
      if (kTrack) {
        uint32_t mask = ws_.masks.back();
        const size_t a = static_cast<size_t>(cell.attr);
        for (uint32_t e = ws_.list_begin[a]; e < ws_.list_begin[a + 1]; ++e) {
          if (ws_.entries[e].id != cell.id) mask |= uint32_t{1} << ws_.entries[e].version;
        }
        ws_.masks.push_back(mask);
        cell_hash_ ^= cell.hash;
      }
    }
  }

  // Pops the stack back to `depth` cells, undoing pushes of the same kind.
  template <bool kTrack>
  void Pop(size_t depth) {
    while (ws_.cells.size() > depth) {
      if (kTrack) {
        cell_hash_ ^= ws_.cells.back().hash;
        ws_.masks.pop_back();
      }
      Slot(ws_.cells.back().attr) = kUnassigned;
      ws_.cells.pop_back();
    }
  }

  // Merges version `j` into the stack and records the weight of the γ
  // merged in ws->weights[j]. When it conflicts with the stack, it is
  // substituted by the highest-weight γ' of its block (other than its own
  // γ) that does not (Algorithm 2 line 19); false when there is none
  // (this merge order fails, f = 0). A γ' must agree with the stack on
  // every position the stack assigns, so only the shortest such posting
  // list is scanned, in rank order; an assigned id with no posting means
  // there is no γ'.
  template <bool kTrack>
  bool Merge(size_t j) {
    const Version& v = versions_[j];
    const bool conflicts = kTrack ? ((ws_.masks.back() >> j) & 1u) != 0
                                  : Conflicts(*v.assignment);
    if (!conflicts) {
      Push<kTrack>(*v.assignment);
      ws_.weights[j] = v.weight;
      return true;
    }
    const BlockCandidates& cands = candidates_[v.block_index];
    const Assignment& own = *v.assignment;
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
    for (size_t p = 0; p < own.size(); ++p) {
      const uint32_t cur = Slot(own[p].attr);
      if (cur == kUnassigned) continue;
      const uint32_t* first;
      const uint32_t* last;
      cands.postings[p].Of(cur, &first, &last);
      if (first == last) return false;
      if (begin == nullptr || last - first < end - begin) {
        begin = first;
        end = last;
      }
    }
    for (const uint32_t* r = begin; r != end; ++r) {
      if (cands.by_weight[*r] == v.piece) continue;  // Bj - {γj}
      if (!Conflicts(*cands.assignments[*r])) {
        ++substitutions_;
        Push<kTrack>(*cands.assignments[*r]);
        ws_.weights[j] = cands.by_weight[*r]->weight;
        return true;
      }
    }
    return false;
  }

  bool RemainingConflictFree(uint32_t remaining) const {
    if (ws_.masks.back() & remaining) return false;
    for (uint32_t m = remaining; m != 0; m &= m - 1) {
      if (ws_.conflict_masks[static_cast<size_t>(__builtin_ctz(m))] & remaining) return false;
    }
    return true;
  }

  // Explores the node reached with `remaining` versions still to merge,
  // none of those in `sleep` (see the class comment).
  void Explore(uint32_t remaining, uint32_t sleep) {
    ++nodes_;
    if (remaining == 0) {
      Consider();
      return;
    }
    const size_t depth = ws_.cells.size();
    // Fast path: when the remaining versions neither conflict pairwise nor
    // with the stack, every order merges the same cells; they are merged
    // once, in version order.
    if (RemainingConflictFree(remaining)) {
      for (uint32_t m = remaining; m != 0; m &= m - 1) {
        const size_t j = static_cast<size_t>(__builtin_ctz(m));
        ws_.weights[j] = versions_[j].weight;
        Push<false>(*versions_[j].assignment);
      }
      Consider();
      Pop<false>(depth);
      return;
    }
    // A node whose versions are all asleep needs no record: a later visit
    // would explore the versions awake then either way.
    uint32_t todo = remaining & ~sleep;
    if (todo != 0) {
      ws_.key[0] = remaining;
      const uint64_t hash = cell_hash_ ^ Mix(remaining);
      if (uint32_t* stored = ws_.visited.Visit(ws_.key.data(), hash, sleep)) {
        todo &= *stored;
        sleep &= *stored;
        *stored = sleep;
      }
    }
    if (todo == 0) {
      ++dominance_hits_;
      return;
    }
    const uint32_t own = ~ws_.masks.back();  // versions merged as their own γ here
    for (uint32_t m = todo; m != 0; m &= m - 1) {
      const size_t j = static_cast<size_t>(__builtin_ctz(m));
      const uint32_t bit = uint32_t{1} << j;
      uint32_t independent = ~ws_.share_masks[j];
      if (own & bit) independent |= own & ~ws_.conflict_masks[j];
      if (Merge<true>(j)) {
        const uint32_t rest = remaining & ~bit;
        Explore(rest, sleep & independent & rest);
        Pop<true>(depth);
      }
      sleep |= bit;
    }
  }

  const Version* versions_;
  const size_t num_versions_;
  const std::vector<BlockCandidates>& candidates_;
  const Dataset& dirty_;
  TupleId tid_;
  double minimality_discount_;
  FusionWorkspace& ws_;
  uint64_t cell_hash_ = 0;
  double best_f_ = 0.0;
  size_t nodes_ = 0;
  size_t dominance_hits_ = 0;
  size_t substitutions_ = 0;
};

}  // namespace

size_t RunFscr(const Dataset& dirty, const RuleSet& rules, const MlnIndex& index,
               const CleaningOptions& options, Dataset* cleaned,
               CleaningReport* report, const ExecContext& ctx) {
  const size_t num_rows = dirty.num_rows();
  // Per block: every γ's flattened assignment, computed exactly once (a γ
  // covering k tuples used to be flattened k times). The parallel fusion
  // below only reads dictionaries and writes column slots via set_id.
  std::vector<std::vector<const Piece*>> block_pieces(index.num_blocks());
  std::vector<std::vector<Assignment>> block_assignments(index.num_blocks());
  // tid -> versions (one per block whose γ covers the tuple, in block
  // order): versions[version_begin[tid], version_begin[tid + 1]), filled
  // after a count pass over every γ's tuples.
  std::vector<size_t> version_begin(num_rows + 1, 0);
  std::vector<Version> versions;
  std::vector<BlockCandidates> candidates(index.num_blocks());
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
      assignments.push_back(PieceAssignment(rule, *piece));
    }
    for (const Piece* piece : pieces) {
      for (TupleId tid : piece->tuples) ++version_begin[static_cast<size_t>(tid) + 1];
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
    BuildPostings(&cands);
  }
  // The counts become offsets by a prefix sum; the fill keeps block order,
  // then piece order, within each tuple.
  for (size_t tid = 0; tid < num_rows; ++tid) version_begin[tid + 1] += version_begin[tid];
  versions.resize(version_begin[num_rows]);
  std::vector<size_t> next(version_begin.begin(), version_begin.end() - 1);
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    const std::vector<const Piece*>& pieces = block_pieces[bi];
    for (size_t pi = 0; pi < pieces.size(); ++pi) {
      const Version v{bi, pieces[pi], &block_assignments[bi][pi], pieces[pi]->weight};
      for (TupleId tid : pieces[pi]->tuples) versions[next[static_cast<size_t>(tid)]++] = v;
    }
  }

  // Fusion is per tuple (reads shared candidates, writes only its own row
  // and record slot), so the tuple space shards freely across threads; the
  // records are appended to the report up front and indexed by tid,
  // keeping the report in tuple order no matter which shard finishes
  // first. Without a report the records are not materialized at all.
  const size_t first_record = report ? report->fscr.size() : 0;
  FscrRecord* records = nullptr;
  if (report) {
    report->fscr.resize(first_record + num_rows);
    records = report->fscr.data() + first_record;
  }
  // Returns whether the tuple was fused greedily.
  auto fuse_tuple = [&](size_t tid, FusionWorkspace* ws) {
    const Version* tuple_versions = versions.data() + version_begin[tid];
    const size_t n = version_begin[tid + 1] - version_begin[tid];
    FscrRecord local;
    FscrRecord& rec = report ? records[tid] : local;
    rec.tuple = static_cast<TupleId>(tid);
    if (n == 0) return false;
    // Conflict attributes among the original versions (the "detected
    // conflicts" signal of the Precision-F metric). Most tuples' versions
    // agree cell for cell; only the others get per-attribute lists, and
    // an exhaustive search over their active versions tracks conflicts
    // as masks. Past the mask width every version counts as active.
    const bool conflicted = CellsDisagree(tuple_versions, n, ws) &&
                            IndexConflicts(tuple_versions, n, ws, &rec.conflict_attrs);
    const uint32_t active = conflicted && n <= kMaskWidth ? ActiveVersions(n, ws) : 0;
    const size_t num_active =
        !conflicted ? 0 : n <= kMaskWidth ? static_cast<size_t>(__builtin_popcount(active)) : n;
    const bool exhaustive = n <= kMaskWidth && num_active <= kMaxExhaustiveFusion;
    FusionSearch search(tuple_versions, n, candidates, dirty, static_cast<TupleId>(tid),
                        options.fscr_minimality_discount, ws);
    const double f = exhaustive ? search.Run(active) : search.Greedy();
    if (!exhaustive) rec.outcome = FusionOutcome::kGreedy;
    if (report) {
      rec.active_versions = num_active;
      rec.nodes = search.nodes();
      rec.dominance_hits = search.dominance_hits();
      rec.substitutions = search.substitutions();
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
    return !exhaustive;
  };

  // Contiguous shards, at most one per worker and one per tuple, each with
  // its own search workspace and greedy count: each tuple's fusion is
  // computed identically regardless of which shard runs it, so the shard
  // count (and hence the executor's worker count) never changes the
  // result.
  const size_t num_attrs = dirty.num_attrs();
  const size_t shards = std::max<size_t>(1, std::min(ctx.parallelism(), num_rows));
  const size_t chunk = (num_rows + shards - 1) / shards;
  std::vector<size_t> greedy(shards, 0);
  ParallelFor(shards, ctx, [&](size_t s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(num_rows, begin + chunk);
    FusionWorkspace ws(num_attrs);
    for (size_t tid = begin; tid < end; ++tid) {
      if (ctx.Stopped()) return;
      if (fuse_tuple(tid, &ws)) ++greedy[s];
    }
  });
  // A stopped run appends no records, whichever tuples it fused.
  if (report && ctx.Stopped()) report->fscr.resize(first_record);
  return std::accumulate(greedy.begin(), greedy.end(), size_t{0});
}

}  // namespace mlnclean
