// Differential test of FSCR against a reference GetFusionT (Algorithm 2).
//
// The reference works on plain strings: a fusion is a vector of
// (attribute, value) cells in merge order. It splits a tuple's versions
// into active ones (those that conflict with another version, closed
// under sharing an attribute with an active one) and inert ones, merges
// the inert ones first, in version order, then walks every merge order of
// the active ones with no pruning and no memo. It records, per version,
// the weight of the γ merged for it (its own, or the γ' that replaced
// it) and scores a complete fusion the way RunFscr specifies it: those
// weights folded in version order, times the minimality discount raised
// to the sum of normalized edit distances to the dirty values, taken over
// the fusion's cells in attribute order. Once the versions still to merge
// conflict neither pairwise nor with the fusion, they are merged once, in
// version order (the conflict-free rule of the specification). Ties keep
// the first fusion found. A tuple with more than
// kExhaustiveCap active versions, or more than kMaskWidth versions, is
// fused greedily instead: its versions are merged once, by descending
// weight (the same std::sort comparator RunFscr uses), with the same
// substitution rule and the same version-order fold.
//
// RunFscr must agree with it bit for bit — every cleaned cell, and each
// record's `fused`, `f_score` (compared with ==), `conflict_attrs` and
// `outcome` — at 1 and 4 threads, on seeded random instances and on
// hand-built ones. An exhaustive record may visit at most kMaxNodes nodes,
// pruned or not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cleaning/agp.h"
#include "cleaning/fscr.h"
#include "cleaning/rsc.h"
#include "testing/hand_built.h"

namespace mlnclean {
namespace {

// The paper's rule sets have at most 7 rules, so FSCR searches up to 7
// active versions exhaustively: at most the sum of 7!/(7-k)! over
// k = 0..7 nodes. Its version masks hold 32 versions.
constexpr size_t kExhaustiveCap = 7;
constexpr size_t kMaskWidth = 32;
constexpr size_t kMaxNodes = 13700;

struct RefCell {
  AttrId attr;
  std::string value;
};
using RefFusion = std::vector<RefCell>;

struct RefVersion {
  size_t block;
  const Piece* piece;
  RefFusion cells;
  double weight;
};

// A γ's cells as (attribute, value string), its ids read through the
// dictionaries of `dirty`, the dataset its index was built over.
RefFusion PieceCells(const Dataset& dirty, const Constraint& rule, const Piece& piece) {
  RefFusion cells;
  for (size_t p = 0; p < rule.attrs().size(); ++p) {
    const AttrId attr = rule.attrs()[p];
    cells.push_back({attr, dirty.dict(attr).value(piece.ids[p])});
  }
  return cells;
}

const std::string* Find(const RefFusion& fusion, AttrId attr) {
  for (const RefCell& cell : fusion) {
    if (cell.attr == attr) return &cell.value;
  }
  return nullptr;
}

bool Conflicts(const RefFusion& fusion, const RefFusion& v) {
  for (const RefCell& cell : v) {
    const std::string* cur = Find(fusion, cell.attr);
    if (cur != nullptr && *cur != cell.value) return true;
  }
  return false;
}

void MergeInto(RefFusion* fusion, const RefFusion& v) {
  for (const RefCell& cell : v) {
    if (Find(*fusion, cell.attr) == nullptr) fusion->push_back(cell);
  }
}

size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

bool ShareAnAttribute(const RefFusion& a, const RefFusion& b) {
  for (const RefCell& cell : a) {
    if (Find(b, cell.attr) != nullptr) return true;
  }
  return false;
}

struct RefOutcome {
  std::vector<AttrId> conflict_attrs;
  bool fused = false;
  double f_score = 0.0;
  RefFusion fusion;
  FusionOutcome outcome = FusionOutcome::kExhaustive;
  size_t active_versions = 0;
  size_t nodes = 0;  // nodes of the walk of every merge order
};

// Reference fusion of every tuple of `dirty`, with the search counters the
// tests use to check that an instance exercises what it should.
class ReferenceFscr {
 public:
  ReferenceFscr(const Dataset& dirty, const RuleSet& rules, const MlnIndex& index,
                const CleaningOptions& options)
      : dirty_(dirty),
        discount_(options.fscr_minimality_discount) {
    versions_of_.resize(dirty.num_rows());
    candidates_.resize(index.num_blocks());
    for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
      const Block& block = index.block(bi);
      const Constraint& rule = rules.rule(block.rule_index);
      std::vector<const Piece*> pieces;
      for (const Group& group : block.groups) {
        for (const Piece& piece : group.pieces) pieces.push_back(&piece);
      }
      for (const Piece* piece : pieces) {
        for (TupleId tid : piece->tuples) {
          versions_of_[static_cast<size_t>(tid)].push_back(
              {bi, piece, PieceCells(dirty, rule, *piece), piece->weight});
        }
      }
      // γ' candidates by descending weight. Equal weights keep the order
      // std::sort gives this sequence under this comparator, the order
      // RunFscr searches them in.
      std::vector<const Piece*> by_weight = pieces;
      std::sort(by_weight.begin(), by_weight.end(),
                [](const Piece* a, const Piece* b) { return a->weight > b->weight; });
      for (const Piece* piece : by_weight) {
        candidates_[bi].push_back(
            {bi, piece, PieceCells(dirty, rule, *piece), piece->weight});
      }
    }
  }

  RefOutcome Fuse(TupleId tid) {
    tid_ = tid;
    versions_ = &versions_of_[static_cast<size_t>(tid)];
    RefOutcome out;
    const std::vector<RefVersion>& versions = *versions_;
    for (size_t i = 0; i < versions.size(); ++i) {
      for (size_t j = i + 1; j < versions.size(); ++j) {
        for (const RefCell& cell : versions[i].cells) {
          const std::string* other = Find(versions[j].cells, cell.attr);
          if (other != nullptr && *other != cell.value &&
              std::find(out.conflict_attrs.begin(), out.conflict_attrs.end(),
                        cell.attr) == out.conflict_attrs.end()) {
            out.conflict_attrs.push_back(cell.attr);
          }
        }
      }
    }
    if (versions.empty()) return out;
    const std::vector<bool> active = Active();
    out.active_versions = versions.size() > kMaskWidth && !out.conflict_attrs.empty()
                              ? versions.size()
                              : static_cast<size_t>(
                                    std::count(active.begin(), active.end(), true));
    if (versions.size() > kMaskWidth || out.active_versions > kExhaustiveCap) {
      out.outcome = FusionOutcome::kGreedy;
      Greedy(&out);
      return out;
    }
    best_f_ = 0.0;
    best_.clear();
    nodes_ = 0;
    RefFusion inert;
    std::vector<double> weights(versions.size(), 0.0);
    for (size_t j = 0; j < versions.size(); ++j) {
      if (active[j]) continue;
      weights[j] = versions[j].weight;
      MergeInto(&inert, versions[j].cells);
    }
    Explore(active, inert, weights);
    out.nodes = nodes_;
    out.fused = best_f_ > 0.0;
    if (out.fused) {
      out.f_score = best_f_;
      out.fusion = best_;
    }
    return out;
  }

  size_t substitutions() const { return substitutions_; }
  size_t failed_substitutions() const { return failed_substitutions_; }

 private:
  // Versions that conflict with another one, then every version sharing
  // an attribute with an active one, until nothing changes.
  std::vector<bool> Active() const {
    const std::vector<RefVersion>& versions = *versions_;
    std::vector<bool> active(versions.size(), false);
    for (size_t i = 0; i < versions.size(); ++i) {
      for (size_t j = i + 1; j < versions.size(); ++j) {
        if (Conflicts(versions[i].cells, versions[j].cells)) active[i] = active[j] = true;
      }
    }
    for (bool grew = true; grew;) {
      grew = false;
      for (size_t i = 0; i < versions.size(); ++i) {
        for (size_t j = 0; j < versions.size() && !active[i]; ++j) {
          if (active[j] && ShareAnAttribute(versions[i].cells, versions[j].cells)) {
            active[i] = grew = true;
          }
        }
      }
    }
    return active;
  }

  // The weights merged for the versions, folded in version order.
  static double Product(const std::vector<double>& weights) {
    double f = 1.0;
    for (double w : weights) f *= w;
    return f;
  }

  double Score(double f, RefFusion fusion) const {
    std::sort(fusion.begin(), fusion.end(),
              [](const RefCell& a, const RefCell& b) { return a.attr < b.attr; });
    double total = 0.0;
    for (const RefCell& cell : fusion) {
      const std::string& current = dirty_.at(tid_, cell.attr);
      if (current == cell.value) continue;
      const size_t max_len = std::max(current.size(), cell.value.size());
      total += static_cast<double>(EditDistance(current, cell.value)) / max_len;
    }
    return total == 0.0 ? f : f * std::pow(discount_, total);
  }

  void Consider(double f, const RefFusion& fusion) {
    const double score = Score(f, fusion);
    if (score > best_f_) {
      best_f_ = score;
      best_ = fusion;
    }
  }

  // The γ merged for `v` into `fusion`: v itself when it agrees, else
  // (Algorithm 2 line 19) the highest-weight other γ' of its block that
  // agrees; nullptr when there is none.
  const RefVersion* Pick(const RefFusion& fusion, const RefVersion& v) {
    if (!Conflicts(fusion, v.cells)) return &v;
    for (const RefVersion& cand : candidates_[v.block]) {
      if (cand.piece != v.piece && !Conflicts(fusion, cand.cells)) {
        ++substitutions_;
        return &cand;
      }
    }
    ++failed_substitutions_;
    return nullptr;
  }

  void Greedy(RefOutcome* out) {
    const std::vector<RefVersion>& versions = *versions_;
    std::vector<size_t> order(versions.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return versions[a].weight > versions[b].weight;
    });
    RefFusion fusion;
    std::vector<double> weights(versions.size(), 0.0);
    double f = 1.0;
    for (size_t j : order) {
      const RefVersion* merged = Pick(fusion, versions[j]);
      if (merged == nullptr) {
        f = 0.0;
        break;
      }
      MergeInto(&fusion, merged->cells);
      weights[j] = merged->weight;
    }
    if (f > 0.0) f = Product(weights);
    if (f > 0.0) f = Score(f, fusion);
    if (f > 0.0) {
      out->fused = true;
      out->f_score = f;
      out->fusion = fusion;
    }
  }

  void Explore(const std::vector<bool>& remaining, const RefFusion& fusion,
               const std::vector<double>& weights) {
    ++nodes_;
    const std::vector<RefVersion>& versions = *versions_;
    bool conflict_free = true;
    bool any = false;
    for (size_t j = 0; j < versions.size(); ++j) {
      if (!remaining[j]) continue;
      any = true;
      if (Conflicts(fusion, versions[j].cells)) conflict_free = false;
      for (size_t k = j + 1; k < versions.size(); ++k) {
        if (remaining[k] && Conflicts(versions[j].cells, versions[k].cells)) {
          conflict_free = false;
        }
      }
    }
    if (!any || conflict_free) {
      RefFusion merged = fusion;
      std::vector<double> all = weights;
      for (size_t j = 0; j < versions.size(); ++j) {
        if (!remaining[j]) continue;
        all[j] = versions[j].weight;
        MergeInto(&merged, versions[j].cells);
      }
      Consider(Product(all), merged);
      return;
    }
    for (size_t j = 0; j < versions.size(); ++j) {
      if (!remaining[j]) continue;
      const RefVersion* merged = Pick(fusion, versions[j]);
      if (merged == nullptr) continue;  // this order fails
      RefFusion next = fusion;
      MergeInto(&next, merged->cells);
      std::vector<bool> rest = remaining;
      rest[j] = false;
      std::vector<double> next_weights = weights;
      next_weights[j] = merged->weight;
      Explore(rest, next, next_weights);
    }
  }

  const Dataset& dirty_;
  double discount_;
  std::vector<std::vector<RefVersion>> versions_of_;
  std::vector<std::vector<RefVersion>> candidates_;
  TupleId tid_ = 0;
  const std::vector<RefVersion>* versions_ = nullptr;
  double best_f_ = 0.0;
  RefFusion best_;
  size_t nodes_ = 0;
  size_t substitutions_ = 0;
  size_t failed_substitutions_ = 0;
};

struct OracleStats {
  size_t conflict_tuples = 0;
  size_t fused = 0;
  size_t unfused = 0;
  size_t greedy = 0;
  size_t substitutions = 0;
  size_t failed_substitutions = 0;
  size_t max_nodes = 0;            // most nodes RunFscr visited for one tuple
  size_t max_reference_nodes = 0;  // most nodes the reference walked for one
  size_t wide_tuples = 0;          // exhaustive tuples with >= 5 active versions
  size_t dominance_hits = 0;       // RunFscr's, at 1 thread
};

// Runs RunFscr at 1 and 4 threads and checks both against the reference.
OracleStats ExpectMatchesReference(const Dataset& dirty, const RuleSet& rules,
                                   const MlnIndex& index, const CleaningOptions& options,
                                   const std::string& label) {
  ReferenceFscr reference(dirty, rules, index, options);
  std::vector<RefOutcome> expected;
  OracleStats stats;
  for (size_t t = 0; t < dirty.num_rows(); ++t) {
    expected.push_back(reference.Fuse(static_cast<TupleId>(t)));
    if (!expected.back().conflict_attrs.empty()) ++stats.conflict_tuples;
    ++(expected.back().fused ? stats.fused : stats.unfused);
    if (expected.back().outcome == FusionOutcome::kGreedy) {
      ++stats.greedy;
    } else if (expected.back().active_versions >= 5) {
      ++stats.wide_tuples;
    }
    stats.max_reference_nodes = std::max(stats.max_reference_nodes, expected.back().nodes);
  }
  stats.substitutions = reference.substitutions();
  stats.failed_substitutions = reference.failed_substitutions();

  PoolExecutor pool(4);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads));
    ExecContext ctx;
    if (threads > 1) ctx.executor = &pool;
    Dataset cleaned = dirty.Clone();
    CleaningReport report;
    RunFscr(dirty, rules, index, options, &cleaned, &report, ctx);
    if (report.fscr.size() != dirty.num_rows()) {
      ADD_FAILURE() << "expected one record per tuple";
      return stats;
    }
    for (size_t t = 0; t < dirty.num_rows(); ++t) {
      const TupleId tid = static_cast<TupleId>(t);
      const FscrRecord& rec = report.fscr[t];
      const RefOutcome& want = expected[t];
      SCOPED_TRACE("tuple " + std::to_string(t));
      EXPECT_EQ(rec.tuple, tid);
      EXPECT_EQ(rec.conflict_attrs, want.conflict_attrs);
      EXPECT_EQ(rec.fused, want.fused);
      EXPECT_EQ(rec.f_score, want.f_score);
      EXPECT_EQ(rec.outcome, want.outcome);
      EXPECT_EQ(rec.active_versions, want.active_versions);
      if (rec.outcome == FusionOutcome::kExhaustive) {
        EXPECT_LE(rec.nodes, kMaxNodes);
      }
      stats.max_nodes = std::max(stats.max_nodes, rec.nodes);
      if (threads == 1) stats.dominance_hits += rec.dominance_hits;
      std::vector<Value> row = dirty.row(tid);
      for (const RefCell& cell : want.fusion) row[static_cast<size_t>(cell.attr)] = cell.value;
      EXPECT_EQ(cleaned.row(tid), row);
    }
  }
  return stats;
}

// Stage I as the pipeline runs it, so every block holds one γ per group.
MlnIndex StageOne(const Dataset& dirty, const RuleSet& rules,
                  const CleaningOptions& options) {
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  DistanceFn dist = MakeDistanceFn(options.distance);
  RunAgpAll(&index, dirty, rules, options, nullptr);
  index.LearnWeights();
  RunRscAll(&index, dirty, rules, dist, nullptr);
  return index;
}

std::vector<Piece*> AllPieces(MlnIndex* index) {
  std::vector<Piece*> pieces;
  for (size_t bi = 0; bi < index->num_blocks(); ++bi) {
    for (Group& group : index->block(bi).groups) {
      for (Piece& piece : group.pieces) pieces.push_back(&piece);
    }
  }
  return pieces;
}

// The γ of `block` whose first tuple is `tid`.
Piece& PieceOfTuple(MlnIndex* index, size_t block, TupleId tid) {
  for (Group& group : index->block(block).groups) {
    for (Piece& piece : group.pieces) {
      if (piece.tuples.front() == tid) return piece;
    }
  }
  ADD_FAILURE() << "no piece for tuple " << tid << " in block " << block;
  return index->block(block).groups.front().pieces.front();
}

// Rewrites the result value of the γ of `block` whose first tuple is
// `tid`, interning `value` into `dirty` when no row holds it.
void SetResult(Dataset* dirty, const RuleSet& rules, MlnIndex* index, size_t block,
               TupleId tid, const Value& value) {
  const AttrId attr = rules.rule(index->block(block).rule_index).result_attrs()[0];
  PieceOfTuple(index, block, tid).ids.back() = dirty->InternValue(attr, value);
}

// A seeded instance whose every tuple has `num_rules` versions: distinct
// FDs between `num_attrs` attributes (all in scope), through stage I;
// odd seeds overwrite the learned weights with tied ones. With `negative`,
// one γ then gets a negative weight.
OracleStats ManyVersionsMatchReference(uint32_t seed, size_t num_attrs, size_t num_rules,
                                       bool negative = false) {
  std::mt19937 rng(seed);
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<std::string> names;
  for (size_t a = 0; a < num_attrs; ++a) names.push_back("A" + std::to_string(a));
  Schema schema = *Schema::Make(names);
  std::vector<std::pair<AttrId, AttrId>> pairs;
  for (size_t l = 0; l < num_attrs; ++l) {
    for (size_t r = 0; r < num_attrs; ++r) {
      if (l != r) pairs.emplace_back(static_cast<AttrId>(l), static_cast<AttrId>(r));
    }
  }
  EXPECT_LE(num_rules, pairs.size());
  std::shuffle(pairs.begin(), pairs.end(), rng);
  RuleSet rules(schema);
  for (size_t r = 0; r < num_rules; ++r) {
    rules.Add(*Constraint::MakeFd(schema, {pairs[r].first}, {pairs[r].second}));
  }
  const std::vector<std::string> alphabet = {"a", "ab", "abc", "b"};
  const size_t width = 2 + pick(2);
  std::vector<std::vector<Value>> rows(10 + pick(11), std::vector<Value>(num_attrs));
  for (auto& row : rows) {
    for (auto& value : row) value = alphabet[pick(width)];
  }
  Dataset dirty = *Dataset::Make(schema, rows);
  CleaningOptions options;
  options.agp_threshold = pick(3);
  MlnIndex index = StageOne(dirty, rules, options);
  if (seed % 2 == 1) {
    const double weights[] = {0.1, 0.25, 0.5, 1.0};
    for (Piece* piece : AllPieces(&index)) piece->weight = weights[pick(4)];
  }
  if (negative) {
    std::vector<Piece*> pieces = AllPieces(&index);
    pieces[pick(pieces.size())]->weight = -0.5;
  }
  return ExpectMatchesReference(dirty, rules, index, options,
                                "seed " + std::to_string(seed) + " rules " +
                                    std::to_string(num_rules));
}

TEST(FscrOracleTest, RandomInstancesMatchReference) {
  // Small alphabets of unequal lengths, so versions disagree, γ'
  // substitutions happen, and changed cells carry varied distances.
  const std::vector<std::string> alphabet = {"a", "ab", "abc", "b", "bca", "cab", "abcd"};
  OracleStats total;
  size_t negative = 0;
  for (uint32_t seed = 1; seed <= 240; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    const size_t num_attrs = 2 + pick(4);
    std::vector<std::string> names;
    for (size_t a = 0; a < num_attrs; ++a) names.push_back("A" + std::to_string(a));
    Schema schema = *Schema::Make(names);
    RuleSet rules(schema);
    const size_t num_rules = 2 + pick(3);
    for (size_t r = 0; r < num_rules; ++r) {
      const AttrId lhs = static_cast<AttrId>(pick(num_attrs));
      AttrId rhs = static_cast<AttrId>(pick(num_attrs - 1));
      if (rhs >= lhs) ++rhs;
      rules.Add(*Constraint::MakeFd(schema, {lhs}, {rhs}));
    }
    const size_t num_rows = 8 + pick(23);
    const size_t width = 2 + pick(3);  // distinct values per attribute
    std::vector<std::vector<Value>> rows(num_rows, std::vector<Value>(num_attrs));
    for (auto& row : rows) {
      for (auto& value : row) value = alphabet[pick(width)];
    }
    Dataset dirty = *Dataset::Make(schema, rows);

    CleaningOptions options;
    options.agp_threshold = pick(3);
    const double discounts[] = {0.25, 0.5, 0.9};
    options.fscr_minimality_discount = discounts[pick(3)];
    MlnIndex index = StageOne(dirty, rules, options);
    // A third of the instances keep the learned weights. The rest draw
    // them from a small set with ties and zeros, and a few of those get
    // a negative weight.
    const int mode = static_cast<int>(seed % 6);
    if (mode >= 2) {
      const double weights[] = {0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0};
      for (Piece* piece : AllPieces(&index)) piece->weight = weights[pick(7)];
      if (mode == 5) {
        std::vector<Piece*> pieces = AllPieces(&index);
        pieces[pick(pieces.size())]->weight = -0.5;
        ++negative;
      }
    }
    OracleStats stats = ExpectMatchesReference(dirty, rules, index, options,
                                               "seed " + std::to_string(seed));
    if (mode == 5) total.dominance_hits += stats.dominance_hits;
    total.conflict_tuples += stats.conflict_tuples;
    total.fused += stats.fused;
    total.unfused += stats.unfused;
    total.substitutions += stats.substitutions;
  }
  // The corpus exercises what it is meant to.
  EXPECT_GT(total.conflict_tuples, 500u);
  EXPECT_GT(total.substitutions, 500u);
  EXPECT_GT(total.unfused, 0u);
  EXPECT_GT(negative, 30u);
  EXPECT_GT(total.dominance_hits, 0u);  // revisits under a negative weight
}

// A hand-built instance: rules A->B, C->B, A->D over a few rows whose
// groups disagree, through stage I so the versions of a tuple conflict;
// each test then overwrites the weights.
struct HandBuilt {
  Schema schema = *Schema::Make({"A", "B", "C", "D"});
  RuleSet rules{schema};
  Dataset dirty;
  MlnIndex index;

  HandBuilt()
      : dirty(*Dataset::Make(schema, {{"a1", "b1", "c1", "d1"},
                                      {"a1", "b2", "c1", "d1"},
                                      {"a1", "b1", "c2", "d2"},
                                      {"a2", "b2", "c1", "d2"},
                                      {"a2", "b12", "c2", "d1"},
                                      {"a1", "b2", "c2", "d12"}})),
        index(Build(dirty, &rules)) {}

  static MlnIndex Build(const Dataset& dirty, RuleSet* rules) {
    const Schema& s = dirty.schema();
    rules->Add(*Constraint::MakeFd(s, {0}, {1}));
    rules->Add(*Constraint::MakeFd(s, {2}, {1}));
    rules->Add(*Constraint::MakeFd(s, {0}, {3}));
    return StageOne(dirty, *rules, CleaningOptions());
  }
};

TEST(FscrOracleTest, TiedWeightsMatchReference) {
  HandBuilt h;
  for (Piece* piece : AllPieces(&h.index)) piece->weight = 0.5;
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(h.dirty, h.rules, h.index, options, "tied");
  EXPECT_GT(stats.conflict_tuples, 0u);
  EXPECT_GT(stats.substitutions, 0u);
}

TEST(FscrOracleTest, ZeroWeightsMatchReference) {
  HandBuilt h;
  std::vector<Piece*> pieces = AllPieces(&h.index);
  for (Piece* piece : pieces) piece->weight = 0.4;
  // Zero on (a2, b2) of A -> B and (c1, b2) of C -> B: tuples whose every
  // merge order uses one of them stay unfused, and the others reach a
  // positive score only through a substitute.
  pieces[1]->weight = 0.0;
  pieces[2]->weight = 0.0;
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(h.dirty, h.rules, h.index, options, "zero");
  EXPECT_GT(stats.unfused, 0u);
  EXPECT_GT(stats.fused, 0u);
}

TEST(FscrOracleTest, NegativeWeightsUseTheSameSearch) {
  // Tuple 0's versions agree on K and conflict on P, and its weights have
  // both signs. A running product folded in merge order is not monotone
  // then, and a search that skipped a state reached again with a smaller
  // product picked the wrong fusion here. The score is a function of the
  // fusion, so a state seen again leads to no new leaf whatever the
  // signs: the search is the same reduced one as with weights >= 0, and
  // still finds the best fusion. Its versions all commute but for the
  // two on P, so it reaches no state twice; the random corpus counts
  // revisits under negative weights.
  Schema s = *Schema::Make({"K", "X", "Y", "Z", "P", "Q"});
  RuleSet rules(s);
  for (AttrId a : {1, 2, 3, 4}) rules.Add(*Constraint::MakeFd(s, {0}, {a}));
  rules.Add(*Constraint::MakeFd(s, {5}, {4}));  // Q -> P
  Dataset dirty = *Dataset::Make(s, {{"k", "x", "y", "z", "p1", "q"},
                                     {"k", "x", "y", "z", "p2", "q2"},
                                     {"k2", "x2", "y2", "z2", "p1", "q3"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  // Weight of each γ, by block and (reason, result); tuple 0's Q -> P γ
  // is rewritten to (q, p2) so that it conflicts with its K -> P γ.
  const std::map<std::tuple<size_t, Value, Value>, double> weights = {
      {{0, "k", "x"}, 0.9},   {{0, "k2", "x2"}, 0.9},  {{1, "k", "y"}, 0.45},
      {{1, "k2", "y2"}, -0.3}, {{2, "k", "z"}, 0.3},    {{2, "k2", "z2"}, 0.1},
      {{3, "k", "p1"}, -0.3},  {{3, "k", "p2"}, 0.3},   {{3, "k2", "p1"}, -0.7},
      {{4, "q", "p2"}, 0.7},   {{4, "q2", "p2"}, 0.3},  {{4, "q3", "p1"}, -0.7}};
  for (size_t b = 0; b < index.num_blocks(); ++b) {
    const Constraint& rule = rules.rule(b);
    for (Group& group : index.block(b).groups) {
      for (Piece& piece : group.pieces) {
        std::vector<Value> values = testing::AllValues(piece, dirty, rule);
        if (b == 4 && values[0] == "q") {
          piece.ids.back() = dirty.InternValue(rule.result_attrs()[0], "p2");
          values[1] = "p2";
        }
        piece.weight = weights.at({b, values[0], values[1]});
      }
    }
  }
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "negative");
  EXPECT_LT(stats.max_nodes, stats.max_reference_nodes);
  Dataset cleaned = dirty.Clone();
  RunFscr(dirty, rules, index, options, &cleaned, nullptr);
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "x", "y", "z", "p1", "q3"}));
}

TEST(FscrOracleTest, DistanceSumFoldsInAttributeOrder) {
  // Tuple 0's K-rule versions repair Z, Y and X at distances 3/10, 2/10
  // and 1/10; its W -> X version keeps the dirty X, conflicts with the
  // repaired one, and is substituted by tuple 1's (w, xxxxxxxxxq), which
  // changes nothing. Every complete fusion has the same cells and the
  // same weight product. The distance sum is taken over the fused cells
  // in attribute order, (0.1+0.2)+0.3, whatever order the repairs were
  // merged in. A sum folded in merge order would score the first order
  // searched, which follows the rules' order, as (0.3+0.2)+0.1, one ulp
  // smaller, and that order would win. The sum being a function of the
  // cells is what lets the visited set key a state by its cells alone.
  const double discount = 0.05;
  ASSERT_NE((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
  ASSERT_NE(std::pow(discount, (0.1 + 0.2) + 0.3), std::pow(discount, (0.3 + 0.2) + 0.1));
  Schema s = *Schema::Make({"K", "X", "Y", "Z", "W"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {3}));  // K -> Z
  rules.Add(*Constraint::MakeFd(s, {0}, {2}));  // K -> Y
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {4}, {1}));  // W -> X
  Dataset dirty = *Dataset::Make(
      s, {{"k", "xxxxxxxxxx", "yyyyyyyyyy", "zzzzzzzzzz", "w"},
          {"k2", "xxxxxxxxxq", "yyyyyyyyyy", "zzzzzzzzzz", "w"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  SetResult(&dirty, rules, &index, 0, 0, "zzzzzzzqqq");  // distance 3/10
  SetResult(&dirty, rules, &index, 1, 0, "yyyyyyyyqq");  // distance 2/10
  SetResult(&dirty, rules, &index, 2, 0, "xxxxxxxxxq");  // distance 1/10
  CleaningOptions options;
  options.fscr_minimality_discount = discount;
  ExpectMatchesReference(dirty, rules, index, options, "distances");

  Dataset cleaned = dirty.Clone();
  CleaningReport report;
  RunFscr(dirty, rules, index, options, &cleaned, &report);
  EXPECT_EQ(report.fscr[0].f_score, 0.0625 * std::pow(discount, (0.1 + 0.2) + 0.3));
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "xxxxxxxxxq", "yyyyyyyyqq",
                                                "zzzzzzzqqq", "w"}));
}

TEST(FscrOracleTest, SevenVersionsAreSearchedExhaustively) {
  // 7 versions per tuple, the most the exhaustive search takes: no tuple
  // is fused greedily, and no search passes kMaxNodes. The instances are
  // large: the walk of every merge order takes over 1,000 nodes on some.
  OracleStats total;
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    OracleStats stats = ManyVersionsMatchReference(seed, 5, 7, /*negative=*/seed > 4);
    EXPECT_EQ(stats.greedy, 0u);
    total.conflict_tuples += stats.conflict_tuples;
    total.max_nodes = std::max(total.max_nodes, stats.max_nodes);
    total.max_reference_nodes = std::max(total.max_reference_nodes, stats.max_reference_nodes);
  }
  EXPECT_GT(total.conflict_tuples, 50u);
  EXPECT_GT(total.max_reference_nodes, 1000u);
  EXPECT_LT(total.max_nodes, total.max_reference_nodes);
}

// Which fusion wins depends on the weights. Redrawing every γ weight
// `draws` times over one instance makes many different fusions win in
// turn, so a search that misses a state it should reach loses some draw.
// Even draws pick from a small set with ties, odd ones uniformly.
OracleStats RedrawnWeightsMatchReference(const Dataset& dirty, const RuleSet& rules,
                                         MlnIndex* index, uint32_t seed, size_t draws,
                                         const std::string& label) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uniform(0.05, 1.0);
  const double tied[] = {0.1, 0.2, 0.25, 0.5, 0.9};
  OracleStats total;
  for (size_t draw = 0; draw < draws; ++draw) {
    for (Piece* piece : AllPieces(index)) {
      piece->weight = draw % 2 == 0 ? tied[rng() % 5] : uniform(rng);
    }
    OracleStats stats = ExpectMatchesReference(dirty, rules, *index, CleaningOptions(),
                                               label + " draw " + std::to_string(draw));
    total.wide_tuples += stats.wide_tuples;
    total.substitutions += stats.substitutions;
  }
  return total;
}

TEST(FscrOracleTest, RedrawnWeightsMatchReference) {
  // Each instance has two clusters of rules over disjoint attributes, so
  // versions of different clusters commute at every state, and within a
  // cluster the rules share attributes, so versions conflict and are
  // substituted.
  //
  // The hand-built instance: rules K -> X, W -> X, K -> Y, W -> Y over
  // one cluster and P -> Q, R -> Q over the other. Tuple 0's W -> X γ
  // becomes (w, x1), equal to tuple 3's: two γs of equal values in one
  // block. Tuples 0 and 5 get conflicts in both clusters, so all 6 of
  // their versions are active. Merged after (k5, x1), tuple 5's (w1, x5)
  // is substituted by the first-ranked γ with X = x1 that agrees with the
  // stack: (w1, x1) or one of the two equal (w, x1)s, whose ranks swap
  // across the draws.
  {
    Schema s = *Schema::Make({"K", "X", "W", "Y", "P", "Q", "R"});
    RuleSet rules(s);
    rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
    rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // W -> X
    rules.Add(*Constraint::MakeFd(s, {0}, {3}));  // K -> Y
    rules.Add(*Constraint::MakeFd(s, {2}, {3}));  // W -> Y
    rules.Add(*Constraint::MakeFd(s, {4}, {5}));  // P -> Q
    rules.Add(*Constraint::MakeFd(s, {6}, {5}));  // R -> Q
    Dataset dirty = *Dataset::Make(s, {{"k", "x0", "w", "y0", "p", "q0", "r"},
                                       {"k", "x1", "w1", "y1", "p", "q1", "r1"},
                                       {"k2", "x0", "w", "y1", "p2", "q0", "r"},
                                       {"k3", "x1", "w", "y0", "p3", "q1", "r3"},
                                       {"k4", "x0", "w4", "y0", "p", "q0", "r4"},
                                       {"k5", "x5", "w1", "y5", "p5", "q5", "r"}});
    MlnIndex index = *MlnIndex::Build(dirty, rules);
    SetResult(&dirty, rules, &index, 1, 0, "x1");  // (w, x1), as tuple 3's
    SetResult(&dirty, rules, &index, 5, 0, "q1");  // (r, q1) against (p, q0)
    SetResult(&dirty, rules, &index, 0, 5, "x1");  // (k5, x1) against (w1, x5)
    SetResult(&dirty, rules, &index, 4, 5, "q0");  // (p5, q0) against (r, q5)
    const Piece& equal = PieceOfTuple(&index, 1, 0);
    ASSERT_EQ(equal.ids, PieceOfTuple(&index, 1, 3).ids);
    OracleStats stats = RedrawnWeightsMatchReference(dirty, rules, &index, 1, 32, "hand-built");
    EXPECT_GE(stats.wide_tuples, 2u * 32);
    EXPECT_GT(stats.substitutions, 0u);
  }
  // Seeded instances: A0 -> A1, A2 -> A1, A0 -> A3 and A4 -> A5,
  // A6 -> A5, A4 -> A7 over random rows, through stage I.
  OracleStats total;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    std::vector<std::string> names;
    for (size_t a = 0; a < 8; ++a) names.push_back("A" + std::to_string(a));
    Schema schema = *Schema::Make(names);
    RuleSet rules(schema);
    for (AttrId base : {0, 4}) {
      rules.Add(*Constraint::MakeFd(schema, {base}, {static_cast<AttrId>(base + 1)}));
      rules.Add(*Constraint::MakeFd(schema, {static_cast<AttrId>(base + 2)},
                                    {static_cast<AttrId>(base + 1)}));
      rules.Add(*Constraint::MakeFd(schema, {base}, {static_cast<AttrId>(base + 3)}));
    }
    const std::vector<std::string> alphabet = {"a", "ab", "abc", "b"};
    const size_t width = 2 + pick(2);
    std::vector<std::vector<Value>> rows(10 + pick(7), std::vector<Value>(8));
    for (auto& row : rows) {
      for (auto& value : row) value = alphabet[pick(width)];
    }
    Dataset dirty = *Dataset::Make(schema, rows);
    CleaningOptions options;
    options.agp_threshold = pick(3);
    MlnIndex index = StageOne(dirty, rules, options);
    OracleStats stats = RedrawnWeightsMatchReference(dirty, rules, &index, seed, 24,
                                                     "seed " + std::to_string(seed));
    total.wide_tuples += stats.wide_tuples;
    total.substitutions += stats.substitutions;
  }
  EXPECT_GT(total.wide_tuples, 300u);
  EXPECT_GT(total.substitutions, 500u);
}

TEST(FscrOracleTest, GreedyPathMatchesReference) {
  // 8-12 versions per tuple over 5 attributes. Where a tuple's versions
  // conflict, the active closure takes in more than the exhaustive limit
  // of 7 and the tuple is fused greedily, by descending weight; where they
  // agree, none is active and it is fused at the root.
  OracleStats total;
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    OracleStats stats = ManyVersionsMatchReference(seed, 5, 8 + seed % 5);
    EXPECT_EQ(stats.greedy, stats.conflict_tuples);
    total.greedy += stats.greedy;
    total.conflict_tuples += stats.conflict_tuples;
    total.fused += stats.fused;
    total.unfused += stats.unfused;
    total.substitutions += stats.substitutions;
    total.failed_substitutions += stats.failed_substitutions;
  }
  EXPECT_GT(total.greedy, 100u);
  EXPECT_GT(total.fused, 0u);
  EXPECT_GT(total.unfused, 0u);
  EXPECT_GT(total.substitutions, 50u);
  EXPECT_GT(total.failed_substitutions, 0u);
}

TEST(FscrOracleTest, GreedyPathPastTheMaskWidth) {
  // 33-36 versions per tuple: more than a 32-bit version mask holds, so
  // conflicts among versions 32 and up reach only conflict_attrs.
  OracleStats total;
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    OracleStats stats = ManyVersionsMatchReference(seed, 7, 32 + seed);
    EXPECT_EQ(stats.greedy, stats.fused + stats.unfused);
    total.conflict_tuples += stats.conflict_tuples;
    total.substitutions += stats.substitutions;
  }
  EXPECT_GT(total.conflict_tuples, 0u);
  EXPECT_GT(total.substitutions, 0u);
}

// Posting-list edge cases. Each instance has blocks K -> X and W -> X
// (and more where said) over rows with one γ per group; a tuple's γs are
// then rewritten so its versions conflict on X, and the γ' search hits
// the named case in at least one merge order.

TEST(FscrOracleTest, GammaPrimeWithAValueOutsideTheData) {
  // Tuple 0's K -> X γ and tuple 1's W -> X γ both say X = xnew, a value
  // no row holds, so its id is past every id a cell holds. With (k, xnew)
  // merged first, tuple 0's (w, xa) conflicts and the γ' is tuple 1's
  // (w1, xnew), found under xnew's id.
  Schema s = *Schema::Make({"K", "X", "W"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // W -> X
  Dataset dirty = *Dataset::Make(
      s, {{"k", "xa", "w"}, {"k1", "xb", "w1"}, {"k2", "xc", "w2"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  ASSERT_EQ(dirty.dict(1).Find("xnew"), kInvalidValueId);
  SetResult(&dirty, rules, &index, 0, 0, "xnew");
  SetResult(&dirty, rules, &index, 1, 1, "xnew");
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "interned");
  EXPECT_GT(stats.substitutions, 0u);
  Dataset cleaned = dirty.Clone();
  RunFscr(dirty, rules, index, options, &cleaned, nullptr);
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "xnew", "w1"}));
}

TEST(FscrOracleTest, AssignedIdWithNoPosting) {
  // Tuple 0: (k, xa) against (w, xb). With (k, xa) first, no W -> X γ
  // holds xa, an id inside the block's posting range. Tuple 4: (k4, xd)
  // against (w4, xc). With (k4, xd) first, xd's id is past every id the
  // W -> X block holds. Both orders fail there; the other merge order
  // finds a γ' in the K -> X block.
  Schema s = *Schema::Make({"K", "X", "W"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // W -> X
  Dataset dirty = *Dataset::Make(s, {{"k", "xa", "w"},
                                     {"k1", "xb", "w1"},
                                     {"k2", "xb", "w2"},
                                     {"k3", "xc", "w3"},
                                     {"k4", "xd", "w4"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  SetResult(&dirty, rules, &index, 1, 0, "xb");
  SetResult(&dirty, rules, &index, 1, 4, "xc");
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "no posting");
  EXPECT_GE(stats.failed_substitutions, 2u);
  EXPECT_GE(stats.substitutions, 2u);
  EXPECT_EQ(stats.fused, 5u);
}

TEST(FscrOracleTest, PostingListHoldingOnlyTheOwnGamma) {
  // Blocks K -> X, K -> Y and W -> X. Tuple 0's K -> X γ becomes (k, x2)
  // against its W -> X γ (w, x1). Merged last, (k, x2) conflicts on X
  // while the stack holds K = k: the K posting list, shorter than X's,
  // holds only the version's own γ, so there is no γ'.
  Schema s = *Schema::Make({"K", "X", "Y", "W"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {0}, {2}));  // K -> Y
  rules.Add(*Constraint::MakeFd(s, {3}, {1}));  // W -> X
  Dataset dirty = *Dataset::Make(s, {{"k", "x1", "y", "w"},
                                     {"k1", "x1", "y1", "w1"},
                                     {"k2", "x1", "y2", "w2"},
                                     {"k3", "x2", "y3", "w3"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  SetResult(&dirty, rules, &index, 0, 0, "x2");
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "own only");
  EXPECT_GT(stats.failed_substitutions, 0u);
  EXPECT_GT(stats.fused, 0u);
}

TEST(FscrOracleTest, StackCellAssignedByAGammaPrime) {
  // Blocks K -> X, W -> X and W -> Z. Tuple 0's W -> X γ becomes (w, x2)
  // against (k, x1). After (k, x1), it is substituted by tuple 1's
  // (w9, x1), which assigns W = w9; tuple 0's W -> Z γ (w, z1) then
  // conflicts on that W, and its γ' (w9, z9) is found under w9's id.
  Schema s = *Schema::Make({"K", "X", "W", "Z"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // W -> X
  rules.Add(*Constraint::MakeFd(s, {2}, {3}));  // W -> Z
  Dataset dirty = *Dataset::Make(s, {{"k", "x1", "w", "z1"},
                                     {"k1", "x1", "w9", "z9"},
                                     {"k2", "x2", "w2", "z2"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  SetResult(&dirty, rules, &index, 1, 0, "x2");
  // Weight the substitutes so that the order K -> X, W -> X, W -> Z wins.
  PieceOfTuple(&index, 1, 1).weight = 0.9;
  PieceOfTuple(&index, 2, 1).weight = 0.9;
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "γ' on stack");
  EXPECT_GE(stats.substitutions, 2u);
  Dataset cleaned = dirty.Clone();
  RunFscr(dirty, rules, index, options, &cleaned, nullptr);
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "x1", "w9", "z9"}));
}

// Active-version edge cases. Only versions that conflict, closed under
// sharing an attribute, are permuted; the rest are merged once first.

TEST(FscrOracleTest, ConflictFreeVersionSharingAnAttributeStaysActive) {
  // Blocks K -> X, W -> X and W -> Z. Tuple 0's W -> X γ becomes (w, x2)
  // against (k, x1); its W -> Z γ (w, z1) conflicts with neither, but
  // shares W with (w, x2). The best fusion merges (k, x1), substitutes
  // (w9, x1) for (w, x2), and then (w9, z9) for (w, z1), which now
  // conflicts on W. Merging (w, z1) first, as if it were inert, would fix
  // W = w and leave only (k, x2), (w, x2), (w, z1): a worse fusion.
  Schema s = *Schema::Make({"K", "X", "W", "Z"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // W -> X
  rules.Add(*Constraint::MakeFd(s, {2}, {3}));  // W -> Z
  Dataset dirty = *Dataset::Make(s, {{"k", "x1", "w", "z1"},
                                     {"k1", "x1", "w9", "z9"},
                                     {"k", "x2", "w2", "z2"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  SetResult(&dirty, rules, &index, 1, 0, "x2");
  PieceOfTuple(&index, 0, 0).weight = 0.9;  // (k, x1)
  PieceOfTuple(&index, 1, 1).weight = 0.9;  // (w9, x1)
  PieceOfTuple(&index, 2, 1).weight = 0.9;  // (w9, z9)
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "closure");
  EXPECT_GE(stats.substitutions, 2u);
  Dataset cleaned = dirty.Clone();
  CleaningReport report;
  RunFscr(dirty, rules, index, options, &cleaned, &report);
  EXPECT_EQ(report.fscr[0].active_versions, 3u);
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "x1", "w9", "z9"}));
}

TEST(FscrOracleTest, NineVersionsWithSevenActiveAreSearchedExactly) {
  // Tuple 0 has 9 versions: K -> A1..A5, W -> A1 and W -> A2, all tied
  // to its conflict on A1 through K, W or A1, and P -> Q and R -> S,
  // which touch none of their attributes. 7 active versions are within
  // the exhaustive limit, so the tuple is searched exactly, not greedily.
  Schema s = *Schema::Make({"K", "A1", "A2", "A3", "A4", "A5", "W", "P", "Q", "R", "S"});
  RuleSet rules(s);
  for (AttrId a : {1, 2, 3, 4, 5}) rules.Add(*Constraint::MakeFd(s, {0}, {a}));
  rules.Add(*Constraint::MakeFd(s, {6}, {1}));   // W -> A1
  rules.Add(*Constraint::MakeFd(s, {6}, {2}));   // W -> A2
  rules.Add(*Constraint::MakeFd(s, {7}, {8}));   // P -> Q
  rules.Add(*Constraint::MakeFd(s, {9}, {10}));  // R -> S
  Dataset dirty = *Dataset::Make(
      s, {{"k", "a1", "a2", "a3", "a4", "a5", "w", "p", "q", "r", "s"},
          {"k1", "b1", "b2", "b3", "b4", "b5", "w1", "p1", "q1", "r1", "s1"},
          {"k2", "c1", "c2", "c3", "c4", "c5", "w2", "p2", "q2", "r2", "s2"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  SetResult(&dirty, rules, &index, 5, 0, "b1");  // (w, b1) against (k, a1)
  CleaningOptions options;
  OracleStats stats = ExpectMatchesReference(dirty, rules, index, options, "nine versions");
  EXPECT_EQ(stats.greedy, 0u);
  Dataset cleaned = dirty.Clone();
  CleaningReport report;
  EXPECT_EQ(RunFscr(dirty, rules, index, options, &cleaned, &report), 0u);
  EXPECT_EQ(report.fscr[0].outcome, FusionOutcome::kExhaustive);
  EXPECT_EQ(report.fscr[0].active_versions, 7u);
  EXPECT_GT(report.fscr[0].nodes, 1u);
}

}  // namespace
}  // namespace mlnclean
