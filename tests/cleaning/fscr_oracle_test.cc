// Differential test of FSCR against a reference GetFusionT (Algorithm 2).
//
// The reference works on plain strings: a fusion is a vector of
// (attribute, value) cells in merge order. It walks every merge order with
// no node budget, no pruning and no memo, and scores a complete fusion the
// way RunFscr specifies it: the weight product folded in merge order, times
// the minimality discount raised to the sum of normalized edit distances to
// the dirty values, also folded in merge order. Once the versions still to
// merge conflict neither pairwise nor with the fusion, they are merged once,
// in version order (the conflict-free rule of the specification, which
// fixes that fold order). Ties keep the first fusion found.
//
// RunFscr must agree with it bit for bit — every cleaned cell, and each
// record's `fused`, `f_score` (compared with ==) and `conflict_attrs` — at 1
// and 4 threads, on seeded random instances and on hand-built ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cleaning/agp.h"
#include "cleaning/fscr.h"
#include "cleaning/rsc.h"

namespace mlnclean {
namespace {

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

RefFusion PieceCells(const Constraint& rule, const Piece& piece) {
  RefFusion cells;
  for (size_t i = 0; i < rule.reason_attrs().size(); ++i) {
    cells.push_back({rule.reason_attrs()[i], piece.reason[i]});
  }
  for (size_t i = 0; i < rule.result_attrs().size(); ++i) {
    cells.push_back({rule.result_attrs()[i], piece.result[i]});
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

struct RefOutcome {
  std::vector<AttrId> conflict_attrs;
  bool fused = false;
  double f_score = 0.0;
  RefFusion fusion;
};

// Reference fusion of every tuple of `dirty`, with the search counters the
// tests use to check that an instance exercises what it should.
class ReferenceFscr {
 public:
  ReferenceFscr(const Dataset& dirty, const RuleSet& rules, const MlnIndex& index,
                const CleaningOptions& options)
      : dirty_(dirty), discount_(options.fscr_minimality_discount) {
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
              {bi, piece, PieceCells(rule, *piece), piece->weight});
        }
      }
      // γ' candidates by descending weight. Equal weights keep the order
      // std::sort gives this sequence under this comparator, the order
      // RunFscr searches them in.
      std::vector<const Piece*> by_weight = pieces;
      std::sort(by_weight.begin(), by_weight.end(),
                [](const Piece* a, const Piece* b) { return a->weight > b->weight; });
      for (const Piece* piece : by_weight) {
        candidates_[bi].push_back({bi, piece, PieceCells(rule, *piece), piece->weight});
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
    best_f_ = 0.0;
    best_.clear();
    Explore(std::vector<bool>(versions.size(), true), {}, 1.0);
    out.fused = best_f_ > 0.0;
    if (out.fused) {
      out.f_score = best_f_;
      out.fusion = best_;
    }
    return out;
  }

  size_t substitutions() const { return substitutions_; }

 private:
  double Score(double f, const RefFusion& fusion) const {
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

  void Explore(const std::vector<bool>& remaining, const RefFusion& fusion, double f) {
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
      for (size_t j = 0; j < versions.size(); ++j) {
        if (!remaining[j]) continue;
        f *= versions[j].weight;
        MergeInto(&merged, versions[j].cells);
      }
      Consider(f, merged);
      return;
    }
    for (size_t j = 0; j < versions.size(); ++j) {
      if (!remaining[j]) continue;
      const RefVersion* merged = nullptr;
      if (!Conflicts(fusion, versions[j].cells)) {
        merged = &versions[j];
      } else {
        // Algorithm 2 line 19: the highest-weight other γ' of the block
        // that agrees with the fusion; none means this order fails.
        for (const RefVersion& cand : candidates_[versions[j].block]) {
          if (cand.piece != versions[j].piece && !Conflicts(fusion, cand.cells)) {
            merged = &cand;
            ++substitutions_;
            break;
          }
        }
        if (merged == nullptr) continue;
      }
      RefFusion next = fusion;
      MergeInto(&next, merged->cells);
      std::vector<bool> rest = remaining;
      rest[j] = false;
      Explore(rest, next, f * merged->weight);
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
  size_t substitutions_ = 0;
};

struct OracleStats {
  size_t conflict_tuples = 0;
  size_t fused = 0;
  size_t unfused = 0;
  size_t substitutions = 0;
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
  }
  stats.substitutions = reference.substitutions();

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
      EXPECT_EQ(rec.outcome, FusionOutcome::kExhaustive);
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
  RunAgpAll(&index, options, nullptr);
  index.LearnWeights();
  RunRscAll(&index, dist, nullptr);
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

TEST(FscrOracleTest, RandomInstancesMatchReference) {
  // Small alphabets of unequal lengths, so versions disagree, γ'
  // substitutions happen, and changed cells carry varied distances.
  const std::vector<std::string> alphabet = {"a", "ab", "abc", "b", "bca", "cab", "abcd"};
  OracleStats total;
  size_t gated = 0;
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
    // a negative weight, which turns dominance pruning off.
    const int mode = static_cast<int>(seed % 6);
    if (mode >= 2) {
      const double weights[] = {0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0};
      for (Piece* piece : AllPieces(&index)) piece->weight = weights[pick(7)];
      if (mode == 5) {
        std::vector<Piece*> pieces = AllPieces(&index);
        pieces[pick(pieces.size())]->weight = -0.5;
        ++gated;
      }
    }
    OracleStats stats = ExpectMatchesReference(dirty, rules, index, options,
                                               "seed " + std::to_string(seed));
    total.conflict_tuples += stats.conflict_tuples;
    total.fused += stats.fused;
    total.unfused += stats.unfused;
    total.substitutions += stats.substitutions;
  }
  // The corpus exercises what it is meant to.
  EXPECT_GT(total.conflict_tuples, 500u);
  EXPECT_GT(total.substitutions, 500u);
  EXPECT_GT(total.unfused, 0u);
  EXPECT_GT(gated, 30u);
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

TEST(FscrOracleTest, NegativeWeightTurnsPruningOff) {
  // Negative weights make f non-monotone along a path: a node reached
  // again with a smaller f can still lead to the best fusion. Here tuple
  // 0's versions agree on K and conflict on P, and weights of both signs
  // make the best fusion of tuple 0 one that a pruned search skips; the
  // search must notice the negative weight and run unpruned.
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
    for (Group& group : index.block(b).groups) {
      for (Piece& piece : group.pieces) {
        if (b == 4 && piece.reason[0] == "q") piece.result[0] = "p2";
        piece.weight = weights.at({b, piece.reason[0], piece.result[0]});
      }
    }
  }
  CleaningOptions options;
  ExpectMatchesReference(dirty, rules, index, options, "negative");
  Dataset cleaned = dirty.Clone();
  RunFscr(dirty, rules, index, options, &cleaned, nullptr);
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "x", "y", "z", "p1", "q3"}));
}

TEST(FscrOracleTest, DistanceSumFoldsInMergeOrder) {
  // Tuple 0's K-rule versions repair X, Y and Z at distances 1/10, 2/10
  // and 3/10; its W -> X version keeps the dirty X, conflicts with the
  // repaired one, and is substituted by tuple 1's (w, xxxxxxxxxq), which
  // changes nothing. Every complete fusion has the same weight product,
  // so the winner is decided by the distance sum alone, and that depends
  // on the order the three repairs were merged in: (0.1+0.2)+0.3 is one
  // ulp above (0.2+0.3)+0.1. The first order searched is not the best
  // one, so a search that identified states by their cells alone, without
  // the sum, would keep the wrong f-score.
  const double discount = 0.05;
  ASSERT_NE((0.1 + 0.2) + 0.3, (0.2 + 0.3) + 0.1);
  ASSERT_NE(std::pow(discount, (0.1 + 0.2) + 0.3), std::pow(discount, (0.2 + 0.3) + 0.1));
  Schema s = *Schema::Make({"K", "X", "Y", "Z", "W"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // K -> X
  rules.Add(*Constraint::MakeFd(s, {0}, {2}));  // K -> Y
  rules.Add(*Constraint::MakeFd(s, {0}, {3}));  // K -> Z
  rules.Add(*Constraint::MakeFd(s, {4}, {1}));  // W -> X
  Dataset dirty = *Dataset::Make(
      s, {{"k", "xxxxxxxxxx", "yyyyyyyyyy", "zzzzzzzzzz", "w"},
          {"k2", "xxxxxxxxxq", "yyyyyyyyyy", "zzzzzzzzzz", "w"}});
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  for (Piece* piece : AllPieces(&index)) piece->weight = 0.5;
  auto piece_of_tuple0 = [&](size_t block) -> Piece& {
    for (Group& group : index.block(block).groups) {
      for (Piece& piece : group.pieces) {
        if (piece.tuples.front() == 0) return piece;
      }
    }
    ADD_FAILURE() << "no piece for tuple 0 in block " << block;
    return index.block(block).groups.front().pieces.front();
  };
  piece_of_tuple0(0).result[0] = "xxxxxxxxxq";  // distance 1/10
  piece_of_tuple0(1).result[0] = "yyyyyyyyqq";  // distance 2/10
  piece_of_tuple0(2).result[0] = "zzzzzzzqqq";  // distance 3/10
  CleaningOptions options;
  options.fscr_minimality_discount = discount;
  ExpectMatchesReference(dirty, rules, index, options, "distances");

  Dataset cleaned = dirty.Clone();
  CleaningReport report;
  RunFscr(dirty, rules, index, options, &cleaned, &report);
  EXPECT_EQ(report.fscr[0].f_score, 0.0625 * std::pow(discount, (0.2 + 0.3) + 0.1));
  EXPECT_EQ(cleaned.row(0), (std::vector<Value>{"k", "xxxxxxxxxq", "yyyyyyyyqq",
                                                "zzzzzzzqqq", "w"}));
}

}  // namespace
}  // namespace mlnclean
