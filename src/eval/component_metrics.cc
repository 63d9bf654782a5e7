#include "eval/component_metrics.h"

#include <map>

#include "cleaning/engine.h"
#include "index/mln_index.h"

namespace mlnclean {

namespace {

// Ground-truth values of a tuple on the given attributes.
std::vector<Value> TruthValues(const GroundTruth& truth, TupleId tid,
                               const std::vector<AttrId>& attrs) {
  std::vector<Value> out;
  out.reserve(attrs.size());
  for (AttrId a : attrs) out.push_back(truth.TrueValue(tid, a));
  return out;
}

// The most common ground-truth value vector among `tuples` (ties: first
// encountered).
std::vector<Value> PluralityTruth(const GroundTruth& truth,
                                  const std::vector<TupleId>& tuples,
                                  const std::vector<AttrId>& attrs) {
  std::map<std::vector<Value>, size_t> counts;
  const std::vector<Value>* best = nullptr;
  size_t best_count = 0;
  for (TupleId tid : tuples) {
    auto [it, inserted] = counts.emplace(TruthValues(truth, tid, attrs), 0);
    (void)inserted;
    ++it->second;
    if (it->second > best_count) {
      best_count = it->second;
      best = &it->first;
    }
  }
  return best == nullptr ? std::vector<Value>{} : *best;
}

}  // namespace

Result<ComponentEvaluation> EvaluateComponents(const Dataset& dirty,
                                               const RuleSet& rules,
                                               const CleaningOptions& options,
                                               const GroundTruth& truth) {
  // One session drives every stage; the scoring below only reads its
  // index and report between RunUntil steps.
  MLN_ASSIGN_OR_RETURN(CleanModel model,
                       CleaningEngine(options).Compile(rules.schema(), rules));
  CleanSession session = model.NewSession(dirty);
  MLN_RETURN_NOT_OK(session.RunUntil(Stage::kIndex));
  const MlnIndex& index = session.index();

  ComponentEvaluation eval;

  // ---- Pre-AGP snapshot: which groups are really abnormal, and what is
  // the plurality true reason of each group's tuples.
  struct GroupTruth {
    bool really_abnormal = false;
    std::vector<Value> plurality_reason;
  };
  // (block, reason ids) -> truth classification.
  std::vector<std::map<std::vector<ValueId>, GroupTruth>> group_truth(index.num_blocks());
  size_t real_abnormal_total = 0;
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    const Block& block = index.block(bi);
    const Constraint& rule = rules.rule(block.rule_index);
    for (const Group& group : block.groups) {
      std::vector<TupleId> members;
      for (const auto& piece : group.pieces) {
        members.insert(members.end(), piece.tuples.begin(), piece.tuples.end());
      }
      const std::vector<ValueId>& ids = group.pieces.front().ids;
      std::vector<ValueId> key_ids(ids.begin(), ids.begin() + rule.reason_attrs().size());
      const std::vector<Value> key = ResolveIds(key_ids, dirty, rule);
      GroupTruth gt;
      gt.plurality_reason = PluralityTruth(truth, members, rule.reason_attrs());
      bool any_match = false;
      for (TupleId tid : members) {
        if (TruthValues(truth, tid, rule.reason_attrs()) == key) {
          any_match = true;
          break;
        }
      }
      gt.really_abnormal = !any_match;
      if (gt.really_abnormal) ++real_abnormal_total;
      group_truth[bi].emplace(std::move(key_ids), std::move(gt));
    }
  }

  // ---- AGP.
  MLN_RETURN_NOT_OK(session.RunUntil(Stage::kAgp));
  const CleaningReport& report = session.report();

  // Blocks are positionally aligned with rules, so report.agp[i].block is
  // also the index into group_truth.
  eval.agp.detected = report.agp.size();
  eval.agp.real = real_abnormal_total;
  eval.dag = report.NumDetectedAbnormalPieces();
  for (const auto& rec : report.agp) {
    const auto& map = group_truth[rec.block];
    auto it = map.find(rec.abnormal_key);
    if (it == map.end()) continue;
    if (rec.merged && it->second.really_abnormal &&
        ResolveIds(rec.target_key, dirty, rules.rule(rec.block)) ==
            it->second.plurality_reason) {
      ++eval.agp.correct;
    }
  }

  // ---- Post-AGP snapshot for the RSC recall denominator: γs whose values
  // differ from the plurality truth of their tuples.
  size_t erroneous_pieces = 0;
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    const Block& block = index.block(bi);
    const Constraint& rule = rules.rule(block.rule_index);
    const std::vector<AttrId>& rule_attrs = rule.attrs();
    for (const Group& group : block.groups) {
      for (const auto& piece : group.pieces) {
        if (ResolveIds(piece.ids, dirty, rule) !=
            PluralityTruth(truth, piece.tuples, rule_attrs)) {
          ++erroneous_pieces;
        }
      }
    }
  }

  // ---- Weight learning + RSC.
  MLN_RETURN_NOT_OK(session.RunUntil(Stage::kRsc));

  eval.rsc.detected = report.rsc.size();
  eval.rsc.real = erroneous_pieces;
  for (const auto& rec : report.rsc) {
    const Constraint& rule = rules.rule(rec.block);
    if (ResolveIds(rec.winner_values, dirty, rule) ==
        PluralityTruth(truth, rec.affected_tuples, rule.attrs())) {
      ++eval.rsc.correct;
    }
  }

  // ---- FSCR.
  MLN_RETURN_NOT_OK(session.RunUntil(Stage::kFscr));
  eval.cleaned = session.cleaned();

  size_t fscr_correct = 0;
  size_t erroneous_conflict_cells = 0;
  for (const auto& rec : report.fscr) {
    for (AttrId attr : rec.conflict_attrs) {
      const Value& dirty_v = dirty.at(rec.tuple, attr);
      const Value& true_v = truth.TrueValue(rec.tuple, attr);
      const Value& final_v = eval.cleaned.at(rec.tuple, attr);
      if (dirty_v != true_v) ++erroneous_conflict_cells;
      if (final_v != dirty_v && final_v == true_v) ++fscr_correct;
    }
  }
  eval.fscr.correct = fscr_correct;
  eval.fscr.detected = erroneous_conflict_cells;
  eval.fscr.real = truth.NumErrors();

  eval.overall = EvaluateRepair(dirty, eval.cleaned, truth);
  eval.report = report;
  return eval;
}

}  // namespace mlnclean
