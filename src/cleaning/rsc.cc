#include "cleaning/rsc.h"

#include <algorithm>
#include <limits>

namespace mlnclean {

namespace {

// min-distance scratch reused across all the groups of a block.
struct RscScratch {
  std::vector<double> min_dist;
};

void ComputeReliabilityScores(const Group& group, const Dataset& data,
                              const Constraint& rule, const DistanceFn& dist,
                              RscScratch* scratch, std::vector<double>* scores) {
  const size_t m = group.pieces.size();
  scores->assign(m, 0.0);
  if (m == 0) return;
  if (m == 1) {
    (*scores)[0] =
        static_cast<double>(group.pieces[0].support()) * group.pieces[0].weight;
    return;
  }
  // Pairwise raw distances and the normalizer Z (max pairwise distance).
  // Equal-id positions cost an integer compare, not a kernel call.
  std::vector<double>& min_dist = scratch->min_dist;
  min_dist.assign(m, std::numeric_limits<double>::infinity());
  double z = 0.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      double d = PieceDistance(group.pieces[i], group.pieces[j], data, rule, dist);
      z = std::max(z, d);
      min_dist[i] = std::min(min_dist[i], d);
      min_dist[j] = std::min(min_dist[j], d);
    }
  }
  if (z <= 0.0) z = 1.0;  // all γs at distance zero: scores reduce to n·w
  for (size_t i = 0; i < m; ++i) {
    double n = static_cast<double>(group.pieces[i].support());
    double d = (min_dist[i] == std::numeric_limits<double>::infinity())
                   ? 1.0
                   : min_dist[i];
    (*scores)[i] = (n / z) * d * group.pieces[i].weight;
  }
}

void RunRscGroupImpl(Group* group, size_t block_rule_index, const Dataset& data,
                     const Constraint& rule, const DistanceFn& dist,
                     CleaningReport* report, RscScratch* scratch,
                     std::vector<double>* scores);

}  // namespace

std::vector<double> ReliabilityScores(const Group& group, const Dataset& data,
                                      const Constraint& rule, const DistanceFn& dist) {
  RscScratch scratch;
  std::vector<double> scores;
  ComputeReliabilityScores(group, data, rule, dist, &scratch, &scores);
  return scores;
}

void RunRscGroup(Group* group, size_t block_rule_index, const Dataset& data,
                 const Constraint& rule, const DistanceFn& dist,
                 CleaningReport* report) {
  RscScratch scratch;
  std::vector<double> scores;
  RunRscGroupImpl(group, block_rule_index, data, rule, dist, report, &scratch, &scores);
}

namespace {

void RunRscGroupImpl(Group* group, size_t block_rule_index, const Dataset& data,
                     const Constraint& rule, const DistanceFn& dist,
                     CleaningReport* report, RscScratch* scratch,
                     std::vector<double>* scores_buf) {
  if (group->pieces.size() <= 1) return;  // already in the ideal state
  ComputeReliabilityScores(*group, data, rule, dist, scratch, scores_buf);
  std::vector<double>& scores = *scores_buf;
  // Winner: max r-score; ties broken by weight, then support, then order.
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    const Piece& cand = group->pieces[i];
    const Piece& cur = group->pieces[best];
    if (scores[i] > scores[best] ||
        (scores[i] == scores[best] &&
         (cand.weight > cur.weight ||
          (cand.weight == cur.weight && cand.support() > cur.support())))) {
      best = i;
    }
  }
  Piece winner = std::move(group->pieces[best]);
  for (size_t i = 0; i < group->pieces.size(); ++i) {
    if (i == best) continue;
    Piece& loser = group->pieces[i];
    winner.tuples.insert(winner.tuples.end(), loser.tuples.begin(),
                         loser.tuples.end());
    if (report) {
      // The loser is discarded below, so its ids and tuples move into its
      // record.
      RscRepairRecord rec;
      rec.block = block_rule_index;
      rec.winner_values = winner.ids;
      rec.loser_values = std::move(loser.ids);
      rec.affected_tuples = std::move(loser.tuples);
      report->rsc.push_back(std::move(rec));
    }
  }
  // The winner goes to the front: a merged-in winner's reason values key
  // the group from now on.
  group->pieces.clear();
  group->pieces.push_back(std::move(winner));
}

// RSC over one block: one scratch for all of its groups.
void RunRscBlock(Block* block, const Dataset& data, const RuleSet& rules,
                 const DistanceFn& dist, CleaningReport* report) {
  RscScratch scratch;
  std::vector<double> scores;
  const Constraint& rule = rules.rule(block->rule_index);
  for (Group& group : block->groups) {
    RunRscGroupImpl(&group, block->rule_index, data, rule, dist, report, &scratch,
                    &scores);
  }
}

}  // namespace

void RunRscAll(MlnIndex* index, const Dataset& data, const RuleSet& rules,
               const DistanceFn& dist, CleaningReport* report, const ExecContext& ctx) {
  // Per-block record buffers spliced back in block order keep the report
  // independent of which worker ran which block.
  const size_t num_blocks = index->num_blocks();
  std::vector<CleaningReport> local(report ? num_blocks : 0);
  ParallelFor(num_blocks, ctx, [&](size_t bi) {
    if (ctx.Stopped()) return;
    RunRscBlock(&index->block(bi), data, rules, dist, report ? &local[bi] : nullptr);
  });
  if (report) SpliceRecords(&local, &CleaningReport::rsc, &report->rsc);
}

}  // namespace mlnclean
