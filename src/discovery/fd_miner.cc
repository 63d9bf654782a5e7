#include "discovery/fd_miner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "discovery/partition.h"

namespace mlnclean {

namespace {

// One lattice node: an ascending attribute set with its partition.
struct LatticeNode {
  std::vector<AttrId> attrs;
  StrippedPartition part;
};

// A level-(k+1) candidate before its partition exists: parent node to
// refine plus the attribute the join added.
struct Candidate {
  std::vector<AttrId> attrs;
  size_t parent = 0;
  AttrId refine_attr = 0;
};

// Everything one node contributes, filled under ParallelFor and merged
// in node order.
struct NodeResult {
  bool kept = false;  // survived min_support; expands into the next level
  StrippedPartition part;
  std::vector<MinedFd> fds;
  std::vector<MinedCfd> cfds;
};

// True when some mined FD's lhs is a subset of `attrs` with result `rhs`
// (the minimality test). Both attr lists are ascending.
bool CoveredByMined(const std::vector<MinedFd>& mined, const std::vector<AttrId>& attrs,
                    AttrId rhs) {
  for (const MinedFd& fd : mined) {
    if (fd.rhs != rhs) continue;
    if (std::includes(attrs.begin(), attrs.end(), fd.lhs.begin(), fd.lhs.end())) {
      return true;
    }
  }
  return false;
}

// Evaluates one surviving node: examines every eligible result attribute,
// emitting an FD when the global confidence bar is met and otherwise
// constant-pattern CFDs from its consistent groups.
void MineNode(const Dataset& data, const DiscoveryOptions& options,
              const std::vector<AttrId>& attrs, const std::vector<MinedFd>& mined_prev,
              double support, NodeResult* out) {
  const size_t num_attrs = data.schema().num_attrs();
  const size_t covered = out->part.covered();
  for (size_t a = 0; a < num_attrs; ++a) {
    const AttrId rhs = static_cast<AttrId>(a);
    if (std::binary_search(attrs.begin(), attrs.end(), rhs)) continue;
    if (CoveredByMined(mined_prev, attrs, rhs)) continue;

    const std::vector<ValueId>& rhs_col = data.column(rhs);
    const FdEval eval = EvaluateFd(out->part, rhs_col, data.dict(rhs).size());
    const double confidence =
        covered > 0 ? static_cast<double>(eval.agree) / static_cast<double>(covered)
                    : 0.0;
    if (confidence >= options.min_confidence) {
      out->fds.push_back(MinedFd{attrs, rhs, support, confidence});
      continue;
    }

    // The FD failed globally; mine the groups where it holds locally.
    for (size_t g = 0; g < out->part.num_groups(); ++g) {
      const size_t rows = out->part.group_size(g);
      if (rows < options.min_cfd_support) continue;
      const double group_conf =
          static_cast<double>(eval.majority_count[g]) / static_cast<double>(rows);
      if (group_conf < options.min_cfd_confidence) continue;
      if (eval.majority_id[g] == kNullValueId) continue;  // never repair to NULL

      // Pattern constants come off the group's first row; NULL constants
      // make degenerate patterns and are skipped.
      const uint32_t row0 = out->part.group_rows(g)[0];
      std::vector<ValueId> lhs_ids;
      lhs_ids.reserve(attrs.size());
      bool has_null = false;
      for (AttrId attr : attrs) {
        const ValueId id = data.column(attr)[row0];
        if (id == kNullValueId) {
          has_null = true;
          break;
        }
        lhs_ids.push_back(id);
      }
      if (has_null) continue;
      out->cfds.push_back(MinedCfd{attrs, std::move(lhs_ids), rhs, eval.majority_id[g],
                                   rows, eval.majority_count[g]});
    }
  }
}

}  // namespace

Result<FdMinerOutput> MineFds(const Dataset& data, const DiscoveryOptions& options,
                              const ExecContext& ctx) {
  FdMinerOutput out;
  const size_t n = data.num_rows();
  const size_t num_attrs = data.schema().num_attrs();
  if (n < 2 || num_attrs < 2) return out;

  // Level 1: one candidate per attribute, partitioned from its column.
  std::vector<Candidate> candidates;
  candidates.reserve(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    candidates.push_back(Candidate{{static_cast<AttrId>(a)}, 0, static_cast<AttrId>(a)});
  }

  std::vector<LatticeNode> frontier;  // kept nodes of the previous level
  for (size_t level = 1; level <= options.max_lhs && !candidates.empty(); ++level) {
    // Node work in parallel, one result slot per node; `out.fds` is
    // frozen for the whole level, so minimality tests inside the loop
    // see identical state regardless of scheduling.
    std::vector<NodeResult> slots(candidates.size());
    ParallelFor(candidates.size(), ctx, [&](size_t i) {
      if (ctx.Stopped()) return;
      const Candidate& cand = candidates[i];
      NodeResult& slot = slots[i];
      if (level == 1) {
        slot.part = StrippedPartition::FromColumn(data.column(cand.refine_attr),
                                                  data.dict(cand.refine_attr).size());
      } else {
        slot.part = frontier[cand.parent].part.Refine(
            data.column(cand.refine_attr), data.dict(cand.refine_attr).size());
      }
      const double support =
          static_cast<double>(slot.part.covered()) / static_cast<double>(n);
      if (support < options.min_support) return;  // anti-monotone: prune subtree
      slot.kept = true;
      MineNode(data, options, cand.attrs, out.fds, support, &slot);
    });
    if (ctx.Stopped()) return ctx.StopStatus("rule discovery");

    // Deterministic merge in node order.
    std::vector<LatticeNode> kept;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].kept) continue;
      out.fds.insert(out.fds.end(), slots[i].fds.begin(), slots[i].fds.end());
      out.cfds.insert(out.cfds.end(), std::make_move_iterator(slots[i].cfds.begin()),
                      std::make_move_iterator(slots[i].cfds.end()));
      kept.push_back(LatticeNode{std::move(candidates[i].attrs), std::move(slots[i].part)});
    }
    frontier = std::move(kept);

    // Next level via the apriori join: nodes sharing a (k-1)-prefix, in
    // lexicographic order, with the all-subsets-survived check.
    candidates.clear();
    if (level == options.max_lhs) break;
    std::set<std::vector<AttrId>> survived;
    for (const LatticeNode& node : frontier) survived.insert(node.attrs);
    for (size_t i = 0; i < frontier.size(); ++i) {
      for (size_t j = i + 1; j < frontier.size(); ++j) {
        const std::vector<AttrId>& a = frontier[i].attrs;
        const std::vector<AttrId>& b = frontier[j].attrs;
        if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) continue;
        if (a.back() >= b.back()) continue;
        std::vector<AttrId> child = a;
        child.push_back(b.back());
        bool all_survived = true;
        std::vector<AttrId> sub;
        for (size_t drop = 0; all_survived && drop < child.size(); ++drop) {
          sub.clear();
          for (size_t t = 0; t < child.size(); ++t) {
            if (t != drop) sub.push_back(child[t]);
          }
          if (survived.find(sub) == survived.end()) all_survived = false;
        }
        if (!all_survived) continue;
        candidates.push_back(Candidate{std::move(child), i, b.back()});
      }
    }
  }
  return out;
}

}  // namespace mlnclean
