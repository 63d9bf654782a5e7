#include "cleaning/report.h"

#include <sstream>

namespace mlnclean {

std::vector<Value> ResolveIds(const std::vector<ValueId>& ids, const Dataset& data,
                              const Constraint& rule) {
  const std::vector<AttrId>& attrs = rule.attrs();
  std::vector<Value> out;
  out.reserve(ids.size());
  for (size_t p = 0; p < ids.size(); ++p) out.push_back(data.dict(attrs[p]).value(ids[p]));
  return out;
}

size_t CleaningReport::NumDetectedAbnormalPieces() const {
  size_t n = 0;
  for (const auto& rec : agp) n += rec.num_pieces;
  return n;
}

std::string CleaningReport::Summary() const {
  std::ostringstream out;
  size_t pairs = 0;
  size_t bucket_bounds = 0;
  size_t candidate_bounds = 0;
  size_t exact_evaluations = 0;
  size_t kernel_calls = 0;
  for (const auto& rec : agp) {
    pairs += rec.pairs;
    bucket_bounds += rec.bucket_bounds;
    candidate_bounds += rec.candidate_bounds;
    exact_evaluations += rec.exact_evaluations;
    kernel_calls += rec.kernel_calls;
  }
  out << "agp: " << agp.size() << " abnormal groups (" << NumDetectedAbnormalPieces()
      << " pieces; " << pairs << " pairs, " << bucket_bounds << " bucket bounds, "
      << candidate_bounds << " candidate bounds, " << exact_evaluations
      << " exact evaluations, " << kernel_calls << " kernel calls); learn: "
      << learn_capped_groups << " capped groups; rsc: " << rsc.size()
      << " replacements; fscr: ";
  size_t conflicted = 0;
  size_t exhaustive = 0;
  size_t active_versions = 0;
  size_t nodes = 0;
  size_t dominance_hits = 0;
  size_t substitutions = 0;
  for (const auto& rec : fscr) {
    if (!rec.conflict_attrs.empty()) ++conflicted;
    if (rec.outcome == FusionOutcome::kExhaustive) ++exhaustive;
    active_versions += rec.active_versions;
    nodes += rec.nodes;
    dominance_hits += rec.dominance_hits;
    substitutions += rec.substitutions;
  }
  out << conflicted << "/" << fscr.size() << " tuples with conflicts ("
      << exhaustive << " exhaustive, " << fscr_greedy_tuples << " greedy; "
      << active_versions << " active versions, " << nodes << " nodes, " << dominance_hits
      << " dominance hits, " << substitutions << " substitutions); duplicates: "
      << duplicates.size();
  return out.str();
}

}  // namespace mlnclean
