// One comparison of two CleaningReports for the bit-identity contracts
// (1 vs N threads, incremental == cold, fleet == server, save∘load ==
// id): every field of every record, f-scores bit for bit, and the session
// counters. Wall-clock timings are not compared. AGP and RSC records keep
// value ids. Runs over one dictionary universe (the same input, or a
// Dataset::Gather of it: threads, fleet == server, save∘load) compare the
// ids; runs over two (incremental == cold: an incremental session interns
// its appended rows into its own dictionaries, while a cold session over a
// slice keeps the whole input's) compare the ids resolved to values.

#ifndef MLNCLEAN_TESTS_TESTING_SAME_REPORT_H_
#define MLNCLEAN_TESTS_TESTING_SAME_REPORT_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cleaning/report.h"

namespace mlnclean {
namespace testing {

// Every record field; `same_ids(x, y, block)` compares the value-id tuples
// of one AGP or RSC record pair.
template <typename SameIds>
void ExpectSameReportWith(const CleaningReport& a, const CleaningReport& b,
                          const SameIds& same_ids) {
  ASSERT_EQ(a.agp.size(), b.agp.size());
  for (size_t i = 0; i < a.agp.size(); ++i) {
    SCOPED_TRACE("agp record " + std::to_string(i));
    const AgpMergeRecord& x = a.agp[i];
    const AgpMergeRecord& y = b.agp[i];
    EXPECT_EQ(x.block, y.block);
    same_ids(x.abnormal_key, y.abnormal_key, x.block);
    EXPECT_EQ(x.abnormal_tuples, y.abnormal_tuples);
    EXPECT_EQ(x.num_pieces, y.num_pieces);
    same_ids(x.target_key, y.target_key, x.block);
    EXPECT_EQ(x.merged, y.merged);
    EXPECT_EQ(x.pairs, y.pairs);
    EXPECT_EQ(x.bucket_bounds, y.bucket_bounds);
    EXPECT_EQ(x.candidate_bounds, y.candidate_bounds);
    EXPECT_EQ(x.exact_evaluations, y.exact_evaluations);
    EXPECT_EQ(x.kernel_calls, y.kernel_calls);
  }
  ASSERT_EQ(a.rsc.size(), b.rsc.size());
  for (size_t i = 0; i < a.rsc.size(); ++i) {
    SCOPED_TRACE("rsc record " + std::to_string(i));
    const RscRepairRecord& x = a.rsc[i];
    const RscRepairRecord& y = b.rsc[i];
    EXPECT_EQ(x.block, y.block);
    same_ids(x.winner_values, y.winner_values, x.block);
    same_ids(x.loser_values, y.loser_values, x.block);
    EXPECT_EQ(x.affected_tuples, y.affected_tuples);
  }
  ASSERT_EQ(a.fscr.size(), b.fscr.size());
  for (size_t i = 0; i < a.fscr.size(); ++i) {
    SCOPED_TRACE("fscr record " + std::to_string(i));
    const FscrRecord& x = a.fscr[i];
    const FscrRecord& y = b.fscr[i];
    EXPECT_EQ(x.tuple, y.tuple);
    EXPECT_EQ(x.conflict_attrs, y.conflict_attrs);
    EXPECT_EQ(x.fused, y.fused);
    // Bit-identical, not just close: both runs must execute the same
    // floating-point operations in the same order per tuple.
    EXPECT_EQ(x.f_score, y.f_score);
    EXPECT_EQ(x.outcome, y.outcome);
    EXPECT_EQ(x.active_versions, y.active_versions);
    EXPECT_EQ(x.nodes, y.nodes);
    EXPECT_EQ(x.dominance_hits, y.dominance_hits);
    EXPECT_EQ(x.substitutions, y.substitutions);
  }
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.learn_capped_groups, b.learn_capped_groups);
  EXPECT_EQ(a.fscr_greedy_tuples, b.fscr_greedy_tuples);
}

/// Two runs over one dictionary universe: ids compare directly.
inline void ExpectSameReport(const CleaningReport& a, const CleaningReport& b) {
  ExpectSameReportWith(a, b, [](const std::vector<ValueId>& x, const std::vector<ValueId>& y,
                                size_t) { EXPECT_EQ(x, y); });
}

/// Two runs over different dictionaries: each record's ids are resolved
/// through its own run's dataset (`a_data`, `b_data`) and rule.
inline void ExpectSameReport(const CleaningReport& a, const Dataset& a_data,
                             const CleaningReport& b, const Dataset& b_data,
                             const RuleSet& rules) {
  ExpectSameReportWith(a, b, [&](const std::vector<ValueId>& x, const std::vector<ValueId>& y,
                                 size_t block) {
    const Constraint& rule = rules.rule(block);
    EXPECT_EQ(ResolveIds(x, a_data, rule), ResolveIds(y, b_data, rule));
  });
}

}  // namespace testing
}  // namespace mlnclean

#endif  // MLNCLEAN_TESTS_TESTING_SAME_REPORT_H_
