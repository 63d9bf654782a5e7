// Quickstart: clean the paper's running example (Table 1) and walk
// through what each stage did.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "mlnclean/internal.h"  // Join, for pretty-printing the trace
#include "mlnclean/mlnclean.h"

using namespace mlnclean;

namespace {

void PrintDataset(const char* title, const Dataset& data) {
  std::printf("%s\n", title);
  std::printf("  %-4s", "TID");
  for (const auto& name : data.schema().names()) std::printf("%-12s", name.c_str());
  std::printf("\n");
  for (TupleId t = 0; t < static_cast<TupleId>(data.num_rows()); ++t) {
    std::printf("  t%-3d", t + 1);
    for (const auto& v : data.row(t)) std::printf("%-12s", v.c_str());
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // Table 1: six hospital tuples with a typo (t2.CT), a replacement error
  // (t3.CT and t3.PN), a schema-level violation (t4.ST), and duplicates.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();

  std::printf("Rules:\n");
  for (const auto& rule : rules.rules()) {
    std::printf("  %s: %s   (MLN form: %s)\n", rule.name().c_str(),
                rule.ToString(rules.schema()).c_str(),
                rule.MlnClause(rules.schema()).c_str());
  }

  PrintDataset("\nDirty input (Table 1):", dirty);

  CleaningOptions options;
  options.agp_threshold = 1;  // τ = 1, the paper's CAR/sample setting
  CleaningEngine engine(options);
  CleanModel model = *engine.Compile(dirty.schema(), rules);
  CleanResult result = *model.Clean(dirty);

  PrintDataset("\nRepaired (row-aligned):", result.cleaned);
  PrintDataset("\nAfter duplicate elimination:", result.deduped);

  std::printf("\nWhat happened: %s\n", result.report.Summary().c_str());
  // Records keep dictionary ids in their rule's order; ResolveIds reads
  // the values through the result's dictionaries.
  auto values = [&](const std::vector<ValueId>& ids, size_t block) {
    return Join(ResolveIds(ids, result.cleaned, rules.rule(block)), ", ");
  };
  for (const auto& rec : result.report.agp) {
    std::printf("  AGP: group {%s} was abnormal -> merged into {%s}\n",
                values(rec.abnormal_key, rec.block).c_str(),
                values(rec.target_key, rec.block).c_str());
  }
  for (const auto& rec : result.report.rsc) {
    std::printf("  RSC: {%s} rewritten to {%s} (%zu tuple(s))\n",
                values(rec.loser_values, rec.block).c_str(),
                values(rec.winner_values, rec.block).c_str(),
                rec.affected_tuples.size());
  }
  return 0;
}
