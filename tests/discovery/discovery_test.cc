#include "discovery/discovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cleaning/engine.h"
#include "common/random.h"
#include "datagen/hospital.h"
#include "errorgen/injector.h"
#include "eval/metrics.h"
#include "rules/rule_parser.h"

namespace mlnclean {
namespace {

// The dirty 40-hospital table most discovery tests mine. Static so the
// workload is generated once per process.
const DirtyDataset& SharedDirtyHospital() {
  static const DirtyDataset* dd = [] {
    Workload wl = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
    ErrorSpec spec;
    spec.seed = 21;
    return new DirtyDataset(*InjectErrors(wl.clean, wl.rules, spec));
  }();
  return *dd;
}

// Brute-force recomputation of an FD's stripped-partition measures.
struct BruteFd {
  double support = 0.0;
  double confidence = 0.0;
};

BruteFd BruteForceFd(const Dataset& data, const std::vector<AttrId>& lhs, AttrId rhs) {
  std::map<std::vector<ValueId>, std::map<ValueId, size_t>> groups;
  for (size_t row = 0; row < data.num_rows(); ++row) {
    std::vector<ValueId> key;
    for (AttrId a : lhs) key.push_back(data.column(a)[row]);
    ++groups[key][data.column(rhs)[row]];
  }
  size_t covered = 0;
  size_t agree = 0;
  for (const auto& [key, counts] : groups) {
    size_t size = 0;
    size_t majority = 0;
    for (const auto& [id, c] : counts) {
      size += c;
      majority = std::max(majority, c);
    }
    if (size < 2) continue;  // stripped: singleton groups carry no evidence
    covered += size;
    agree += majority;
  }
  BruteFd out;
  if (data.num_rows() > 0) {
    out.support = static_cast<double>(covered) / static_cast<double>(data.num_rows());
  }
  if (covered > 0) {
    out.confidence = static_cast<double>(agree) / static_cast<double>(covered);
  }
  return out;
}

TEST(DiscoveryOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(DiscoveryOptions{}.Validate().ok());
}

TEST(DiscoveryOptionsTest, RejectsOutOfRangeKnobs) {
  auto expect_invalid = [](DiscoveryOptions opts) {
    const Status s = opts.Validate();
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalid);
  };
  DiscoveryOptions o;
  o.max_lhs = 0;
  expect_invalid(o);
  o = {};
  o.max_lhs = 9;
  expect_invalid(o);
  o = {};
  o.min_support = -0.1;
  expect_invalid(o);
  o = {};
  o.min_confidence = 1.5;
  expect_invalid(o);
  o = {};
  o.min_cfd_support = 1;
  expect_invalid(o);
  o = {};
  o.max_rules = 0;
  expect_invalid(o);
  o = {};
  o.mln_sample_rows = 1;
  expect_invalid(o);
  o = {};
  o.min_mln_score = -1.0;
  expect_invalid(o);
}

TEST(DiscoveryOptionsTest, ValidateFuzz) {
  // Random knob assaults: Validate must classify without crashing, and
  // DiscoverRules must honor a failed Validate by refusing to run.
  Rng rng(99);
  const Dataset& dirty = SharedDirtyHospital().dirty;
  const Dataset tiny = dirty.Slice(0, 12);
  for (int round = 0; round < 200; ++round) {
    DiscoveryOptions o;
    o.max_lhs = rng.NextIndex(12);
    o.min_support = rng.NextDouble() * 3.0 - 1.0;
    o.min_confidence = rng.NextDouble() * 3.0 - 1.0;
    o.min_cfd_support = rng.NextIndex(5);
    o.min_cfd_confidence = rng.NextDouble() * 3.0 - 1.0;
    o.max_rules = rng.NextIndex(4);
    o.score_with_mln = rng.NextBool(0.5);
    o.mln_sample_rows = rng.NextIndex(6);
    o.min_mln_score = rng.NextDouble() * 3.0 - 1.0;
    const Status s = o.Validate();
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kInvalid);
      const auto r = DiscoverRules(tiny, o);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalid);
    } else {
      // A valid configuration must mine without failing.
      EXPECT_TRUE(DiscoverRules(tiny, o).ok());
    }
  }
}

TEST(DiscoveryTest, GoldenHospitalFdsRecovered) {
  // Mining the dirty 40-hospital table must recover (a superset of) the
  // hand-written HAI FDs: every hand-written X -> A appears verbatim in
  // the mined candidate list. (Final keep decisions then select the best
  // determinant per attribute; recovery is a property of the lattice.)
  const DirtyDataset& dd = SharedDirtyHospital();
  const Schema& schema = dd.dirty.schema();
  auto mined = DiscoverRules(dd.dirty);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  std::vector<std::pair<std::vector<AttrId>, AttrId>> candidates;
  for (const MinedRuleInfo& info : mined->mined) {
    if (info.kind != RuleKind::kFd) continue;
    Constraint c = *ParseRule(schema, info.text);
    candidates.emplace_back(c.reason_attrs(), c.result_attrs()[0]);
  }

  Workload wl = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
  size_t required = 0;
  for (const Constraint& hand : wl.rules.rules()) {
    if (hand.kind() != RuleKind::kFd) continue;
    for (AttrId rhs : hand.result_attrs()) {
      ++required;
      std::vector<AttrId> hand_lhs = hand.reason_attrs();
      std::sort(hand_lhs.begin(), hand_lhs.end());
      bool covered = false;
      for (const auto& [got_lhs, got_rhs] : candidates) {
        if (got_rhs != rhs) continue;
        if (std::includes(hand_lhs.begin(), hand_lhs.end(), got_lhs.begin(),
                          got_lhs.end())) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "no mined FD covers " << hand.ToString(schema)
                           << " for rhs " << schema.name(rhs);
    }
  }
  EXPECT_GE(required, 7u);  // the six FD rules expand to seven single-rhs FDs
  // And every kept rule must still be one of the mined candidates.
  EXPECT_FALSE(mined->rules.empty());
}

TEST(DiscoveryTest, MinedMeasuresMatchBruteForce) {
  // Property: every mined FD's stated support/confidence equals a naive
  // recomputation, and exact FDs (confidence 1.0) hold violation-free.
  const Dataset& dirty = SharedDirtyHospital().dirty;
  DiscoveryOptions opts;
  opts.score_with_mln = false;  // measure the lattice, not the model
  auto mined = DiscoverRules(dirty, opts);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined->mined.empty());

  for (const MinedRuleInfo& info : mined->mined) {
    if (info.kind != RuleKind::kFd) continue;
    Constraint c = *ParseRule(dirty.schema(), info.text);
    ASSERT_EQ(c.result_attrs().size(), 1u);
    const BruteFd brute = BruteForceFd(dirty, c.reason_attrs(), c.result_attrs()[0]);
    EXPECT_DOUBLE_EQ(info.support, brute.support) << info.text;
    EXPECT_DOUBLE_EQ(info.confidence, brute.confidence) << info.text;
  }
}

TEST(DiscoveryTest, ExactRulesHoldOnCleanData) {
  // On the clean table with exact thresholds, every mined FD must hold
  // with zero violations and every CFD pattern must be pure.
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
  DiscoveryOptions opts;
  opts.min_confidence = 1.0;
  opts.min_cfd_confidence = 1.0;
  opts.score_with_mln = false;
  opts.max_rules = 256;
  auto mined = DiscoverRules(wl.clean, opts);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  for (const MinedRuleInfo& info : mined->mined) {
    Constraint c = *ParseRule(wl.clean.schema(), info.text);
    if (info.kind == RuleKind::kFd) {
      std::map<std::vector<ValueId>, ValueId> rhs_of;
      for (size_t row = 0; row < wl.clean.num_rows(); ++row) {
        std::vector<ValueId> key;
        for (AttrId a : c.reason_attrs()) key.push_back(wl.clean.column(a)[row]);
        const ValueId rhs = wl.clean.column(c.result_attrs()[0])[row];
        auto [it, inserted] = rhs_of.emplace(key, rhs);
        EXPECT_EQ(it->second, rhs) << info.text << " violated at row " << row;
      }
    } else if (info.kind == RuleKind::kCfd) {
      size_t matched = 0;
      for (size_t row = 0; row < wl.clean.num_rows(); ++row) {
        std::vector<Value> tuple;
        for (size_t a = 0; a < wl.clean.schema().num_attrs(); ++a) {
          tuple.push_back(wl.clean.at(static_cast<TupleId>(row), static_cast<AttrId>(a)));
        }
        if (!c.MatchesAllLhsConstants(tuple)) continue;
        ++matched;
        ASSERT_EQ(c.rhs_patterns().size(), 1u);
        EXPECT_EQ(tuple[c.rhs_patterns()[0].attr], *c.rhs_patterns()[0].constant)
            << info.text << " violated at row " << row;
      }
      EXPECT_GE(matched, DiscoveryOptions{}.min_cfd_support) << info.text;
    }
  }
}

TEST(DiscoveryTest, MinedRulesRoundTripCanonically) {
  const DirtyDataset& dd = SharedDirtyHospital();
  auto mined = DiscoverRules(dd.dirty);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined->rules.empty());

  // Byte-identical CanonicalText -> ParseRules -> CanonicalText.
  std::string text;
  for (const Constraint& c : mined->rules.rules()) {
    text += c.CanonicalText(dd.dirty.schema());
    text += '\n';
  }
  auto reparsed = ParseRules(dd.dirty.schema(), text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), mined->rules.size());
  for (size_t i = 0; i < reparsed->size(); ++i) {
    EXPECT_EQ(reparsed->rule(i).CanonicalText(dd.dirty.schema()),
              mined->rules.rule(i).CanonicalText(dd.dirty.schema()));
  }
}

TEST(DiscoveryTest, DefaultRuleSetIsPinned) {
  // The rules default options keep on the dirty 40-hospital table, in
  // order: one FD per result attribute, and none of the mined constant
  // CFDs. Changing what discovery mines, scores or selects shows up here
  // first.
  const DirtyDataset& dd = SharedDirtyHospital();
  auto mined = DiscoverRules(dd.dirty);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  std::vector<std::string> kept;
  for (const Constraint& c : mined->rules.rules()) {
    kept.push_back(c.CanonicalText(dd.dirty.schema()));
  }
  const std::vector<std::string> expected = {
      "FD: HospitalName -> ProviderID",  "FD: HospitalName -> City",
      "FD: HospitalName -> State",       "FD: HospitalName -> ZIPCode",
      "FD: HospitalName -> CountyName",  "FD: HospitalName -> PhoneNumber",
      "FD: PhoneNumber -> HospitalName", "FD: MeasureID -> MeasureName",
      "FD: MeasureName -> MeasureID",
  };
  EXPECT_EQ(kept, expected);
  EXPECT_EQ(mined->mined.size(), 162u);
}

TEST(DiscoveryTest, ConstantCfdsOnlyWhereNoFdIsKept) {
  // X -> A fails globally (X=r maps to ten A values), but the X=p group
  // is a pure pattern, so the lattice proposes CFD X=p -> A=q. It is
  // kept while no FD determines A, and dropped once Z -> A holds (as is
  // X=p -> Z=q beside A -> Z). A -> X and Z -> X tie on both measures,
  // so only the earlier one in lattice order stays.
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({"p", "q", "q"});
  for (int i = 0; i < 10; ++i) {
    const std::string a = "a" + std::to_string(i);
    rows.push_back({"r", a, a});
  }
  DiscoveryOptions opts;
  opts.score_with_mln = false;  // selection only
  auto kept_texts = [&](const Dataset& data) {
    std::vector<std::string> out;
    auto mined = DiscoverRules(data, opts);
    if (!mined.ok()) {
      ADD_FAILURE() << mined.status().ToString();
      return out;
    }
    for (const Constraint& c : mined->rules.rules()) {
      out.push_back(c.CanonicalText(data.schema()));
    }
    return out;
  };

  std::vector<std::vector<std::string>> xa;
  for (const auto& row : rows) xa.push_back({row[0], row[1]});
  const auto without_fd = kept_texts(*Dataset::Make(*Schema::Make({"X", "A"}), xa));
  EXPECT_EQ(std::count(without_fd.begin(), without_fd.end(), "CFD: X=p -> A=q"), 1);

  const auto with_fd = kept_texts(*Dataset::Make(*Schema::Make({"X", "A", "Z"}), rows));
  EXPECT_EQ(std::count(with_fd.begin(), with_fd.end(), "FD: Z -> A"), 1);
  EXPECT_EQ(std::count(with_fd.begin(), with_fd.end(), "FD: A -> X"), 1);
  EXPECT_EQ(std::count(with_fd.begin(), with_fd.end(), "FD: Z -> X"), 0);
  for (const std::string& text : with_fd) {
    EXPECT_NE(text.rfind("CFD:", 0), 0u) << text;
  }
}

TEST(DiscoveryTest, ThreadCountDoesNotChangeTheResult) {
  const DirtyDataset& dd = SharedDirtyHospital();
  DiscoveryOptions seq;
  seq.num_threads = 1;
  auto a = DiscoverRules(dd.dirty, seq);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  DiscoveryOptions par;
  par.num_threads = 4;
  auto b = DiscoverRules(dd.dirty, par);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  ASSERT_EQ(a->mined.size(), b->mined.size());
  for (size_t i = 0; i < a->mined.size(); ++i) {
    EXPECT_EQ(a->mined[i].text, b->mined[i].text);
    EXPECT_EQ(a->mined[i].kept, b->mined[i].kept);
    EXPECT_EQ(a->mined[i].support, b->mined[i].support);
    EXPECT_EQ(a->mined[i].confidence, b->mined[i].confidence);
    EXPECT_EQ(a->mined[i].mln_score, b->mined[i].mln_score);
  }
  ASSERT_EQ(a->rules.size(), b->rules.size());
  for (size_t i = 0; i < a->rules.size(); ++i) {
    EXPECT_EQ(a->rules.rule(i).CanonicalText(dd.dirty.schema()),
              b->rules.rule(i).CanonicalText(dd.dirty.schema()));
  }
}

TEST(DiscoveryTest, CancellationAborts) {
  const DirtyDataset& dd = SharedDirtyHospital();
  DiscoveryOptions opts;
  opts.cancel.RequestCancel();
  const auto r = DiscoverRules(dd.dirty, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(DiscoveryTest, EndToEndMinedRulesCleanWithinTenPercentOfHandWritten) {
  // The acceptance demo: mine rules from the dirty table with zero
  // hand-written rules, clean with them, and land within 10% of the
  // hand-written-rules F-score.
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
  ErrorSpec spec;
  spec.seed = 21;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);

  auto mined = DiscoverRules(dd.dirty);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  ASSERT_FALSE(mined->rules.empty());

  CleaningOptions copts;
  copts.agp_threshold = 3;
  CleaningEngine engine(copts);
  auto hand = engine.Clean(dd.dirty, wl.rules);
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();
  auto ours = engine.Clean(dd.dirty, mined->rules);
  ASSERT_TRUE(ours.ok()) << ours.status().ToString();

  const double hand_f1 = EvaluateRepair(dd.dirty, hand->cleaned, dd.truth).F1();
  const double mined_f1 = EvaluateRepair(dd.dirty, ours->cleaned, dd.truth).F1();
  EXPECT_GE(mined_f1, hand_f1 * 0.9)
      << "mined F1 " << mined_f1 << " vs hand-written F1 " << hand_f1;
}

}  // namespace
}  // namespace mlnclean
