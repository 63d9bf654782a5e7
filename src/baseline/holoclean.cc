#include "baseline/holoclean.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/distance.h"
#include "common/random.h"
#include "common/timer.h"

namespace mlnclean {

namespace {

// ---------- statistics over the clean partition ----------

// Composite-key maps: frequencies of (attr, value) and co-occurrence
// counts of (attr_a, value_a, attr_b, value_b) among clean cells.
struct CleanStats {
  std::unordered_map<std::string, double> freq;        // "a|v" -> count
  std::unordered_map<std::string, double> attr_total;  // "a" -> clean cells
  std::unordered_map<std::string, double> cooc;        // "a|v|b|w" -> count
  // "b|w|a" -> candidate values of attr a co-occurring with (b = w).
  std::unordered_map<std::string, std::vector<std::pair<Value, double>>> candidates;
  // Per rule: reason key -> result value counts ("r|key|v" -> count).
  std::unordered_map<std::string, double> rule_result;
  std::unordered_map<std::string, double> rule_reason_total;  // "r|key"

  static std::string FreqKey(AttrId a, const Value& v) {
    return std::to_string(a) + '\x1f' + v;
  }
  static std::string CoocKey(AttrId a, const Value& v, AttrId b, const Value& w) {
    return std::to_string(a) + '\x1f' + v + '\x1f' + std::to_string(b) + '\x1f' + w;
  }
  static std::string CandKey(AttrId b, const Value& w, AttrId a) {
    return std::to_string(b) + '\x1f' + w + '\x1f' + std::to_string(a);
  }
};

std::string RuleReasonKey(size_t rule_index, const std::vector<Value>& reason) {
  std::string key = std::to_string(rule_index);
  key += '\x1e';
  for (const auto& v : reason) {
    key += v;
    key += '\x1f';
  }
  return key;
}

CleanStats BuildStats(const Dataset& data, const RuleSet& rules,
                      const std::vector<std::vector<bool>>& noisy) {
  CleanStats stats;
  const auto rows = static_cast<TupleId>(data.num_rows());
  const auto attrs = static_cast<AttrId>(data.num_attrs());
  for (TupleId t = 0; t < rows; ++t) {
    for (AttrId a = 0; a < attrs; ++a) {
      if (noisy[t][static_cast<size_t>(a)]) continue;
      const Value& v = data.at(t, a);
      stats.freq[CleanStats::FreqKey(a, v)] += 1.0;
      stats.attr_total[std::to_string(a)] += 1.0;
      for (AttrId b = 0; b < attrs; ++b) {
        if (b == a || noisy[t][static_cast<size_t>(b)]) continue;
        stats.cooc[CleanStats::CoocKey(a, v, b, data.at(t, b))] += 1.0;
      }
    }
  }
  // Candidate lists: for every clean pair, remember which values of `a`
  // appear alongside (b = w).
  for (const auto& [key, count] : stats.cooc) {
    // key = a \x1f v \x1f b \x1f w
    size_t p1 = key.find('\x1f');
    size_t p2 = key.find('\x1f', p1 + 1);
    size_t p3 = key.find('\x1f', p2 + 1);
    std::string a = key.substr(0, p1);
    Value v = key.substr(p1 + 1, p2 - p1 - 1);
    std::string b = key.substr(p2 + 1, p3 - p2 - 1);
    Value w = key.substr(p3 + 1);
    stats.candidates[b + '\x1f' + w + '\x1f' + a].emplace_back(std::move(v), count);
  }
  for (auto& [key, cands] : stats.candidates) {
    (void)key;
    std::sort(cands.begin(), cands.end(),
              [](const auto& x, const auto& y) { return x.second > y.second; });
  }
  // Rule-side statistics from tuples whose rule cells are all clean.
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Constraint& rule = rules.rule(ri);
    for (TupleId t = 0; t < rows; ++t) {
      if (!rule.InScope(data, t)) continue;
      bool all_clean = true;
      for (AttrId a : rule.attrs()) {
        if (noisy[t][static_cast<size_t>(a)]) {
          all_clean = false;
          break;
        }
      }
      if (!all_clean) continue;
      std::string rk = RuleReasonKey(ri, rule.ReasonValues(data, t));
      stats.rule_reason_total[rk] += 1.0;
      std::string result_key = rk + '\x1d';
      for (const Value& v : rule.ResultValues(data, t)) {
        result_key += v;
        result_key += '\x1f';
      }
      stats.rule_result[result_key] += 1.0;
    }
  }
  return stats;
}

// ---------- featurization ----------

// Feature layout: one co-occurrence slot per neighbour attribute, then
// frequency, constraint agreement, minimality.
struct FeatureSpace {
  size_t num_attrs;
  size_t size() const { return num_attrs + 3; }
  size_t FreqSlot() const { return num_attrs; }
  size_t ConstraintSlot() const { return num_attrs + 1; }
  size_t MinimalitySlot() const { return num_attrs + 2; }
};

// Features of candidate `v` for cell (t, a).
std::vector<double> Featurize(const Dataset& data, const RuleSet& rules,
                              const std::vector<std::vector<bool>>& noisy,
                              const CleanStats& stats, const FeatureSpace& space,
                              TupleId t, AttrId a, const Value& v) {
  std::vector<double> f(space.size(), 0.0);
  const auto attrs = static_cast<AttrId>(data.num_attrs());
  // Co-occurrence with each clean neighbour cell: Pr(a=v | b=w).
  for (AttrId b = 0; b < attrs; ++b) {
    if (b == a || noisy[t][static_cast<size_t>(b)]) continue;
    const Value& w = data.at(t, b);
    auto it = stats.cooc.find(CleanStats::CoocKey(a, v, b, w));
    if (it == stats.cooc.end()) continue;
    auto fb = stats.freq.find(CleanStats::FreqKey(b, w));
    double denom = fb == stats.freq.end() ? 1.0 : fb->second;
    f[static_cast<size_t>(b)] = it->second / std::max(1.0, denom);
  }
  // Frequency prior.
  auto fa = stats.freq.find(CleanStats::FreqKey(a, v));
  auto ta = stats.attr_total.find(std::to_string(a));
  if (fa != stats.freq.end() && ta != stats.attr_total.end() && ta->second > 0.0) {
    f[space.FreqSlot()] = fa->second / ta->second;
  }
  // Constraint agreement: does v match the majority result for the tuple's
  // reason key (rules whose result part contains a), and the CFD constant
  // when the lhs pattern matches?
  double agree = 0.0, considered = 0.0;
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Constraint& rule = rules.rule(ri);
    const auto& result_attrs = rule.result_attrs();
    auto pos = std::find(result_attrs.begin(), result_attrs.end(), a);
    if (pos == result_attrs.end()) continue;
    if (!rule.InScope(data, t)) continue;
    if (rule.kind() == RuleKind::kCfd) {
      // Constant-rhs CFD: direct agreement with the constant.
      const auto& rhs = rule.rhs_patterns();
      size_t idx = static_cast<size_t>(pos - result_attrs.begin());
      if (rhs[idx].is_constant() && rule.MatchesAllLhsConstants(data, t)) {
        considered += 1.0;
        if (v == *rhs[idx].constant) agree += 1.0;
        continue;
      }
    }
    // Majority result among clean tuples sharing the reason key.
    std::string rk = RuleReasonKey(ri, rule.ReasonValues(data, t));
    auto total = stats.rule_reason_total.find(rk);
    if (total == stats.rule_reason_total.end() || total->second <= 0.0) continue;
    // Candidate result vector: the tuple's current result values with
    // position `pos` replaced by v.
    std::string result_key = rk + '\x1d';
    for (size_t i = 0; i < result_attrs.size(); ++i) {
      result_key += (result_attrs[i] == a) ? v : data.at(t, result_attrs[i]);
      result_key += '\x1f';
    }
    auto hit = stats.rule_result.find(result_key);
    considered += 1.0;
    if (hit != stats.rule_result.end()) {
      agree += hit->second / total->second;
    }
  }
  f[space.ConstraintSlot()] = considered > 0.0 ? agree / considered : 0.5;
  // Minimality: normalized edit similarity to the current value.
  const Value& current = data.at(t, a);
  size_t max_len = std::max(current.size(), v.size());
  double lev = max_len == 0 ? 0.0 : static_cast<double>(Levenshtein(current, v));
  f[space.MinimalitySlot()] = max_len == 0 ? 1.0 : 1.0 - lev / max_len;
  return f;
}

// Candidate repair values for cell (t, a): co-occurring values ranked by
// evidence, plus the current value.
std::vector<Value> CandidateDomain(const Dataset& data,
                                   const std::vector<std::vector<bool>>& noisy,
                                   const CleanStats& stats, TupleId t, AttrId a,
                                   size_t cap) {
  std::unordered_map<Value, double> scores;
  const auto attrs = static_cast<AttrId>(data.num_attrs());
  for (AttrId b = 0; b < attrs; ++b) {
    if (b == a || noisy[t][static_cast<size_t>(b)]) continue;
    auto it = stats.candidates.find(CleanStats::CandKey(b, data.at(t, b), a));
    if (it == stats.candidates.end()) continue;
    for (const auto& [v, count] : it->second) {
      scores[v] += count;
    }
  }
  std::vector<std::pair<Value, double>> ranked(scores.begin(), scores.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.second > y.second || (x.second == y.second && x.first < y.first);
  });
  std::vector<Value> out;
  out.push_back(data.at(t, a));  // the current value always competes
  for (const auto& [v, score] : ranked) {
    (void)score;
    if (out.size() >= cap) break;
    if (v != out.front()) out.push_back(v);
  }
  return out;
}

double Dot(const std::vector<double>& w, const std::vector<double>& f) {
  double s = 0.0;
  for (size_t i = 0; i < w.size(); ++i) s += w[i] * f[i];
  return s;
}

}  // namespace

HoloCleanBaseline::HoloCleanBaseline(HoloCleanOptions options)
    : options_(std::move(options)) {}

Result<HoloCleanResult> HoloCleanBaseline::CleanWithOracle(
    const Dataset& dirty, const RuleSet& rules, const GroundTruth& truth) const {
  std::vector<std::vector<bool>> noisy(dirty.num_rows(),
                                       std::vector<bool>(dirty.num_attrs(), false));
  for (const auto& e : truth.errors()) {
    noisy[static_cast<size_t>(e.tid)][static_cast<size_t>(e.attr)] = true;
  }
  return Clean(dirty, rules, noisy);
}

Result<HoloCleanResult> HoloCleanBaseline::Clean(
    const Dataset& dirty, const RuleSet& rules,
    const std::vector<std::vector<bool>>& noisy) const {
  if (noisy.size() != dirty.num_rows()) {
    return Status::Invalid("noisy mask row count mismatch");
  }
  Timer total;
  HoloCleanResult result;
  result.cleaned = dirty.Clone();
  auto cancelled = [this] { return options_.cancel.cancelled(); };
  if (cancelled()) return Status::Cancelled("holoclean cancelled before compile");

  // ---- Compile: statistics over the clean partition.
  Timer compile;
  CleanStats stats = BuildStats(dirty, rules, noisy);
  FeatureSpace space{dirty.num_attrs()};
  result.compile_seconds = compile.ElapsedSeconds();
  if (cancelled()) return Status::Cancelled("holoclean cancelled before learning");

  // ---- Learn shared feature weights on sampled clean cells.
  Timer learn;
  Rng rng(options_.seed);
  // One weight vector per target attribute: "neighbour b predicts a" is an
  // attribute-pair relationship, so sharing weights across target
  // attributes would conflate reliable and unreliable neighbours.
  std::vector<std::vector<double>> weights(
      dirty.num_attrs(), std::vector<double>(space.size(), 0.1));
  for (auto& w : weights) w[space.MinimalitySlot()] = options_.minimality_prior;
  std::vector<std::pair<TupleId, AttrId>> clean_cells;
  for (TupleId t = 0; t < static_cast<TupleId>(dirty.num_rows()); ++t) {
    for (AttrId a = 0; a < static_cast<AttrId>(dirty.num_attrs()); ++a) {
      if (!noisy[t][static_cast<size_t>(a)]) clean_cells.emplace_back(t, a);
    }
  }
  rng.Shuffle(&clean_cells);
  if (clean_cells.size() > options_.training_cells) {
    clean_cells.resize(options_.training_cells);
  }
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (cancelled()) return Status::Cancelled("holoclean cancelled during learning");
    for (const auto& [t, a] : clean_cells) {
      std::vector<Value> domain =
          CandidateDomain(dirty, noisy, stats, t, a, options_.max_candidates);
      if (domain.size() < 2) continue;
      std::vector<double>& w = weights[static_cast<size_t>(a)];
      // Softmax over candidates; observed value (index of the current
      // value, always slot 0) is the positive label.
      std::vector<std::vector<double>> feats;
      feats.reserve(domain.size());
      std::vector<double> scores(domain.size());
      double max_score = -1e300;
      for (size_t c = 0; c < domain.size(); ++c) {
        feats.push_back(
            Featurize(dirty, rules, noisy, stats, space, t, a, domain[c]));
        scores[c] = Dot(w, feats[c]);
        max_score = std::max(max_score, scores[c]);
      }
      double z = 0.0;
      for (double& s : scores) {
        s = std::exp(s - max_score);
        z += s;
      }
      for (size_t c = 0; c < domain.size(); ++c) {
        double p = scores[c] / z;
        double grad_coeff = (c == 0 ? 1.0 : 0.0) - p;
        for (size_t i = 0; i < w.size(); ++i) {
          if (i == space.MinimalitySlot()) continue;  // frozen prior
          w[i] += options_.learning_rate *
                  (grad_coeff * feats[c][i] - options_.l2 * w[i]);
        }
      }
    }
  }
  result.learn_seconds = learn.ElapsedSeconds();

  // ---- Infer: repair each noisy cell with its argmax candidate.
  Timer infer;
  for (TupleId t = 0; t < static_cast<TupleId>(dirty.num_rows()); ++t) {
    if (cancelled()) return Status::Cancelled("holoclean cancelled during inference");
    for (AttrId a = 0; a < static_cast<AttrId>(dirty.num_attrs()); ++a) {
      if (!noisy[t][static_cast<size_t>(a)]) continue;
      ++result.noisy_cells;
      std::vector<Value> domain =
          CandidateDomain(dirty, noisy, stats, t, a, options_.max_candidates);
      const std::vector<double>& w = weights[static_cast<size_t>(a)];
      double best_score = -1e300;
      const Value* best = nullptr;
      for (const Value& v : domain) {
        std::vector<double> f =
            Featurize(dirty, rules, noisy, stats, space, t, a, v);
        double s = Dot(w, f);
        if (s > best_score) {
          best_score = s;
          best = &v;
        }
      }
      if (best != nullptr && *best != dirty.at(t, a)) {
        result.cleaned.set(t, a, *best);
        ++result.repaired_cells;
      }
    }
  }
  result.infer_seconds = infer.ElapsedSeconds();
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mlnclean
