#include "discovery/discovery.h"

#include <algorithm>
#include <map>
#include <thread>
#include <utility>

#include "cleaning/engine.h"
#include "common/status.h"
#include "discovery/fd_miner.h"

namespace mlnclean {

size_t DiscoveryOptions::ResolvedNumThreads() const {
  if (num_threads != 0) return num_threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

Executor* DiscoveryOptions::ResolvedExecutor() const {
  if (executor != nullptr) return executor;
  return ResolvedNumThreads() <= 1 ? SequentialExecutor() : ProcessExecutor();
}

Status DiscoveryOptions::Validate() const {
  if (max_lhs < 1 || max_lhs > 8) {
    return Status::Invalid("max_lhs must be in [1, 8]");
  }
  if (min_support < 0.0 || min_support > 1.0) {
    return Status::Invalid("min_support must be in [0, 1]");
  }
  if (min_confidence < 0.0 || min_confidence > 1.0) {
    return Status::Invalid("min_confidence must be in [0, 1]");
  }
  if (min_cfd_support < 2) {
    return Status::Invalid("min_cfd_support must be >= 2 (a one-row pattern is noise)");
  }
  if (min_cfd_confidence < 0.0 || min_cfd_confidence > 1.0) {
    return Status::Invalid("min_cfd_confidence must be in [0, 1]");
  }
  if (max_rules < 1) {
    return Status::Invalid("max_rules must be >= 1");
  }
  if (score_with_mln) {
    if (mln_sample_rows < 2) {
      return Status::Invalid("mln_sample_rows must be >= 2");
    }
    if (min_mln_score < 0.0 || min_mln_score > 1.0) {
      return Status::Invalid("min_mln_score must be in [0, 1]");
    }
  }
  return Status::OK();
}

namespace {

// Builds the Constraint for one lattice candidate. FDs carry their attrs
// directly; CFDs resolve their pattern ids back to value strings.
Result<Constraint> MakeCandidate(const Dataset& data, const MinedFd& fd) {
  return Constraint::MakeFd(data.schema(), fd.lhs, {fd.rhs});
}

Result<Constraint> MakeCandidate(const Dataset& data, const MinedCfd& cfd) {
  std::vector<CfdPattern> lhs;
  lhs.reserve(cfd.lhs.size());
  for (size_t i = 0; i < cfd.lhs.size(); ++i) {
    lhs.push_back(CfdPattern{cfd.lhs[i], data.dict(cfd.lhs[i]).value(cfd.lhs_ids[i])});
  }
  std::vector<CfdPattern> rhs{CfdPattern{cfd.rhs, data.dict(cfd.rhs).value(cfd.rhs_id)}};
  return Constraint::MakeCfd(data.schema(), std::move(lhs), std::move(rhs));
}

// Scores every candidate through a trial-warmed model: index + AGP +
// weight learning on `sample`, then per rule the support-weighted star
// purity of its conflicted (multi-γ) groups. A rule with no conflicted
// groups on the sample is uncontested and scores 1.0.
Status ScoreWithMln(const Dataset& sample, const RuleSet& candidates,
                    const DiscoveryOptions& options, std::vector<double>* scores) {
  CleaningOptions copts;
  copts.num_threads = options.num_threads;
  copts.executor = options.executor;
  CleaningEngine engine(copts);
  MLN_ASSIGN_OR_RETURN(CleanModel model, engine.Compile(sample.schema(), candidates));
  SessionOptions sopts;
  sopts.cancel = options.cancel;
  sopts.collect_report = false;
  CleanSession session = model.NewSession(sample, std::move(sopts));
  MLN_RETURN_NOT_OK(session.RunUntil(Stage::kLearn));
  for (const Block& block : session.index().blocks()) {
    double purity_mass = 0.0;
    double tuple_mass = 0.0;
    for (const Group& group : block.groups) {
      if (group.pieces.size() < 2) continue;
      double wmax = 0.0;
      double wsum = 0.0;
      for (const Piece& piece : group.pieces) {
        wmax = std::max(wmax, piece.weight);
        wsum += piece.weight;
      }
      if (wsum <= 0.0) continue;
      const double count = static_cast<double>(group.TupleCount());
      purity_mass += (wmax / wsum) * count;
      tuple_mass += count;
    }
    (*scores)[block.rule_index] = tuple_mass > 0.0 ? purity_mass / tuple_mass : 1.0;
  }
  return Status::OK();
}

}  // namespace

Result<DiscoveryResult> DiscoverRules(const Dataset& data,
                                      const DiscoveryOptions& options) {
  MLN_RETURN_NOT_OK(options.Validate());
  DiscoveryResult result(data.schema());

  ExecContext ctx;
  ctx.executor = options.ResolvedExecutor();
  ctx.max_workers = options.ResolvedNumThreads();
  ctx.cancel = options.cancel.flag();

  MLN_ASSIGN_OR_RETURN(FdMinerOutput lattice, MineFds(data, options, ctx));

  // Candidate constraints in lattice order, with their measures.
  const double n = static_cast<double>(data.num_rows());
  std::vector<Constraint> candidates;
  for (const MinedFd& fd : lattice.fds) {
    MLN_ASSIGN_OR_RETURN(Constraint c, MakeCandidate(data, fd));
    MinedRuleInfo info;
    info.text = c.CanonicalText(data.schema());
    info.kind = RuleKind::kFd;
    info.support = fd.support;
    info.confidence = fd.confidence;
    candidates.push_back(std::move(c));
    result.mined.push_back(std::move(info));
  }
  for (const MinedCfd& cfd : lattice.cfds) {
    MLN_ASSIGN_OR_RETURN(Constraint c, MakeCandidate(data, cfd));
    MinedRuleInfo info;
    info.text = c.CanonicalText(data.schema());
    info.kind = RuleKind::kCfd;
    info.support = n > 0.0 ? static_cast<double>(cfd.rows) / n : 0.0;
    info.confidence =
        cfd.rows > 0 ? static_cast<double>(cfd.agree) / static_cast<double>(cfd.rows)
                     : 0.0;
    candidates.push_back(std::move(c));
    result.mined.push_back(std::move(info));
  }

  // Trial warm: compile all candidates at once and let the learned index
  // say which rules concentrate weight.
  std::vector<double> scores(candidates.size(), 1.0);
  if (options.score_with_mln && !candidates.empty()) {
    const Dataset sample =
        data.Slice(0, std::min(data.num_rows(), options.mln_sample_rows));
    RuleSet trial(data.schema());
    for (const Constraint& c : candidates) trial.Add(c);
    MLN_RETURN_NOT_OK(ScoreWithMln(sample, trial, options, &scores));
    result.sample_rows = sample.num_rows();
  }

  std::vector<bool> keep(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    keep[i] = scores[i] >= options.min_mln_score || !options.score_with_mln;
  }

  // Determinant selection: per result attribute, only the best FD by
  // (confidence, support, lattice order) stays. Each further determinant
  // adds a block whose extra γ versions dilute FSCR's fusion; on the
  // 40-hospital workload keeping every FD cleans to F1 0.72, one per
  // attribute to 0.86 (docs/discovery.md).
  std::map<AttrId, std::vector<size_t>> fds_of;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i] && result.mined[i].kind == RuleKind::kFd) {
      fds_of[candidates[i].result_attrs()[0]].push_back(i);
    }
  }
  for (auto& [rhs, idx] : fds_of) {
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (result.mined[a].confidence != result.mined[b].confidence) {
        return result.mined[a].confidence > result.mined[b].confidence;
      }
      if (result.mined[a].support != result.mined[b].support) {
        return result.mined[a].support > result.mined[b].support;
      }
      return a < b;
    });
    for (size_t r = 1; r < idx.size(); ++r) keep[idx[r]] = false;
  }

  // CFDs only where no FD survived: a constant CFD is the local fallback
  // where no global determinant exists, and redundant beside a kept FD on
  // the same attribute.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (keep[i] && result.mined[i].kind == RuleKind::kCfd &&
        fds_of.count(candidates[i].result_attrs()[0]) > 0) {
      keep[i] = false;
    }
  }

  // max_rules cap: lowest support goes first, later lattice order first
  // among equals.
  size_t kept_count = 0;
  for (bool k : keep) kept_count += k ? 1 : 0;
  if (kept_count > options.max_rules) {
    std::vector<size_t> kept_idx;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) kept_idx.push_back(i);
    }
    std::stable_sort(kept_idx.begin(), kept_idx.end(), [&](size_t a, size_t b) {
      if (result.mined[a].support != result.mined[b].support) {
        return result.mined[a].support > result.mined[b].support;
      }
      return a < b;
    });
    for (size_t r = options.max_rules; r < kept_idx.size(); ++r) {
      keep[kept_idx[r]] = false;
    }
  }

  for (size_t i = 0; i < candidates.size(); ++i) {
    result.mined[i].mln_score = scores[i];
    result.mined[i].kept = keep[i];
    if (keep[i]) result.rules.Add(std::move(candidates[i]));
  }
  return result;
}

}  // namespace mlnclean
