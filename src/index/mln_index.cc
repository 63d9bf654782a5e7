#include "index/mln_index.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "mln/ground_rule.h"
#include "mln/weight_learner.h"

namespace mlnclean {

namespace {

// Grounding reads data.column(a) for every rule attribute a: a dataset
// over another schema would be read out of bounds.
Status CheckSameSchema(const Dataset& data, const RuleSet& rules) {
  if (data.schema() == rules.schema()) return Status::OK();
  return Status::Invalid("dataset schema does not match the rule set's schema");
}

// A block's groups by the hash of their key (each group's first γ's
// reason ids).
using GroupsByReason = std::unordered_map<uint64_t, std::vector<size_t>>;

// The group of `g`'s reason binding in `block`; a miss appends a new group
// at the end of the block, where a cold build first sees that binding.
// The caller adds `g` to the group before the next lookup.
size_t GroupOf(const Piece& g, Block* block, GroupsByReason* by_reason) {
  std::vector<size_t>& bucket = (*by_reason)[HashValueIds(g.reason_ids)];
  for (size_t gi : bucket) {
    if (block->groups[gi].pieces.front().reason_ids == g.reason_ids) return gi;
  }
  bucket.push_back(block->groups.size());
  block->groups.emplace_back();
  return block->groups.size() - 1;
}

}  // namespace

size_t Group::TupleCount() const {
  size_t n = 0;
  for (const auto& p : pieces) n += p.support();
  return n;
}

const Piece& Group::Star() const {
  const Piece* best = &pieces.front();
  for (const auto& p : pieces) {
    if (p.support() > best->support()) best = &p;
  }
  return *best;
}

Piece& Group::Star() {
  return const_cast<Piece&>(static_cast<const Group*>(this)->Star());
}

size_t Block::TupleCount() const {
  size_t n = 0;
  for (const auto& g : groups) n += g.TupleCount();
  return n;
}

size_t Block::PieceCount() const {
  size_t n = 0;
  for (const auto& g : groups) n += g.pieces.size();
  return n;
}

Result<MlnIndex> MlnIndex::Build(const Dataset& data, const RuleSet& rules,
                                 const ExecContext& ctx) {
  MLN_RETURN_NOT_OK(CheckSameSchema(data, rules));
  MlnIndex index;
  index.blocks_.resize(rules.size());
  // Each rule grounds and groups independently into its own slot; errors
  // are surfaced in rule order so the result is thread-count-agnostic.
  std::vector<Status> statuses(rules.size());
  ParallelFor(rules.size(), ctx, [&](size_t ri) {
    if (ctx.Stopped()) return;
    const Constraint& rule = rules.rule(ri);
    // Grounding yields the distinct γs with their supporting tuples.
    Result<std::vector<Piece>> grounds = GroundConstraint(data, rule);
    if (!grounds.ok()) {
      statuses[ri] = grounds.status();
      return;
    }
    Block& block = index.blocks_[ri];
    block.rule_index = ri;
    // Groups dedup on reason ids.
    GroupsByReason by_reason;
    for (Piece& g : grounds.ValueUnsafe()) {
      const size_t group_idx = GroupOf(g, &block, &by_reason);
      block.groups[group_idx].pieces.push_back(std::move(g));
    }
    ctx.Tick(1);
  });
  if (ctx.Stopped()) return ctx.StopStatus("index build");
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return index;
}

Status MlnIndex::AppendRows(const Dataset& data, const RuleSet& rules,
                            size_t first_row, const ExecContext& ctx) {
  if (blocks_.size() != rules.size()) {
    return Status::Invalid("index has " + std::to_string(blocks_.size()) +
                           " blocks for a " + std::to_string(rules.size()) +
                           "-rule set");
  }
  MLN_RETURN_NOT_OK(CheckSameSchema(data, rules));
  if (first_row > data.num_rows()) {
    return Status::Invalid("append start " + std::to_string(first_row) +
                           " is past the dataset's " +
                           std::to_string(data.num_rows()) + " rows");
  }
  // Rules merge independently into their own blocks, like Build; only the
  // new rows are ground.
  std::vector<Status> statuses(rules.size());
  ParallelFor(rules.size(), ctx, [&](size_t ri) {
    if (ctx.Stopped()) return;
    const Constraint& rule = rules.rule(ri);
    Result<std::vector<Piece>> grounds = GroundConstraintRange(
        data, rule, static_cast<TupleId>(first_row),
        static_cast<TupleId>(data.num_rows()));
    if (!grounds.ok()) {
      statuses[ri] = grounds.status();
      return;
    }
    Block& block = blocks_[ri];
    // The lookup is built per call over the block as it is now, the way
    // Build groups: ids keep their meaning across appends (dictionaries
    // only grow).
    GroupsByReason by_reason;
    for (size_t gi = 0; gi < block.groups.size(); ++gi) {
      by_reason[HashValueIds(block.groups[gi].pieces.front().reason_ids)].push_back(gi);
    }
    for (Piece& g : grounds.ValueUnsafe()) {
      // Touch rule: locate the γ's group by reason binding; a miss is a
      // brand-new one, appended where a cold build would have first seen
      // it (the end of the block).
      Group& group = block.groups[GroupOf(g, &block, &by_reason)];
      Piece* match = nullptr;
      for (Piece& piece : group.pieces) {
        if (piece.reason_ids == g.reason_ids &&
            piece.result_ids == g.result_ids) {
          match = &piece;
          break;
        }
      }
      if (match != nullptr) {
        // Existing γ gained members: the new tids all exceed the old ones,
        // so appending keeps the ascending order a cold build produces.
        match->tuples.insert(match->tuples.end(), g.tuples.begin(),
                             g.tuples.end());
      } else {
        group.pieces.push_back(std::move(g));
      }
    }
    ctx.Tick(1);
  });
  if (ctx.Stopped()) return ctx.StopStatus("index append");
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status MlnIndex::Validate(const Dataset& data, const RuleSet& rules) const {
  if (blocks_.size() != rules.size()) {
    return Status::Invalid("index has " + std::to_string(blocks_.size()) +
                           " blocks for a " + std::to_string(rules.size()) +
                           "-rule set");
  }
  const auto num_rows = static_cast<TupleId>(data.num_rows());
  for (size_t ri = 0; ri < blocks_.size(); ++ri) {
    const Block& block = blocks_[ri];
    const std::string where = "block " + std::to_string(ri);
    if (block.rule_index != ri) {
      return Status::Invalid(where + " claims rule index " +
                             std::to_string(block.rule_index));
    }
    const Constraint& rule = rules.rule(ri);
    const auto& reason_attrs = rule.reason_attrs();
    const auto& result_attrs = rule.result_attrs();
    for (const Group& group : block.groups) {
      if (group.pieces.empty()) {
        return Status::Invalid(where + " has an empty group");
      }
      for (const Piece& piece : group.pieces) {
        if (piece.reason_ids.size() != reason_attrs.size() ||
            piece.result_ids.size() != result_attrs.size()) {
          return Status::Invalid(where + " has a γ whose arity does not match "
                                         "its rule");
        }
        if (piece.reason_ids != group.pieces.front().reason_ids) {
          return Status::Invalid(where +
                                 " has a group whose γs differ in their reason "
                                 "values (not a pre-AGP index)");
        }
        auto check_ids = [&](const std::vector<AttrId>& attrs,
                             const std::vector<ValueId>& ids) -> Status {
          for (size_t p = 0; p < attrs.size(); ++p) {
            if (ids[p] >= data.dict(attrs[p]).size()) {
              return Status::Invalid(
                  where + " has a γ id outside the dataset's dictionaries "
                          "(wrong dataset for this index?)");
            }
          }
          return Status::OK();
        };
        MLN_RETURN_NOT_OK(check_ids(reason_attrs, piece.reason_ids));
        MLN_RETURN_NOT_OK(check_ids(result_attrs, piece.result_ids));
        if (piece.tuples.empty()) {
          return Status::Invalid(where + " has a γ with no supporting tuples");
        }
        // Each supporting tuple's cells hold the γ's ids.
        auto check_cells = [&](const std::vector<AttrId>& attrs,
                               const std::vector<ValueId>& ids, TupleId tid) {
          for (size_t p = 0; p < attrs.size(); ++p) {
            if (data.column(attrs[p])[static_cast<size_t>(tid)] != ids[p]) return false;
          }
          return true;
        };
        TupleId prev = -1;
        for (TupleId tid : piece.tuples) {
          if (tid <= prev || tid >= num_rows) {
            return Status::Invalid(
                where + " has a γ with out-of-bounds or unsorted tuple ids "
                        "(index covers more rows than the dataset?)");
          }
          if (!check_cells(reason_attrs, piece.reason_ids, tid) ||
              !check_cells(result_attrs, piece.result_ids, tid)) {
            return Status::Invalid(where + " has a γ whose ids disagree with tuple " +
                                   std::to_string(tid) +
                                   "'s cells (wrong dataset for this index?)");
          }
          prev = tid;
        }
      }
    }
  }
  return Status::OK();
}

MlnIndex MlnIndex::FromBlocks(std::vector<Block> blocks) {
  MlnIndex index;
  index.blocks_ = std::move(blocks);
  return index;
}

Result<size_t> MlnIndex::FindGroup(size_t block_index,
                                   const std::vector<ValueId>& reason_ids) const {
  const std::vector<Group>& groups = blocks_[block_index].groups;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (groups[gi].pieces.front().reason_ids == reason_ids) return gi;
  }
  return Status::NotFound("no group for the given reason key");
}

size_t MlnIndex::LearnBlockWeights(Block* block) {
  // Flatten the block's γs into the learner's count/group representation.
  std::vector<double> counts;
  std::vector<std::vector<size_t>> groups;
  std::vector<Piece*> pieces;
  for (auto& group : block->groups) {
    std::vector<size_t> member_ids;
    member_ids.reserve(group.pieces.size());
    for (auto& piece : group.pieces) {
      member_ids.push_back(counts.size());
      counts.push_back(static_cast<double>(piece.support()));
      pieces.push_back(&piece);
    }
    groups.push_back(std::move(member_ids));
  }
  // Probability-scale weights: comparable across groups and blocks, which
  // FSCR's f-score products and the distributed Eq. 6 averaging require.
  size_t capped = 0;
  std::vector<double> weights = LearnGroupProbabilities(counts, groups, &capped);
  for (size_t i = 0; i < pieces.size(); ++i) pieces[i]->weight = weights[i];
  return capped;
}

size_t MlnIndex::LearnWeights(const ExecContext& ctx) {
  // Blocks are independent weight-learning problems; each task writes only
  // its own block's γ weights.
  std::atomic<size_t> capped{0};
  ParallelFor(blocks_.size(), ctx, [&](size_t bi) {
    if (ctx.Stopped()) return;
    capped += LearnBlockWeights(&blocks_[bi]);
    ctx.Tick(1);
  });
  return capped;
}

void MlnIndex::AssignPriorWeights() {
  for (auto& block : blocks_) {
    std::vector<double> counts;
    std::vector<Piece*> pieces;
    for (auto& group : block.groups) {
      for (auto& piece : group.pieces) {
        counts.push_back(static_cast<double>(piece.support()));
        pieces.push_back(&piece);
      }
    }
    std::vector<double> prior = PriorWeights(counts);
    for (size_t i = 0; i < pieces.size(); ++i) pieces[i]->weight = prior[i];
  }
}

}  // namespace mlnclean
