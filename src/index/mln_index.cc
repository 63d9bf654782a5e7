#include "index/mln_index.h"

#include <algorithm>
#include <atomic>

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

// Open addressing from a group's key (its first γ's reason ids, the first
// `n_reason` ids) to its index in `block`, sized for `capacity` groups so
// it never rehashes. Slots hold (hash, group index + 1).
class GroupTable {
 public:
  GroupTable(const Block& block, size_t n_reason, size_t capacity)
      : block_(block), n_reason_(n_reason) {
    size_t cap = 16;
    while (cap < 2 * capacity) cap <<= 1;
    hashes_.resize(cap);
    slots_.assign(cap, 0);
  }

  // The group whose key is `g`'s reason part; on a miss `g`'s binding is
  // entered as group `new_index`, which is returned. A key held by two
  // groups stays with the first one entered.
  size_t FindOrAdd(const Piece& g, size_t new_index) {
    const uint64_t h = HashValueIds(g.ids.data(), n_reason_);
    const size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      if (hashes_[i] != h) continue;
      const std::vector<ValueId>& key = block_.groups[slots_[i] - 1].pieces.front().ids;
      if (std::equal(key.begin(), key.begin() + n_reason_, g.ids.begin())) {
        return slots_[i] - 1;
      }
    }
    hashes_[i] = h;
    slots_[i] = static_cast<uint32_t>(new_index) + 1;
    return new_index;
  }

 private:
  const Block& block_;
  const size_t n_reason_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;
};

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
  MlnIndex index;
  index.blocks_.resize(rules.size());
  for (size_t ri = 0; ri < rules.size(); ++ri) index.blocks_[ri].rule_index = ri;
  const Status status = index.AppendRows(data, rules, 0, ctx);
  if (ctx.Stopped()) return ctx.StopStatus("index build");
  MLN_RETURN_NOT_OK(status);
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
  // Each rule grounds only the new rows and merges them into its own
  // block; errors are surfaced in rule order so the result is
  // thread-count-agnostic.
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
    // The lookup is built per call over the block as it is now: ids keep
    // their meaning across appends (dictionaries only grow).
    const size_t old_groups = block.groups.size();
    GroupTable table(block, rule.reason_attrs().size(),
                     old_groups + grounds.ValueUnsafe().size());
    for (size_t gi = 0; gi < old_groups; ++gi) {
      table.FindOrAdd(block.groups[gi].pieces.front(), gi);
    }
    for (Piece& g : grounds.ValueUnsafe()) {
      // Touch rule: locate the γ's group by reason binding; a miss is a
      // brand-new one, appended where a cold build would have first seen
      // it (the end of the block). g joins it before the next lookup.
      const size_t gi = table.FindOrAdd(g, block.groups.size());
      if (gi == block.groups.size()) block.groups.emplace_back();
      Group& group = block.groups[gi];
      // The γs of one grounding are distinct, so only a group that
      // predates this call can hold g's binding already.
      Piece* match = nullptr;
      if (gi < old_groups) {
        for (Piece& piece : group.pieces) {
          if (piece.ids == g.ids) {
            match = &piece;
            break;
          }
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
    const std::vector<AttrId>& attrs = rule.attrs();
    const size_t n_reason = rule.reason_attrs().size();
    for (const Group& group : block.groups) {
      if (group.pieces.empty()) {
        return Status::Invalid(where + " has an empty group");
      }
      const std::vector<ValueId>& key = group.pieces.front().ids;
      for (const Piece& piece : group.pieces) {
        if (piece.ids.size() != attrs.size()) {
          return Status::Invalid(where + " has a γ whose arity does not match "
                                         "its rule");
        }
        if (!std::equal(key.begin(), key.begin() + n_reason, piece.ids.begin())) {
          return Status::Invalid(where +
                                 " has a group whose γs differ in their reason "
                                 "values (not a pre-AGP index)");
        }
        for (size_t p = 0; p < attrs.size(); ++p) {
          if (piece.ids[p] >= data.dict(attrs[p]).size()) {
            return Status::Invalid(
                where + " has a γ id outside the dataset's dictionaries "
                        "(wrong dataset for this index?)");
          }
        }
        if (piece.tuples.empty()) {
          return Status::Invalid(where + " has a γ with no supporting tuples");
        }
        TupleId prev = -1;
        for (TupleId tid : piece.tuples) {
          if (tid <= prev || tid >= num_rows) {
            return Status::Invalid(
                where + " has a γ with out-of-bounds or unsorted tuple ids "
                        "(index covers more rows than the dataset?)");
          }
          // Each supporting tuple's cells hold the γ's ids.
          for (size_t p = 0; p < attrs.size(); ++p) {
            if (data.column(attrs[p])[static_cast<size_t>(tid)] != piece.ids[p]) {
              return Status::Invalid(where + " has a γ whose ids disagree with tuple " +
                                     std::to_string(tid) +
                                     "'s cells (wrong dataset for this index?)");
            }
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
                                   const std::vector<ValueId>& key) const {
  const std::vector<Group>& groups = blocks_[block_index].groups;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const std::vector<ValueId>& ids = groups[gi].pieces.front().ids;
    if (ids.size() >= key.size() && std::equal(key.begin(), key.end(), ids.begin())) {
      return gi;
    }
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
