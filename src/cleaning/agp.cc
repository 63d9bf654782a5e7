#include "cleaning/agp.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string_view>
#include <utility>

namespace mlnclean {

namespace {

// Slot 0 of every position stands for "no value to compare here": a γ*
// narrower than the block's widest, or an abnormal value no normal γ*
// holds. Its term is always 0.
constexpr uint32_t kNoSlot = 0;

// The distinct values one γ* position takes among a block's normal γ*s,
// and the per-abnormal-γ* term of each.
struct PositionSlots {
  std::vector<std::string_view> values;  // slot -> value
  std::vector<ValueId> ids;              // slot -> id (id-keyed blocks)
  std::vector<uint32_t> buckets;         // open addressing, slot per bucket
  // Per abnormal γ*: slot -> exact distance (tabled) or lower bound.
  std::vector<double> terms;
  std::string_view abnormal_value;
  uint32_t abnormal_slot = kNoSlot;
  bool tabled = false;
};

// Per-thread scratch, reused across blocks and cleans: only ever grows.
struct AgpScratch {
  std::vector<PositionSlots> positions;
  std::vector<size_t> active;          // positions the abnormal γ* has
  std::vector<uint32_t> slots;         // candidate-major: [c * P + p]
  std::vector<const Piece*> stars;     // current γ* of each normal group
  std::vector<double> bounds;
  std::vector<size_t> normal_idx, abnormal_idx;
  std::vector<std::pair<size_t, size_t>> merges;  // (abnormal, target) groups
  std::vector<char> remove;
};

// A γ's value (and id) at layout position p: reason values occupy
// [0, reason_width), result values follow.
bool ValueAt(const Piece& piece, size_t p, size_t reason_width, bool use_ids,
             std::string_view* value, ValueId* id) {
  const bool reason = p < reason_width;
  const size_t i = reason ? p : p - reason_width;
  const std::vector<Value>& values = reason ? piece.reason : piece.result;
  if (i >= values.size()) return false;
  *value = values[i];
  *id = use_ids ? (reason ? piece.reason_ids : piece.result_ids)[i] : 0;
  return true;
}

size_t Bucket(const PositionSlots& ps, std::string_view value, ValueId id,
              bool use_ids) {
  const size_t h = use_ids ? static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32)
                           : std::hash<std::string_view>{}(value);
  return h & (ps.buckets.size() - 1);
}

// The slot holding `value`, inserting it when `add`; kNoSlot when absent.
uint32_t FindSlot(PositionSlots* ps, std::string_view value, ValueId id, bool use_ids,
                  bool add) {
  const size_t mask = ps->buckets.size() - 1;
  for (size_t b = Bucket(*ps, value, id, use_ids);; b = (b + 1) & mask) {
    const uint32_t s = ps->buckets[b];
    if (s == kNoSlot) {
      if (!add) return kNoSlot;
      const uint32_t slot = static_cast<uint32_t>(ps->values.size());
      ps->values.push_back(value);
      ps->ids.push_back(id);
      ps->buckets[b] = slot;
      return slot;
    }
    if (use_ids ? ps->ids[s] == id : ps->values[s] == value) return s;
  }
}

// One γ* distance with the kernel on the bounded positions: the fold of
// Accumulate (index/piece.cc) over the same nonzero terms, in its order.
double ExactDistance(const AgpScratch& scratch, const uint32_t* row,
                     DistanceMetric metric) {
  double total = 0.0;
  for (size_t p : scratch.active) {
    const PositionSlots& ps = scratch.positions[p];
    const uint32_t s = row[p];
    if (ps.tabled || s == kNoSlot || s == ps.abnormal_slot) {
      total += ps.terms[s];
    } else {
      total += NormalizedDistance(metric, ps.abnormal_value, ps.values[s]);
    }
  }
  return total;
}

}  // namespace

size_t RunAgp(Block* block, const CleaningOptions& options, CleaningReport* report) {
  thread_local AgpScratch scratch;
  const size_t tau = options.agp_threshold;
  const DistanceMetric metric = options.distance;
  std::vector<Group>& groups = block->groups;
  std::vector<size_t>& normal_idx = scratch.normal_idx;
  std::vector<size_t>& abnormal_idx = scratch.abnormal_idx;
  normal_idx.clear();
  abnormal_idx.clear();
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    (groups[gi].TupleCount() <= tau ? abnormal_idx : normal_idx).push_back(gi);
  }
  if (abnormal_idx.empty()) return 0;
  const size_t n = normal_idx.size();

  // Layout and keying: positions cover the widest γ of the block; slots
  // are keyed by dictionary id when every γ carries its id mirrors.
  size_t reason_width = 0, result_width = 0;
  bool use_ids = true;
  for (const Group& group : groups) {
    for (const Piece& piece : group.pieces) {
      reason_width = std::max(reason_width, piece.reason.size());
      result_width = std::max(result_width, piece.result.size());
      use_ids = use_ids && piece.has_ids();
    }
  }
  const size_t num_pos = reason_width + result_width;
  if (scratch.positions.size() < num_pos) scratch.positions.resize(num_pos);
  // A position gains at most one slot per merge, so the tables never fill
  // past half.
  size_t capacity = 16;
  while (capacity < 2 * (n + abnormal_idx.size() + 1)) capacity *= 2;
  for (size_t p = 0; p < num_pos && n > 0; ++p) {
    PositionSlots& ps = scratch.positions[p];
    ps.values.assign(1, std::string_view());
    ps.ids.assign(1, 0);
    ps.buckets.assign(capacity, kNoSlot);
  }
  scratch.slots.resize(n * num_pos);
  scratch.stars.resize(n);
  scratch.bounds.resize(n);
  auto load_slots = [&](size_t c) {
    uint32_t* row = scratch.slots.data() + c * num_pos;
    std::string_view value;
    ValueId id = 0;
    for (size_t p = 0; p < num_pos; ++p) {
      row[p] = ValueAt(*scratch.stars[c], p, reason_width, use_ids, &value, &id)
                   ? FindSlot(&scratch.positions[p], value, id, use_ids, true)
                   : kNoSlot;
    }
  };
  for (size_t c = 0; c < n; ++c) {
    scratch.stars[c] = &groups[normal_idx[c]].Star();
    load_slots(c);
  }

  // Merged pieces move only after the scan, so every γ* (and every value
  // a slot points at) stays put while the block is being scanned.
  scratch.merges.clear();
  for (size_t ai : abnormal_idx) {
    const Group& abnormal = groups[ai];
    AgpMergeRecord rec;
    rec.block = block->rule_index;
    rec.abnormal_key = abnormal.key;
    rec.num_pieces = abnormal.pieces.size();
    for (const auto& piece : abnormal.pieces) {
      rec.abnormal_tuples.insert(rec.abnormal_tuples.end(), piece.tuples.begin(),
                                 piece.tuples.end());
    }
    if (n == 0) {
      // No normal group to merge into: leave the group in place.
      rec.merged = false;
      if (report) report->agp.push_back(std::move(rec));
      continue;
    }

    // Terms of this γ*: one kernel call per slot where the position has
    // fewer distinct values than there are candidates, a length bound
    // per slot elsewhere; equal values and missing positions cost 0.
    const Piece& a_star = abnormal.Star();
    scratch.active.clear();
    for (size_t p = 0; p < num_pos; ++p) {
      PositionSlots& ps = scratch.positions[p];
      ValueId id = 0;
      if (!ValueAt(a_star, p, reason_width, use_ids, &ps.abnormal_value, &id)) continue;
      scratch.active.push_back(p);
      ps.abnormal_slot = FindSlot(&ps, ps.abnormal_value, id, use_ids, false);
      const size_t k = ps.values.size();
      ps.tabled = k - 1 < n;
      ps.terms.resize(k);
      ps.terms[kNoSlot] = 0.0;
      for (size_t s = 1; s < k; ++s) {
        if (s == ps.abnormal_slot) {
          ps.terms[s] = 0.0;
        } else if (ps.tabled) {
          ps.terms[s] = NormalizedDistance(metric, ps.abnormal_value, ps.values[s]);
        } else {
          ps.terms[s] = NormalizedDistanceLowerBound(metric, ps.abnormal_value.size(),
                                                     ps.values[s].size());
        }
      }
    }

    // Lower bounds, folded in the exact distance's order: rounding is
    // monotone, so each bound is <= the rounded exact distance.
    size_t first = 0;
    for (size_t c = 0; c < n; ++c) {
      const uint32_t* row = scratch.slots.data() + c * num_pos;
      double total = 0.0;
      for (size_t p : scratch.active) total += scratch.positions[p].terms[row[p]];
      scratch.bounds[c] = total;
      if (total < scratch.bounds[first]) first = c;
    }
    // Lexicographic (distance, position) minimum, as the all-pairs scan's
    // strict `<` keeps: a candidate before the best may still win a tie,
    // one after it must beat the best.
    size_t best_pos = first;
    double best = ExactDistance(scratch, scratch.slots.data() + first * num_pos, metric);
    for (size_t c = 0; c < n; ++c) {
      const double bound = scratch.bounds[c];
      if (c == first || (c < best_pos ? bound > best : bound >= best)) continue;
      const double d = ExactDistance(scratch, scratch.slots.data() + c * num_pos, metric);
      if (d < best || (d == best && c < best_pos)) {
        best = d;
        best_pos = c;
      }
    }

    const size_t target_gi = normal_idx[best_pos];
    rec.target_key = groups[target_gi].key;
    rec.merged = true;
    scratch.merges.emplace_back(ai, target_gi);
    // The target's γ* over its pieces followed by the merged-in ones
    // (Group::Star's first-maximum rule); reload its slots if it moved.
    const Piece* star = scratch.stars[best_pos];
    for (const Piece& piece : abnormal.pieces) {
      if (piece.support() > star->support()) star = &piece;
    }
    if (star != scratch.stars[best_pos]) {
      scratch.stars[best_pos] = star;
      load_slots(best_pos);
    }
    if (report) report->agp.push_back(std::move(rec));
  }

  if (scratch.merges.empty()) return 0;
  scratch.remove.assign(groups.size(), 0);
  for (const auto& [ai, target_gi] : scratch.merges) {
    Group& abnormal = groups[ai];
    Group& target = groups[target_gi];
    for (auto& piece : abnormal.pieces) target.pieces.push_back(std::move(piece));
    abnormal.pieces.clear();
    scratch.remove[ai] = 1;
  }
  size_t kept = 0;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (scratch.remove[gi]) continue;
    if (kept != gi) groups[kept] = std::move(groups[gi]);
    ++kept;
  }
  groups.resize(kept);
  return scratch.merges.size();
}

void RunAgpAll(MlnIndex* index, const CleaningOptions& options, CleaningReport* report,
               const ExecContext& ctx) {
  const size_t num_blocks = index->num_blocks();
  if (ctx.parallelism() <= 1 || num_blocks <= 1) {
    for (size_t bi = 0; bi < num_blocks; ++bi) {
      if (ctx.Stopped()) return;
      size_t merged = RunAgp(&index->block(bi), options, report);
      if (merged > 0) index->ReindexBlock(bi);
      ctx.Tick(1);
    }
    return;
  }
  // Blocks are independent; collect per-block records and splice them back
  // in block order so the report is identical to the sequential run.
  std::vector<CleaningReport> local(report ? num_blocks : 0);
  ParallelFor(num_blocks, ctx, [&](size_t bi) {
    if (ctx.Stopped()) return;
    size_t merged = RunAgp(&index->block(bi), options, report ? &local[bi] : nullptr);
    if (merged > 0) index->ReindexBlock(bi);
    ctx.Tick(1);
  });
  if (report) {
    for (auto& block_report : local) {
      std::move(block_report.agp.begin(), block_report.agp.end(),
                std::back_inserter(report->agp));
    }
  }
}

}  // namespace mlnclean
