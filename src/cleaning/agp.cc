#include "cleaning/agp.h"

#include <iterator>
#include <limits>

namespace mlnclean {

size_t RunAgp(Block* block, const CleaningOptions& options, const DistanceFn& dist,
              CleaningReport* report) {
  const size_t tau = options.agp_threshold;
  std::vector<size_t> normal_idx, abnormal_idx;
  for (size_t gi = 0; gi < block->groups.size(); ++gi) {
    if (block->groups[gi].TupleCount() <= tau) {
      abnormal_idx.push_back(gi);
    } else {
      normal_idx.push_back(gi);
    }
  }
  if (abnormal_idx.empty()) return 0;

  // Each normal γ* pointer is resolved once; a group's entry is refreshed
  // only after a merge lands in it (merged-in pieces can change its γ*).
  std::vector<const Piece*> normal_star(normal_idx.size(), nullptr);

  size_t merged_count = 0;
  std::vector<bool> remove(block->groups.size(), false);
  for (size_t ai : abnormal_idx) {
    Group& abnormal = block->groups[ai];
    AgpMergeRecord rec;
    rec.block = block->rule_index;
    rec.abnormal_key = abnormal.key;
    rec.num_pieces = abnormal.pieces.size();
    for (const auto& piece : abnormal.pieces) {
      rec.abnormal_tuples.insert(rec.abnormal_tuples.end(), piece.tuples.begin(),
                                 piece.tuples.end());
    }
    if (normal_idx.empty()) {
      // No normal group to merge into: leave the group in place.
      rec.merged = false;
      if (report) report->agp.push_back(std::move(rec));
      continue;
    }
    // Nearest normal group by γ*-to-γ* distance.
    const Piece& a_star = abnormal.Star();
    double best = std::numeric_limits<double>::infinity();
    size_t best_pos = 0;
    size_t best_gi = normal_idx.front();
    for (size_t pos = 0; pos < normal_idx.size(); ++pos) {
      const size_t ni = normal_idx[pos];
      if (normal_star[pos] == nullptr) {
        normal_star[pos] = &block->groups[ni].Star();
      }
      // Bounded by the running best: only the strict minimum matters, so
      // candidates may be abandoned mid-sum without changing the winner.
      double d = PieceDistanceBounded(a_star, *normal_star[pos], dist, best);
      if (d < best) {
        best = d;
        best_pos = pos;
        best_gi = ni;
      }
    }
    // The merge below can change the target's γ* and reallocate its pieces.
    normal_star[best_pos] = nullptr;
    Group& target = block->groups[best_gi];
    rec.target_key = target.key;
    rec.merged = true;
    for (auto& piece : abnormal.pieces) {
      target.pieces.push_back(std::move(piece));
    }
    abnormal.pieces.clear();
    remove[ai] = true;
    ++merged_count;
    if (report) report->agp.push_back(std::move(rec));
  }

  if (merged_count > 0) {
    std::vector<Group> kept;
    kept.reserve(block->groups.size() - merged_count);
    for (size_t gi = 0; gi < block->groups.size(); ++gi) {
      if (!remove[gi]) kept.push_back(std::move(block->groups[gi]));
    }
    block->groups = std::move(kept);
  }
  return merged_count;
}

void RunAgpAll(MlnIndex* index, const CleaningOptions& options, const DistanceFn& dist,
               CleaningReport* report, const ExecContext& ctx) {
  const size_t num_blocks = index->num_blocks();
  if (ctx.parallelism() <= 1 || num_blocks <= 1) {
    for (size_t bi = 0; bi < num_blocks; ++bi) {
      if (ctx.Stopped()) return;
      size_t merged = RunAgp(&index->block(bi), options, dist, report);
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
    size_t merged = RunAgp(&index->block(bi), options, dist,
                           report ? &local[bi] : nullptr);
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
