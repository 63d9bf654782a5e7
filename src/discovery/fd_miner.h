// Level-wise lattice search for approximate FDs and constant-pattern
// CFDs (TANE/CTane family). Level k holds attribute sets of size k; each
// node carries the stripped partition of its set, built by refining a
// level-(k-1) parent partition with one column (discovery/partition.h).
//
// Pruning:
//  * support is anti-monotone under refinement (a child partition covers
//    a subset of its parent's rows), so nodes below min_support are cut
//    from the lattice entirely — this is also what kills keys/near-keys;
//  * minimality: a result attribute A is not re-examined at X when some
//    already-mined Y -> A with Y ⊆ X exists (the superset FD is implied);
//  * apriori: a level-(k+1) candidate is generated only when all of its
//    k-subsets survived.
//
// CFDs are mined where an FD *fails*: when X -> A misses the global
// confidence bar, individual X-groups that are large and internally
// consistent become constant patterns X=c1,..,ck -> A=b (CTane's
// constant-CFD specialization, restricted to all-constant patterns —
// the fragment the cleaning engine's scope filters execute well).
//
// The per-level node work runs under ParallelFor into per-node result
// slots merged in node order, so the mined lists are identical for any
// thread count; cancellation is polled at node and level boundaries.

#ifndef MLNCLEAN_DISCOVERY_FD_MINER_H_
#define MLNCLEAN_DISCOVERY_FD_MINER_H_

#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "discovery/discovery.h"

namespace mlnclean {

/// An approximate FD mined from the lattice. `lhs` is ascending.
struct MinedFd {
  std::vector<AttrId> lhs;
  AttrId rhs = 0;
  double support = 0.0;
  double confidence = 0.0;
};

/// A constant-pattern CFD candidate: the rows of one LHS group, its
/// constants as ValueIds (resolved to strings by the caller), and the
/// majority result value. `lhs` is ascending; `lhs_ids` is parallel to it.
struct MinedCfd {
  std::vector<AttrId> lhs;
  std::vector<ValueId> lhs_ids;
  AttrId rhs = 0;
  ValueId rhs_id = kNullValueId;
  size_t rows = 0;   // size of the pattern group
  size_t agree = 0;  // rows matching the majority result value
};

/// FD/CFD candidates in deterministic lattice order (level, then node in
/// lexicographic attr order, then result attribute ascending, then —
/// for CFDs — pattern-group order).
struct FdMinerOutput {
  std::vector<MinedFd> fds;
  std::vector<MinedCfd> cfds;
};

/// Runs the lattice search over `data`'s ValueId columns. Reads only the
/// lattice knobs of `options` (max_lhs, min_support, min_confidence,
/// min_cfd_*); parallelism and cancellation come from `ctx`.
Result<FdMinerOutput> MineFds(const Dataset& data, const DiscoveryOptions& options,
                              const ExecContext& ctx);

}  // namespace mlnclean

#endif  // MLNCLEAN_DISCOVERY_FD_MINER_H_
