// Internal: the shared state behind CleanModel, split out of engine.cc so
// the snapshot codec (model_io.cc) can reach it without widening the
// public API. Everything outside cleaning/ should go through CleanModel.

#ifndef MLNCLEAN_CLEANING_MODEL_STATE_H_
#define MLNCLEAN_CLEANING_MODEL_STATE_H_

#include <shared_mutex>
#include <utility>

#include "cleaning/engine.h"
#include "index/weight_merge.h"

namespace mlnclean {

/// Shared, session-pinned model state: the compiled rules and options plus
/// the Eq. 6 weight store. Sessions may contribute weights concurrently
/// (the distributed driver runs sessions on a worker pool) while many
/// serving sessions read the store, so it sits behind a reader-writer
/// lock: Accumulate is the only writer, Apply/size are shared readers and
/// do not serialize concurrent weight-reuse sessions. Everything else is
/// immutable after Compile.
struct CleanModel::State {
  State(RuleSet rules_in, CleaningOptions options_in)
      : rules(std::move(rules_in)), options(std::move(options_in)) {}

  const RuleSet rules;
  const CleaningOptions options;
  mutable std::shared_mutex weights_mu;
  GlobalWeightTable weights;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_MODEL_STATE_H_
