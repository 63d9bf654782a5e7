#include "cleaning/options.h"

#include <algorithm>
#include <thread>

#include "common/status.h"

namespace mlnclean {

size_t CleaningOptions::ResolvedNumThreads() const {
  if (num_threads != 0) return num_threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

Executor* CleaningOptions::ResolvedExecutor() const {
  if (executor != nullptr) return executor;
  return ResolvedNumThreads() <= 1 ? SequentialExecutor() : ProcessExecutor();
}

Status CleaningOptions::Validate() const {
  // Written so that NaN fails too: a NaN discount would score every
  // fusion that changes a cell NaN, and FSCR would silently drop them all.
  if (!(fscr_minimality_discount > 0.0 && fscr_minimality_discount <= 1.0)) {
    return Status::Invalid("fscr_minimality_discount must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace mlnclean
