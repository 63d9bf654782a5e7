// RetryPolicy: capped exponential backoff with deterministic, seeded
// jitter — the client half of the server's backpressure contract. A
// Submit rejected with kUnavailable (queue full; the message carries the
// live queue depth) is worth retrying after a delay; kResourceExhausted
// (a bad_alloc surfaced as a Status) may clear once concurrent sessions
// finish. Everything else — kInvalid, kInternal, kCancelled — will fail
// the same way again and is not retryable.
//
// Jitter is deterministic on purpose: the backoff sequence is a pure
// function of (policy, seed), so a retried run is exactly reproducible —
// the same property every other stochastic component of this library
// (error injection, data generation, partition seeding) already has via
// Rng.

#ifndef MLNCLEAN_COMMON_RETRY_H_
#define MLNCLEAN_COMMON_RETRY_H_

#include <chrono>
#include <cstdint>

#include "common/random.h"
#include "common/status.h"

namespace mlnclean {

/// Backoff configuration of one retry loop.
struct RetryPolicy {
  /// Total attempts, the first one included (1 = no retry).
  size_t max_attempts = 5;
  /// Delay before the first retry.
  std::chrono::milliseconds initial_backoff{10};
  /// Cap applied to the exponential growth (before jitter).
  std::chrono::milliseconds max_backoff{2000};
  /// Per-retry growth factor of the capped base delay.
  double multiplier = 2.0;
  /// Jitter fraction j: each delay is scaled by a uniform draw from
  /// [1 - j, 1 + j). 0 disables jitter.
  double jitter = 0.2;
  /// Seeds the jitter stream; same (policy, seed) -> same delays.
  uint64_t seed = 0;

  Status Validate() const;

  /// True for the Status codes a retry can help with: kUnavailable and
  /// kResourceExhausted.
  static bool IsRetryable(const Status& status);
};

/// The delay sequence of one retry loop. Deterministic: two schedules
/// built from equal policies produce identical delays.
class RetrySchedule {
 public:
  explicit RetrySchedule(const RetryPolicy& policy);

  /// Delay to wait before the next retry; advances the exponential base
  /// and the jitter stream.
  std::chrono::milliseconds NextDelay();

  /// Delays handed out so far.
  size_t retries() const { return retries_; }

 private:
  RetryPolicy policy_;
  Rng rng_;
  size_t retries_ = 0;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_RETRY_H_
