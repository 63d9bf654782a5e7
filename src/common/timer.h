// Wall-clock stopwatch used by the experiment harnesses.

#ifndef MLNCLEAN_COMMON_TIMER_H_
#define MLNCLEAN_COMMON_TIMER_H_

#include <chrono>

namespace mlnclean {

/// Monotonic stopwatch; starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_TIMER_H_
