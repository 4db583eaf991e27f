#ifndef GROUPFORM_COMMON_STOPWATCH_H_
#define GROUPFORM_COMMON_STOPWATCH_H_

#include <chrono>

namespace groupform::common {

/// Wall-clock stopwatch used by the scalability benchmarks (Figures 4-6).
/// Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch from zero.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_STOPWATCH_H_
