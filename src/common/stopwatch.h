#ifndef SHADOOP_COMMON_STOPWATCH_H_
#define SHADOOP_COMMON_STOPWATCH_H_

#include <chrono>

namespace shadoop {

/// Monotonic wall-clock stopwatch. Started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace shadoop

#endif  // SHADOOP_COMMON_STOPWATCH_H_
