// Wall-clock timing used by the benchmark harnesses and the per-step
// runtime breakdown (Figure 3 of the paper).

#ifndef FAIRCAP_UTIL_TIMER_H_
#define FAIRCAP_UTIL_TIMER_H_

#include <chrono>

namespace faircap {

/// Monotonic stopwatch. Starts on construction; Restart() resets.
class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace faircap

#endif  // FAIRCAP_UTIL_TIMER_H_
