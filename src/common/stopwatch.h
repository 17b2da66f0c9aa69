// Wall-clock stopwatch used by the measured replay mode and the overhead
// accounting in Table VI.
#ifndef VDTUNER_COMMON_STOPWATCH_H_
#define VDTUNER_COMMON_STOPWATCH_H_

#include <chrono>

namespace vdt {

/// Monotonic stopwatch. Starts on construction; Elapsed* report time since
/// the last Restart (or construction).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace vdt

#endif  // VDTUNER_COMMON_STOPWATCH_H_
