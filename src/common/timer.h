#ifndef LIGHT_COMMON_TIMER_H_
#define LIGHT_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace light {

/// Steady-clock nanoseconds: the one lifecycle clock behind session admit
/// times, deadlines, and the worker pool's queue-wait/execute records.
inline uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock stopwatch used by the benchmark harness and the engines' time
/// budgets (OOT simulation).
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Formats a duration for benchmark tables: "1.23 ms", "4.56 s", "INF" style
/// handled by callers.
std::string FormatSeconds(double seconds);

}  // namespace light

#endif  // LIGHT_COMMON_TIMER_H_
