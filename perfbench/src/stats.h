#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

/// \file stats.h
/// Timing and order statistics of the benchmark.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail of a sample: the highest percentile with at least ten
/// samples beyond it. With fewer than 21 samples no percentile above the
/// median qualifies, and the tail is the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  size_t samples = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 21) {
    t.value = v.back();
    return t;
  }
  const size_t idx = n - 11;  // ten samples strictly beyond this one
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

}  // namespace perfbench
