// The benchmark's own arithmetic, kept free of the cluster so selftest.cpp
// can pin every rule: exact percentiles with the ten-beyond rule, registry
// deltas and ratios, the handler-histogram sampling correction and the
// stage-sum residual.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

// A percentile read from exact per-sample values (no histogram bins).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  // Samples strictly above `value`; a tail percentile is only reported as
  // resolved when at least kMinBeyond samples lie beyond it.
  std::size_t beyond = 0;
  bool resolved() const { return beyond >= kMinBeyond; }
};

// Linear interpolation between order statistics (h = (n-1) * p/100), the
// rule numpy and Python's statistics module call "inclusive".
inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double h =
      static_cast<double>(samples.size() - 1) * std::clamp(p, 0.0, 100.0) /
      100.0;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  out.value = samples[lo] + (h - static_cast<double>(lo)) *
                                (samples[hi] - samples[lo]);
  out.beyond = static_cast<std::size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

// part / whole, 0 when whole is 0 (a ratio over no events).
inline double share(double part, double whole) {
  return whole == 0.0 ? 0.0 : part / whole;
}

// Counter and histogram growth between two registry snapshots; a missing
// instrument reads as 0 on either side.
inline std::uint64_t counter_delta(const mendel::obs::MetricsSnapshot& before,
                                   const mendel::obs::MetricsSnapshot& after,
                                   std::string_view name) {
  const std::uint64_t a = after.counter(name);
  const std::uint64_t b = before.counter(name);
  return a >= b ? a - b : 0;
}

inline double histogram_sum_seconds_delta(
    const mendel::obs::MetricsSnapshot& before,
    const mendel::obs::MetricsSnapshot& after, std::string_view name) {
  const auto* a = after.histogram(name);
  const auto* b = before.histogram(name);
  const std::uint64_t sa = a == nullptr ? 0 : a->sum_ns;
  const std::uint64_t sb = b == nullptr ? 0 : b->sum_ns;
  return sa >= sb ? static_cast<double>(sa - sb) * 1e-9 : 0.0;
}

// StorageNode times one dispatch in every kHandlerSampleEvery into
// node.handler_seconds (src/mendel/storage_node.h kHandlerSample); scaling
// the sampled sum back up estimates total handler busy time.
inline constexpr double kHandlerSampleEvery = 16.0;

inline double handler_busy_seconds(double sampled_sum_seconds) {
  return sampled_sum_seconds * kHandlerSampleEvery;
}

// Stage table check: the stage rows of one query must sum to its
// turnaround within kResidualAbsSeconds + kResidualRel * turnaround.
inline constexpr double kResidualAbsSeconds = 10e-6;
inline constexpr double kResidualRel = 0.001;
// A stage shorter than this is a causality violation, not clock jitter.
inline constexpr double kNegativeStageSeconds = -1e-6;

inline double stage_residual(double turnaround,
                             const std::vector<double>& stages) {
  double sum = 0.0;
  for (double s : stages) sum += s;
  return turnaround - sum;
}

inline bool residual_within_bound(double residual, double turnaround) {
  return std::abs(residual) <=
         kResidualAbsSeconds + kResidualRel * std::abs(turnaround);
}

}  // namespace perfbench
