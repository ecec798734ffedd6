#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"

/// \file
/// The benchmark's own arithmetic: medians, the rate-ladder verdict and the
/// SLO share. Pure functions, pinned by the self-tests (selftest.cc).

namespace perfbench {

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// One rung of an open-loop rate ladder, as the generator measured it.
struct RungResult {
  double offered_qps = 0.0;
  /// Requests presented per wall second of generator time (the rate the
  /// generator actually achieved).
  double submit_qps = 0.0;
  std::uint64_t shed = 0;
  /// Drain() wall time after the generator's last submit.
  double drain_seconds = 0.0;
  /// p99 of how late the generator presented requests against schedule.
  double gen_late_p99_seconds = 0.0;
};

/// Rung acceptance limits.
constexpr double kMaxDrainSeconds = 0.010;
/// A generator later than this at p99 was not offering the named load: its
/// rung (or run) is invalid.
constexpr double kMaxGeneratorLateSeconds = 1e-3;

/// Zero shed, backlog cleared within kMaxDrainSeconds, generator on time.
bool RungPasses(const RungResult& rung);
/// Index of the highest passing rung before the first failing one (rungs
/// are in ascending rate order); -1 when the first rung fails.
int LadderVerdict(const std::vector<RungResult>& rungs);

/// Samples in `histogram` within `limit_seconds`: whole buckets whose upper
/// bound is <= the limit (the limit should sit on a bucket boundary, as
/// 1 ms does).
std::uint64_t CountWithin(const sqlb::obs::Histogram& histogram,
                          double limit_seconds);
/// Share of `offered` requests whose latency in `histogram` is within
/// `limit_seconds` (CountWithin); requests offered but never recorded
/// (shed) count as misses. 0 when nothing was offered.
double SloShare(const sqlb::obs::Histogram& histogram, double limit_seconds,
                std::uint64_t offered);

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
