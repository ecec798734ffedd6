#include "stats.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

bool RungPasses(const RungResult& rung) {
  return rung.shed == 0 && rung.drain_seconds <= kMaxDrainSeconds &&
         rung.gen_late_p99_seconds <= kMaxGeneratorLateSeconds;
}

int LadderVerdict(const std::vector<RungResult>& rungs) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!RungPasses(rungs[i])) break;
    best = static_cast<int>(i);
  }
  return best;
}

std::uint64_t CountWithin(const sqlb::obs::Histogram& histogram,
                          double limit_seconds) {
  // Relative slack so a limit on a bucket boundary includes that bucket
  // despite exp/log rounding in the boundary computation.
  const double limit = limit_seconds * (1.0 + 1e-9);
  std::uint64_t within = 0;
  for (std::size_t i = 0; i < sqlb::obs::Histogram::kBuckets; ++i) {
    if (sqlb::obs::Histogram::BucketUpperBound(i) > limit) break;
    within += histogram.buckets()[i];
  }
  return within;
}

double SloShare(const sqlb::obs::Histogram& histogram, double limit_seconds,
                std::uint64_t offered) {
  if (offered == 0) return 0.0;
  return static_cast<double>(CountWithin(histogram, limit_seconds)) /
         static_cast<double>(offered);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
