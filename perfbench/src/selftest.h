#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// The benchmark's own checks: the timing wrapper leaves decisions
/// bit-identical, the ladder verdict and slo_share arithmetic are right,
/// numbers print exactly. Returns the number of failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
