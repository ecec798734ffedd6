#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "report.h"
#include "spans.h"
#include "sqlb/service.h"

/// \file
/// The benchmark workloads. Each drives the system only through the public
/// sqlb::Service API, measures for the requested wall time, checks the
/// outputs, and records its metrics into a Report.

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics through timing wrappers and spans.
  bool traced = false;
};

/// True for the names RunWorkload accepts.
bool IsWorkload(const std::string& name);
/// One line per workload: its name and parameters, for provenance.
std::string WorkloadParameters(const std::string& name);
/// Runs `options.workload`. `spans` is non-null exactly for traced runs.
void RunWorkload(const RunOptions& options, Report* report,
                 SpanRecorder* spans);

/// The plain method factory the untraced runs use (SQLB per shard).
sqlb::Service::MethodFactory PlainFactory();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
