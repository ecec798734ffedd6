// The repository benchmark binary. Built and launched by perfbench/run.py:
//
//   sqlb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--source <id>] [--spans <path>]
//   sqlb_perfbench --self-test
//
// Prints a human-readable report (provenance, checks, every metric with its
// unit) and, as its last line, the one-line JSON result. Exits 1 when any
// correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "report.h"
#include "selftest.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "sqlb_perfbench: %s\nusage: sqlb_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--source <id>] "
               "[--spans <path>] | --self-test\n",
               problem);
  return 2;
}

bool FastModeRequested() {
  const char* fast = std::getenv("SQLB_FAST");
  return fast != nullptr && std::string(fast) != "" &&
         std::string(fast) != "0" && std::string(fast) != "false";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string source = "unknown";
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::RunSelfTests() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.traced = value == "1";
    } else if (arg == "--source") {
      source = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !perfbench::IsWorkload(options.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool fast = FastModeRequested();
  std::printf("perfbench %s seed %llu seconds %s trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              perfbench::FormatNumber(options.seconds).c_str(),
              options.traced ? 1 : 0);
  const std::string provenance =
      "{\"source\": " + perfbench::JsonString(source) +
      ", \"build_type\": " + perfbench::JsonString(build_type) +
      ", \"compiler\": " + perfbench::JsonString(PERFBENCH_COMPILER) +
      ", \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"workload\": " + perfbench::JsonString(options.workload) +
      ", \"parameters\": " +
      perfbench::JsonString(perfbench::WorkloadParameters(options.workload)) +
      ", \"sqlb_fast\": " + (fast ? "true" : "false") + "}";
  std::printf("provenance %s\n", provenance.c_str());

  perfbench::Report report;
  report.Check(build_type == "Release",
               "Release build (this one: " + build_type + ")");
  report.Check(!fast, "full mode (SQLB_FAST unset)");

  perfbench::SpanRecorder spans;
  perfbench::RunWorkload(options, &report,
                         options.traced ? &spans : nullptr);

  if (options.traced && !spans_path.empty()) {
    const bool written = spans.WriteChromeJson(spans_path, provenance);
    report.Check(written, "span file written: " + spans_path + " (" +
                              std::to_string(spans.size()) + " spans, " +
                              std::to_string(spans.dropped()) + " dropped)");
  }
  report.PrintResult(options.traced);
  return report.correct() ? 0 : 1;
}
