#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// What one benchmark run prints: named metrics with units, correctness
/// checks, and the closing one-line JSON result.

namespace perfbench {

/// Exact decimal rendering: the shortest fixed-notation string that reads
/// back to the same double (never an exponent such as 3e+05).
std::string FormatNumber(double value);
/// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string JsonString(const std::string& text);

class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  /// End-to-end metric (untraced runs); printed as it is recorded.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (traced runs).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A free-form line of the human-readable report.
  void Info(const std::string& line);
  /// Records one correctness check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Adds to the attempted / failed operation tallies.
  void Count(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return failures_.empty(); }
  /// Prints the closing JSON line: the per-layer metrics when `traced`, the
  /// end-to-end metrics otherwise.
  void PrintResult(bool traced) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
