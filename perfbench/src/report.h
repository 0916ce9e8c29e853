#ifndef DESS_PERFBENCH_REPORT_H_
#define DESS_PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of a sample (0 for an empty one).
double Quantile(std::vector<double> values, double q);

/// Arithmetic mean (0 for an empty one).
double Mean(const std::vector<double>& values);

/// Operations attempted and failed for one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Everything one benchmark run reports: correctness verdict, per-type
/// operation counts, and the metrics the run mode asks for.
class Report {
 public:
  /// Records the outcome of one correctness check; a false `ok` makes the
  /// run incorrect and keeps the first few messages for the log.
  void Check(bool ok, const std::string& what);

  /// Counts one operation of `type` (query, ingest, commit, recover).
  void CountOp(const std::string& type, bool ok);

  void Set(const std::string& name, double value, const std::string& unit);

  bool correct() const { return correct_; }

  /// Prints the human-readable table, then the one-line JSON result as
  /// the last line of standard output.
  void Print(const std::string& workload, bool trace) const;

 private:
  bool correct_ = true;
  std::vector<std::string> failures_;
  uint64_t failed_checks_ = 0;
  std::map<std::string, OpCount> ops_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Total size in bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // DESS_PERFBENCH_REPORT_H_
