#ifndef DESS_PERFBENCH_WORKLOADS_H_
#define DESS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/reference.h"
#include "perfbench/src/report.h"
#include "src/core/system.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable homes; removed when the run ends.
  std::string work_dir;
};

/// Metric name -> measured value, filled by a workload.
using Values = std::map<std::string, double>;

/// Each workload runs its set-up, its timed phase (the whole of
/// `seconds`, or an untraced half and a traced half when `trace` is set),
/// and its checks; it counts operations and check outcomes in `report`
/// and its measurements in `values`.
void RunMeshQuery(const RunOptions& options, Report* report, Values* values);
void RunCatalog(const RunOptions& options, Report* report, Values* values);
void RunIngestDurable(const RunOptions& options, Report* report,
                      Values* values);

/// The program's ranked results in the reference's row type.
std::vector<Ranked> ToRanked(const std::vector<dess::SearchResult>& results);

/// Ids of a ranked answer, in rank order.
std::vector<int> IdsOf(const std::vector<dess::SearchResult>& results);

/// Per-row vectors of one feature space of a record store, for the
/// brute-force reference.
RowSet RowsOf(const dess::ShapeDatabase& db, int ordinal);

/// Exact distances in one space of `db` to `query`, by shape id.
DistanceOf DistanceIn(const dess::ShapeDatabase& db, int ordinal,
                      const std::vector<double>& query,
                      const std::vector<double>& weights);

/// Installed weights of one space of a snapshot's engine.
std::vector<double> WeightsOf(const dess::SystemSnapshot& snapshot,
                              int ordinal);

/// Current value of a process-wide metrics-registry counter (0 before
/// its first increment).
double CounterValue(const std::string& name);

}  // namespace perfbench

#endif  // DESS_PERFBENCH_WORKLOADS_H_
