// dess_perfbench: the repository benchmark. Runs one workload against the
// public API for a fixed time, checks every answer against the benchmark's
// own reference computations, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) as the last line of standard
// output, in one JSON object.
//
//   dess_perfbench --workload mesh_query|catalog|ingest_durable
//                  --seed N --seconds S --trace 0|1 [--work-dir DIR]
//   dess_perfbench --selftest
//
// Exits 0 when every check held, 1 when a check failed, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "perfbench/src/workloads.h"
#include "src/common/metrics.h"

namespace perfbench {

std::vector<Ranked> ToRanked(const std::vector<dess::SearchResult>& results) {
  std::vector<Ranked> out;
  out.reserve(results.size());
  for (const dess::SearchResult& r : results) out.push_back({r.id, r.distance});
  return out;
}

std::vector<int> IdsOf(const std::vector<dess::SearchResult>& results) {
  std::vector<int> ids;
  ids.reserve(results.size());
  for (const dess::SearchResult& r : results) ids.push_back(r.id);
  return ids;
}

RowSet RowsOf(const dess::ShapeDatabase& db, int ordinal) {
  RowSet rows;
  rows.ids.reserve(db.NumShapes());
  rows.vectors.reserve(db.NumShapes());
  for (const dess::ShapeRecord& record : db.records()) {
    rows.ids.push_back(record.id);
    rows.vectors.push_back(&record.signature.At(ordinal).values);
  }
  return rows;
}

DistanceOf DistanceIn(const dess::ShapeDatabase& db, int ordinal,
                      const std::vector<double>& query,
                      const std::vector<double>& weights) {
  return [&db, ordinal, query, weights](int id) {
    auto record = db.Get(id);
    if (!record.ok()) return -1.0;  // an unknown id never matches a score
    return WeightedDistance(query, (*record)->signature.At(ordinal).values,
                            weights);
  };
}

std::vector<double> WeightsOf(const dess::SystemSnapshot& snapshot,
                              int ordinal) {
  return snapshot.engine().SpaceAt(ordinal).weights;
}

double CounterValue(const std::string& name) {
  for (const auto& c : dess::MetricsRegistry::Global()->Snapshot().counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the end_to_end and per_layer metrics of
// BENCHMARK.json, in the same units.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_qps", "1/s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"precision_at_10", "fraction"},
    {"ann_recall_at_10", "fraction"},
    {"ingest_records_per_s", "1/s"},
    {"commit_delta_p50_ms", "ms"},
    {"commit_full_s", "s"},
    {"recover_s", "s"},
    {"home_bytes_per_record", "B"},
    {"peak_rss_mb", "MiB"},
};

// A layer a workload does not exercise (or re-enact) reads 0 there.
const MetricDef kPerLayer[] = {
    {"features.normalize_ms", "ms"},
    {"voxel.voxelize_ms", "ms"},
    {"skeleton.thin_ms", "ms"},
    {"graph.build_ms", "ms"},
    {"features.descriptors_ms", "ms"},
    {"search.query_ms", "ms"},
    {"mesh_query.unattributed_ms", "ms"},
    {"voxel.solid_voxels", "count"},
    {"skeleton.voxels", "count"},
    {"graph.nodes", "count"},
    {"index.points_compared", "count"},
    {"serve.roundtrip_ms", "ms"},
    {"core.executor_ms", "ms"},
    {"search.engine_ms", "ms"},
    {"core.executor_wait_ms", "ms"},
    {"wire.codec_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"catalog.unattributed_ms", "ms"},
    {"index.linear_scan.points_compared", "count"},
    {"index.hnsw.points_compared", "count"},
    {"index.kernel_batches", "count"},
    {"wal.ingest_us", "us"},
    {"cluster.hierarchy_ms", "ms"},
    {"search.engine_build_ms", "ms"},
    {"persistence.checkpoint_ms", "ms"},
    {"persistence.open_ms", "ms"},
    {"wal.replay_ms", "ms"},
    {"ingest_durable.unattributed_ms", "ms"},
    {"wal.bytes_per_record", "B"},
    {"persistence.checkpoint_bytes", "B"},
    {"core.compactions", "count"},
    {"core.read_during_commit_ms", "ms"},
    {"core.read_idle_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: dess_perfbench --workload "
               "mesh_query|catalog|ingest_durable --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "       dess_perfbench --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.work_dir = ".bench_build/work";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  const std::string self = ReferenceSelfTest();
  if (selftest) {
    std::printf("reference self-test: %s\n",
                self.empty() ? "ok" : self.c_str());
    return self.empty() ? 0 : 1;
  }
  void (*run)(const RunOptions&, Report*, Values*) = nullptr;
  if (options.workload == "mesh_query") run = RunMeshQuery;
  if (options.workload == "catalog") run = RunCatalog;
  if (options.workload == "ingest_durable") run = RunIngestDurable;
  if (run == nullptr || !(options.seconds > 0)) return Usage();

  // Every run owns a private scratch directory under the work dir.
  options.work_dir += "/" + options.workload + "-" +
                      std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  Report report;
  report.Check(self.empty(), "reference self-test: " + self);
  Values values;
  run(options, &report, &values);
  std::filesystem::remove_all(options.work_dir);

  if (options.trace) {
    for (const MetricDef& m : kPerLayer) {
      const auto it = values.find(m.name);
      report.Set(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      const auto it = values.find(m.name);
      report.Check(it != values.end() && it->second > 0,
                   std::string("metric not measured: ") + m.name);
      report.Set(m.name, it == values.end() ? 0.0 : it->second, m.unit);
    }
  }
  report.Print(options.workload, options.trace);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
