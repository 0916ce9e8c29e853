// ingest_durable: a durable home taking in new parts while it serves. A
// writer streams pre-extracted records through Ingest at the default
// durability (kAsync; commit markers are always fsynced) with a delta
// commit per batch, a full commit (checkpoint) part-way, and the
// program's size-triggered background compaction. One reader thread
// issues QueryByShapeId throughout. Each cycle ends by dropping the system
// with a non-empty WAL tail and timing Open(dir). WAL, delta layering,
// compaction, hierarchy rebuild and checkpoint persistence do the work
// here; extraction does none.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/cluster/hierarchy.h"
#include "src/index/index_backend.h"
#include "src/modelgen/signature_corpus.h"

namespace perfbench {
namespace {

using dess::CommitMode;
using dess::Dess3System;
using dess::FeatureKind;
using dess::QueryRequest;
using dess::SearchResult;
using dess::ShapeRecord;

// 250 clusters of 64 members (stddev 0.05, centers uniform in [-1, 1]^d),
// shuffled by the seed: the first 10k records are the checkpointed base,
// the rest are streamed. One cycle sets up a fresh home (open, ingest the
// base, full commit: the set-up the workload times), streams 20 batches of
// 100 with a delta commit each (crossing the compaction trigger of 10% of
// the base once), a full commit, 10 more delta-committed batches, and 50
// records left pending, then drops the system and reopens it three times.
constexpr int kGroups = 250;
constexpr int kGroupSize = 64;
constexpr int kBaseRecords = 10000;
constexpr int kBatch = 100;
constexpr int kBatchesBeforeFull = 20;
constexpr int kBatchesAfterFull = 10;
constexpr int kPending = 50;
constexpr int kCycleRecords =
    (kBatchesBeforeFull + kBatchesAfterFull) * kBatch + kPending;
static_assert(kGroups * kGroupSize - kBaseRecords >= kCycleRecords,
              "the stream must cover one cycle");
constexpr int kRecoverRepetitions = 3;
constexpr int kProbeIds = 8;

dess::SystemOptions Options() {
  dess::SystemOptions options;
  options.search.standardize = false;
  options.search.index_backend = dess::kLinearScanBackendId;
  return options;
}

/// The system the reader queries, handed over by the writer.
struct Published {
  std::mutex mu;
  std::shared_ptr<const Dess3System> system;  // guarded by mu
  uint64_t cycle = 0;                         // guarded by mu
  std::atomic<bool> committing{false};
  std::atomic<bool> stop{false};
};

struct ReadRecord {
  uint64_t cycle = 0;
  double latency = 0;
  bool during_commit = false;
  bool traced = false;
  std::vector<int> ids;
  int query_id = 0;
};

/// Measurements of one writer cycle.
struct Cycle {
  uint64_t number = 0;
  double setup_s = 0;
  double ingest_s = 0;
  int ingested = 0;
  std::vector<double> delta_ms;
  double base_commit_s = 0;  // the set-up's full commit, no reader yet
  std::vector<double> recover_s;
  double bytes_per_record = 0;
  double compactions = 0;
  double reader_window_s = 0;
  // Traced cycles only.
  double hierarchy_s = 0, engine_build_s = 0, checkpoint_s = 0, open_s = 0;
  double wal_bytes_per_record = 0, checkpoint_bytes = 0;
};

}  // namespace

void RunIngestDurable(const RunOptions& options, Report* report,
                      Values* values) {
  const dess::SystemOptions system_options = Options();
  dess::SignatureCorpusOptions corpus_options;
  corpus_options.num_groups = kGroups;
  corpus_options.group_size = kGroupSize;
  corpus_options.seed = options.seed * 0x9E3779B97F4A7C15ull + 0x77616cull;
  auto generated = dess::MakeSignatureCorpus(corpus_options);
  report->Check(generated.ok(), "corpus generation failed");
  if (!generated.ok()) return;
  dess::Rng rng(corpus_options.seed + 1);
  rng.Shuffle(&generated.value());
  std::vector<ShapeRecord> records = std::move(generated).value();
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int>(i);  // the id each record will get
  }
  const auto group_of = [&records](int id) {
    return id >= 0 && id < static_cast<int>(records.size())
               ? records[id].group
               : -2;
  };

  Published published;
  std::vector<ReadRecord> reads;
  std::atomic<bool> reads_traced{false};
  std::atomic<bool> reads_recorded{false};
  bool epochs_ordered = true;
  // Reader: closed loop of by-id top-10 queries over base ids, rotating
  // the space; checks that epochs never go backwards within a cycle.
  std::thread reader([&] {
    uint64_t n = 0;
    uint64_t last_cycle = 0, last_epoch = 0;
    while (!published.stop.load()) {
      std::shared_ptr<const Dess3System> system;
      uint64_t cycle = 0;
      {
        std::lock_guard<std::mutex> lock(published.mu);
        system = published.system;
        cycle = published.cycle;
      }
      if (system == nullptr) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      const int query_id =
          static_cast<int>((n * 7919) % static_cast<uint64_t>(kBaseRecords));
      const auto kind =
          static_cast<FeatureKind>(n % dess::kNumFeatureKinds);
      ++n;
      ReadRecord read;
      read.during_commit = published.committing.load();
      const Clock::time_point start = Clock::now();
      auto answer = system->QueryByShapeId(query_id,
                                           QueryRequest::TopK(kind, 10));
      read.latency = SecondsSince(start);
      system.reset();
      if (!reads_recorded.load()) continue;  // warm-up cycle
      read.traced = reads_traced.load();
      read.cycle = cycle;
      read.query_id = query_id;
      if (!answer.ok()) {
        read.latency = -1;
      } else {
        read.ids = IdsOf(answer->results);
        if (cycle != last_cycle) last_epoch = 0;
        if (answer->epoch < last_epoch) epochs_ordered = false;
        last_cycle = cycle;
        last_epoch = answer->epoch;
      }
      reads.push_back(std::move(read));
    }
  });

  double probe_recall = 0;
  int probe_count = 0;

  // One writer cycle in a fresh home.
  auto run_cycle = [&](uint64_t cycle_number, bool traced, Cycle* cycle) {
    cycle->number = cycle_number;
    const std::string home =
        options.work_dir + "/durable_cycle" + std::to_string(cycle_number);
    std::filesystem::remove_all(home);
    const Clock::time_point setup_start = Clock::now();
    auto opened = Dess3System::Open(home, {}, system_options);
    report->Check(opened.ok(), "opening an empty home failed");
    if (!opened.ok()) return;
    std::shared_ptr<Dess3System> system = std::move(opened).value();
    for (int i = 0; i < kBaseRecords; ++i) {
      auto id = system->Ingest(records[i], {});
      report->CountOp("ingest", id.ok() && *id == i);
    }
    const Clock::time_point commit_start = Clock::now();
    auto base_receipt = system->Commit();
    cycle->base_commit_s = SecondsSince(commit_start);
    report->CountOp("commit", base_receipt.ok());
    if (!base_receipt.ok()) return;
    cycle->setup_s = SecondsSince(setup_start);
    const double compactions_before = CounterValue("system.compactions");
    const Clock::time_point window_start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(published.mu);
      published.system = system;
      published.cycle = cycle_number;
    }
    uint64_t last_epoch = system->PublishedEpoch();
    int next = kBaseRecords;
    auto ingest_batch = [&](int count) {
      for (int i = 0; i < count; ++i, ++next) {
        const Clock::time_point start = Clock::now();
        auto id = system->Ingest(records[next], {});
        cycle->ingest_s += SecondsSince(start);
        ++cycle->ingested;
        report->CountOp("ingest", id.ok() && *id == next);
      }
    };
    auto commit = [&](CommitMode mode) {
      published.committing.store(true);
      const Clock::time_point start = Clock::now();
      auto receipt = system->Commit({.mode = mode});
      const double seconds = SecondsSince(start);
      published.committing.store(false);
      report->CountOp("commit", receipt.ok());
      if (receipt.ok()) last_epoch = receipt->epoch;
      return seconds;
    };
    for (int b = 0; b < kBatchesBeforeFull; ++b) {
      ingest_batch(kBatch);
      cycle->delta_ms.push_back(commit(CommitMode::kDelta) * 1e3);
    }
    commit(CommitMode::kFull);
    for (int b = 0; b < kBatchesAfterFull; ++b) {
      ingest_batch(kBatch);
      cycle->delta_ms.push_back(commit(CommitMode::kDelta) * 1e3);
    }
    ingest_batch(kPending);

    // Hand the system back from the reader, record probe answers, drop
    // the system with its WAL tail, and time recovery.
    {
      std::lock_guard<std::mutex> lock(published.mu);
      published.system = nullptr;
    }
    while (system.use_count() > 1) std::this_thread::yield();
    cycle->reader_window_s = SecondsSince(window_start);
    cycle->compactions =
        CounterValue("system.compactions") - compactions_before;
    std::vector<std::vector<SearchResult>> before;
    for (int p = 0; p < kProbeIds * dess::kNumFeatureKinds; ++p) {
      auto answer = system->QueryByShapeId(
          p / dess::kNumFeatureKinds * 1237,
          QueryRequest::TopK(static_cast<FeatureKind>(p % 4), 10));
      before.push_back(answer.ok() ? answer->results
                                   : std::vector<SearchResult>{});
    }
    const int committed = next - kPending;
    system.reset();
    const double home_bytes = static_cast<double>(DirectoryBytes(home));
    cycle->bytes_per_record = home_bytes / next;
    if (traced) {
      std::error_code ec;
      const double wal_bytes = static_cast<double>(
          std::filesystem::file_size(home + "/wal.log", ec));
      cycle->wal_bytes_per_record =
          wal_bytes / (kBatchesAfterFull * kBatch + kPending);
      cycle->checkpoint_bytes =
          static_cast<double>(DirectoryBytes(home + "/snapshot"));
    }
    // After Open(dir): every acknowledged record is present, the epoch is
    // the last acknowledged one, the pending tail replays as pending, and
    // the probes answer as before and as the brute force does.
    auto check_recovered = [&](const Dess3System& recovered) {
      report->Check(recovered.PublishedEpoch() == last_epoch,
                    "reopened epoch differs from the last acknowledged one");
      report->Check(
          recovered.db().NumShapes() == static_cast<size_t>(next) &&
              recovered.PendingRecords() == static_cast<uint64_t>(kPending),
          "reopened home has the wrong record or pending count");
      for (int id = 0; id < committed; ++id) {
        auto record = recovered.db().Get(id);
        if (!record.ok() || (*record)->name != records[id].name) {
          report->Check(false, "acknowledged record missing after recovery");
          break;
        }
      }
      auto snapshot = recovered.CurrentSnapshot();
      if (!snapshot.ok()) return;
      const dess::ShapeDatabase& served = (*snapshot)->db();
      report->Check(served.NumShapes() == static_cast<size_t>(committed),
                    "recovered snapshot does not serve the committed records");
      for (int p = 0; p < kProbeIds * dess::kNumFeatureKinds; ++p) {
        const int id = p / dess::kNumFeatureKinds * 1237;
        const int ordinal = p % dess::kNumFeatureKinds;
        auto answer = recovered.QueryByShapeId(
            id, QueryRequest::TopK(static_cast<FeatureKind>(ordinal), 10));
        report->Check(answer.ok() && answer->results == before[p],
                      "probe answers differently after recovery");
        if (!answer.ok()) continue;
        const std::vector<double>& query =
            records[id].signature.At(ordinal).values;
        const std::vector<Ranked> truth =
            BruteForceTopK(query, RowsOf(served, ordinal), {}, 10, id);
        const DistanceOf exact = DistanceIn(served, ordinal, query, {});
        const std::string why =
            CheckExactTopK(ToRanked(answer->results), truth, exact);
        report->Check(why.empty(), "recovered probe brute force: " + why);
        probe_recall += RecallAtK(ToRanked(answer->results), truth, exact);
        ++probe_count;
      }
    };
    std::unique_ptr<Dess3System> reopened;
    for (int r = 0; r < kRecoverRepetitions; ++r) {
      reopened.reset();
      const Clock::time_point recover_start = Clock::now();
      auto opened_again = Dess3System::Open(home, {}, system_options);
      cycle->recover_s.push_back(SecondsSince(recover_start));
      report->CountOp("recover", opened_again.ok());
      if (!opened_again.ok()) return;
      reopened = std::move(opened_again).value();
      check_recovered(*reopened);
    }
    const Dess3System& recovered = *reopened;

    if (traced) {
      // Re-enact the base commit on the base records, layer by layer:
      // engine build, browsing hierarchies, checkpoint; and open the
      // cycle's real checkpoint (the mid-cycle full commit) alone.
      const std::shared_ptr<const dess::ShapeDatabase> view =
          recovered.db().PrefixView(kBaseRecords);
      dess::SearchEngineOptions search = system_options.search;
      Clock::time_point t = Clock::now();
      auto engine = dess::SearchEngine::Build(view, search);
      cycle->engine_build_s = SecondsSince(t);
      if (!engine.ok()) return;
      t = Clock::now();
      std::vector<std::unique_ptr<dess::HierarchyNode>> hierarchies;
      for (int o = 0; o < (*engine)->NumSpaces(); ++o) {
        std::vector<std::vector<double>> points;
        points.reserve(view->NumShapes());
        for (const ShapeRecord& record : view->records()) {
          points.push_back(
              (*engine)->SpaceAt(o).Standardize(record.signature.At(o).values));
        }
        auto hierarchy =
            dess::BuildHierarchy(points, system_options.hierarchy);
        if (!hierarchy.ok()) return;
        hierarchies.push_back(std::move(hierarchy).value());
      }
      cycle->hierarchy_s = SecondsSince(t);
      auto rebuilt = dess::SystemSnapshot::Assemble(
          view, last_epoch, std::move(engine).value(),
          std::move(hierarchies));
      if (!rebuilt.ok()) return;
      dess::SaveOptions save;
      save.overwrite = true;
      t = Clock::now();
      const dess::Status saved =
          (*rebuilt)->SaveTo(home + "/reenacted_checkpoint", save);
      cycle->checkpoint_s = SecondsSince(t);
      report->Check(saved.ok(), "re-enacted checkpoint failed");
      t = Clock::now();
      auto checkpoint =
          Dess3System::OpenFromSnapshot(home + "/snapshot", {}, system_options);
      cycle->open_s = SecondsSince(t);
      report->Check(checkpoint.ok() &&
                        (*checkpoint)->db().NumShapes() ==
                            kBaseRecords + kBatchesBeforeFull * kBatch,
                    "checkpoint alone does not hold the full commit");
    }
    reopened.reset();
    std::filesystem::remove_all(home);
  };

  // Warm-up cycle, then whole cycles until the time is up (an untraced
  // half and a traced half with --trace 1).
  Cycle warm;
  run_cycle(0, false, &warm);
  reads_recorded.store(true);
  probe_recall = 0;
  probe_count = 0;
  std::vector<Cycle> untraced, traced;
  uint64_t cycle_number = 1;
  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool is_traced = phase == 1;
    reads_traced.store(is_traced);
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < phase_seconds) {
      Cycle cycle;
      run_cycle(cycle_number++, is_traced, &cycle);
      (is_traced ? traced : untraced).push_back(std::move(cycle));
    }
  }
  published.stop.store(true);
  reader.join();
  report->Check(epochs_ordered, "a reader saw its epoch go backwards");

  std::vector<double> latency, traced_latency, during_commit, idle;
  std::map<uint64_t, std::vector<double>> cycle_latency;
  double precision = 0;
  size_t scored = 0;
  for (const ReadRecord& read : reads) {
    report->CountOp("query", read.latency >= 0);
    if (read.latency < 0) continue;
    precision += PrecisionAtK(read.ids, group_of, group_of(read.query_id), 10);
    ++scored;
    if (read.traced) {
      traced_latency.push_back(read.latency);
      (read.during_commit ? during_commit : idle).push_back(read.latency);
    } else {
      latency.push_back(read.latency);
      cycle_latency[read.cycle].push_back(read.latency);
    }
  }
  auto collect = [](const std::vector<Cycle>& cycles, auto field) {
    std::vector<double> out;
    for (const Cycle& c : cycles) out.push_back(field(c));
    return out;
  };
  // Reader throughput and 99th percentile are medians over cycles (each
  // cycle is a window of the timed phase), as on catalog.
  std::vector<double> delta_ms, cycle_qps, cycle_p99;
  for (const Cycle& c : untraced) {
    delta_ms.insert(delta_ms.end(), c.delta_ms.begin(), c.delta_ms.end());
    const std::vector<double>& reads_of_cycle = cycle_latency[c.number];
    cycle_qps.push_back(static_cast<double>(reads_of_cycle.size()) /
                        c.reader_window_s);
    cycle_p99.push_back(Quantile(reads_of_cycle, 0.99) * 1e3);
  }

  (*values)["setup_s"] =
      Median(collect(untraced, [](const Cycle& c) { return c.setup_s; }));
  (*values)["query_qps"] = Median(cycle_qps);
  (*values)["query_p50_ms"] = Quantile(latency, 0.50) * 1e3;
  (*values)["query_p99_ms"] = Median(cycle_p99);
  (*values)["precision_at_10"] = scored > 0 ? precision / scored : 0;
  (*values)["ann_recall_at_10"] =
      probe_count > 0 ? probe_recall / probe_count : 0;
  // The writer's sustained rate: streamed records over the time spent in
  // Ingest and the delta commits. A background compaction holds the
  // writer lock for its whole fold and stalls whichever of the two calls
  // comes next; counting both keeps that stall in the figure whichever
  // call absorbs it.
  (*values)["ingest_records_per_s"] =
      Median(collect(untraced, [](const Cycle& c) {
        double delta_s = 0;
        for (double ms : c.delta_ms) delta_s += ms / 1e3;
        return c.ingested / (c.ingest_s + delta_s);
      }));
  (*values)["commit_delta_p50_ms"] = Median(delta_ms);
  // The base commit runs before the reader starts: the mid-cycle full
  // commit shares the CPUs with the reader and the compaction pool, and
  // its time moved with the host's load by a quarter from run to run.
  (*values)["commit_full_s"] = Median(
      collect(untraced, [](const Cycle& c) { return c.base_commit_s; }));
  std::vector<double> recover_s;
  for (const Cycle& c : untraced) {
    recover_s.insert(recover_s.end(), c.recover_s.begin(), c.recover_s.end());
  }
  (*values)["recover_s"] = Median(recover_s);
  (*values)["home_bytes_per_record"] = Median(
      collect(untraced, [](const Cycle& c) { return c.bytes_per_record; }));
  (*values)["peak_rss_mb"] = PeakRssMb();

  if (!traced.empty()) {
    auto mean_ms = [&](auto field) {
      return Mean(collect(traced, field)) * 1e3;
    };
    const double full_ms =
        mean_ms([](const Cycle& c) { return c.base_commit_s; });
    const double hierarchy_ms =
        mean_ms([](const Cycle& c) { return c.hierarchy_s; });
    const double build_ms =
        mean_ms([](const Cycle& c) { return c.engine_build_s; });
    const double checkpoint_ms =
        mean_ms([](const Cycle& c) { return c.checkpoint_s; });
    const double open_ms = mean_ms([](const Cycle& c) { return c.open_s; });
    const double recover_ms =
        mean_ms([](const Cycle& c) { return Mean(c.recover_s); });
    double ingest_s = 0, ingested = 0;
    for (const Cycle& c : traced) {
      ingest_s += c.ingest_s;
      ingested += c.ingested;
    }
    (*values)["wal.ingest_us"] = ingest_s * 1e6 / ingested;
    (*values)["cluster.hierarchy_ms"] = hierarchy_ms;
    (*values)["search.engine_build_ms"] = build_ms;
    (*values)["persistence.checkpoint_ms"] = checkpoint_ms;
    (*values)["persistence.open_ms"] = open_ms;
    (*values)["wal.replay_ms"] = recover_ms - open_ms;
    (*values)["ingest_durable.unattributed_ms"] =
        full_ms - hierarchy_ms - build_ms - checkpoint_ms;
    (*values)["wal.bytes_per_record"] = Mean(collect(
        traced, [](const Cycle& c) { return c.wal_bytes_per_record; }));
    (*values)["persistence.checkpoint_bytes"] = Mean(
        collect(traced, [](const Cycle& c) { return c.checkpoint_bytes; }));
    (*values)["core.compactions"] =
        Mean(collect(traced, [](const Cycle& c) { return c.compactions; }));
    (*values)["core.read_during_commit_ms"] = Mean(during_commit) * 1e3;
    (*values)["core.read_idle_ms"] = Mean(idle) * 1e3;
    (*values)["trace.overhead_ms"] =
        full_ms -
        Mean(collect(untraced,
                     [](const Cycle& c) { return c.base_commit_s; })) *
            1e3;
    std::printf("  ingest_durable traced full commit %.4f ms = hierarchy "
                "%.4f + engine build %.4f + checkpoint %.4f + unattributed "
                "%.4f ms; recover %.4f ms = open %.4f + replay %.4f ms\n",
                full_ms, hierarchy_ms, build_ms, checkpoint_ms,
                full_ms - hierarchy_ms - build_ms - checkpoint_ms, recover_ms,
                open_ms, recover_ms - open_ms);
  }
}

}  // namespace perfbench
