// catalog: "more like this" lookups over a pre-extracted catalog of tight
// Gaussian clusters. One closed-loop client runs by-id top-10 queries on
// the four exact (linear-scan) spaces and off-corpus perturbed
// by-signature top-10 queries on one HNSW space, through the system's
// public query API. Index scans and SIMD kernels are most of each request;
// extraction does no work. The traced half also sends every request over
// the wire to a dess_serve Server on loopback and splits it into layers.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/index/index_backend.h"
#include "src/modelgen/signature_corpus.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

namespace perfbench {
namespace {

using dess::CommitMode;
using dess::Dess3System;
using dess::FeatureKind;
using dess::QueryRequest;
using dess::SearchResult;
using dess::ShapeRecord;
using dess::WireQueryRequest;

// 300 clusters of 100 members (stddev 0.05 around centers uniform in
// [-1, 1]^d): 30k rows, sized so that three catalog set-ups per run fit
// the run budget while an exact scan still costs far more than the wire.
// Four further members per cluster are the new parts the epilogue
// ingests. The catalog is the served system's state and is the same in
// every run; the queries are the workload and come from --seed.
constexpr uint64_t kCatalogSeed = 2004;
constexpr int kGroups = 300;
constexpr int kCatalogPerGroup = 100;
constexpr int kStreamPerGroup = 4;
constexpr double kMemberStddev = 0.05;
constexpr int kAnnDim = 32;
constexpr char kAnnSpace[] = "catalog_ann32";
constexpr int kAnnOrdinal = dess::kNumFeatureKinds;
constexpr int kExactPool = 256;
constexpr int kAnnPool = 1024;
// One round: a by-id query in each exact space, then two HNSW queries.
// The HNSW share (1/3) keeps the median and the 99th percentile inside
// the exact-scan latency mode.
constexpr int kRoundOps = dess::kNumFeatureKinds + 2;
constexpr int kWarmupRounds = 8;
constexpr int kWindows = 10;
constexpr int kStreamBatch = 20;
constexpr int kSetupRepetitions = 3;
constexpr size_t kIngestChunk = 1000;  // records per ingest-rate sample
constexpr int kRecoverRepetitions = 3;

std::shared_ptr<const dess::FeatureSpaceRegistry> Registry() {
  auto registry = std::make_shared<dess::FeatureSpaceRegistry>();
  dess::FeatureSpaceDef def;
  def.id = kAnnSpace;
  def.dim = kAnnDim;
  def.index_backend = dess::kHnswBackendId;
  // Signature-only catalog: records arrive pre-extracted, so the extractor
  // is never run.
  def.extractor = [](const dess::ExtractionArtifacts&) {
    return dess::Result<dess::FeatureVector>(
        dess::Status::FailedPrecondition("catalog space has no extractor"));
  };
  DESS_CHECK(registry->Register(std::move(def)).ok());
  return registry;
}

dess::SystemOptions Options() {
  dess::SystemOptions options;
  options.feature_spaces = Registry();
  options.search.standardize = false;
  options.search.index_backend = dess::kLinearScanBackendId;
  return options;
}

/// One request of the mix: by id in an exact space, or by a perturbed
/// signature in the HNSW space.
struct PoolQuery {
  bool ann = false;
  int shape_id = -1;  // by-id target
  int ordinal = 0;    // exact space ordinal
  dess::ShapeSignature signature;  // by-signature target
};

WireQueryRequest ToWire(const PoolQuery& q) {
  WireQueryRequest wire;
  wire.k = 10;
  if (q.ann) {
    wire.target = WireQueryRequest::Target::kBySignature;
    wire.signature = q.signature;
    wire.space = kAnnSpace;
  } else {
    wire.shape_id = q.shape_id;
    wire.kind = static_cast<FeatureKind>(q.ordinal);
  }
  return wire;
}

QueryRequest ToRequest(const PoolQuery& q) {
  return q.ann ? QueryRequest::TopK(std::string(kAnnSpace), 10)
               : QueryRequest::TopK(static_cast<FeatureKind>(q.ordinal), 10);
}

struct OpRecord {
  int pool = 0;  // index into the exact pool, or kExactPool * 4 + ann index
  double latency = 0;
  std::vector<SearchResult> results;
};

/// Mix position n -> pool entry. Exact entries are (id index, space)
/// pairs laid out as id * 4 + space.
int PoolEntry(uint64_t n) {
  const int pos = static_cast<int>(n % kRoundOps);
  const uint64_t round = n / kRoundOps;
  if (pos < dess::kNumFeatureKinds) {
    const int id_index = static_cast<int>((round * 7 + pos * 17) % kExactPool);
    return id_index * dess::kNumFeatureKinds + pos;
  }
  const int ann_index = static_cast<int>(
      (round * 2 + (pos - dess::kNumFeatureKinds)) % kAnnPool);
  return kExactPool * dess::kNumFeatureKinds + ann_index;
}

dess::Result<dess::QueryResponse> Ask(const Dess3System& system,
                                      const PoolQuery& q) {
  return q.ann ? system.QueryBySignature(q.signature, ToRequest(q))
               : system.QueryByShapeId(q.shape_id, ToRequest(q));
}

/// Per-layer split of the wire path, summed over the traced requests.
struct Split {
  double roundtrip = 0, executor = 0, engine = 0, codec = 0;
  double kernel_batches = 0;
  int ops = 0;
  bool agree = true;
};

/// Sends `q` over the wire and re-runs it through the executor, directly
/// against the snapshot and through the codecs (client encode + server
/// parse and decode of the request, server encode + client parse and
/// decode of the response), adding each layer's time to `split`.
void SplitRequest(const PoolQuery& q, const std::vector<SearchResult>& expected,
                  dess::Client& client, dess::QueryExecutor& executor,
                  const dess::SystemSnapshot& snapshot, Split* split) {
  const WireQueryRequest wire = ToWire(q);
  Clock::time_point t = Clock::now();
  auto reply = client.Query(wire);
  split->roundtrip += SecondsSince(t);
  t = Clock::now();
  auto executed =
      q.ann ? executor.SubmitQuery(q.signature, ToRequest(q)).get()
            : executor.SubmitQueryById(q.shape_id, ToRequest(q)).get();
  split->executor += SecondsSince(t);
  t = Clock::now();
  auto direct = q.ann ? snapshot.Query(q.signature, ToRequest(q))
                      : snapshot.QueryById(q.shape_id, ToRequest(q));
  split->engine += SecondsSince(t);
  dess::WireQueryResponse response;
  response.results = expected;
  t = Clock::now();
  const std::string request_frame = dess::EncodeFrame(
      dess::FrameType::kQuery, 1, dess::EncodeQueryRequest(wire));
  dess::FrameParser request_parser;
  request_parser.Append(request_frame.data(), request_frame.size());
  auto request_parsed = request_parser.Next();
  const bool request_ok =
      request_parsed.ok() && request_parsed->has_value() &&
      dess::DecodeQueryRequest((*request_parsed)->payload).ok();
  const std::string response_frame = dess::EncodeFrame(
      dess::FrameType::kResponse, 1, dess::EncodeQueryResponse(response));
  dess::FrameParser response_parser;
  response_parser.Append(response_frame.data(), response_frame.size());
  auto response_parsed = response_parser.Next();
  const bool response_ok =
      response_parsed.ok() && response_parsed->has_value() &&
      dess::DecodeQueryResponse((*response_parsed)->payload).ok();
  split->codec += SecondsSince(t);
  ++split->ops;
  if (reply.ok()) {
    split->kernel_batches += static_cast<double>(reply->stats.kernel_batches);
  }
  split->agree = split->agree && reply.ok() && reply->ok() &&
                 reply->results == expected && executed.ok() &&
                 executed->results == expected && direct.ok() &&
                 direct->results == expected && request_ok && response_ok;
}

}  // namespace

void RunCatalog(const RunOptions& options, Report* report, Values* values) {
  const dess::SystemOptions system_options = Options();
  dess::SignatureCorpusOptions corpus_options;
  corpus_options.num_groups = kGroups;
  corpus_options.group_size = kCatalogPerGroup + kStreamPerGroup;
  corpus_options.member_stddev = kMemberStddev;
  corpus_options.seed = kCatalogSeed;
  auto generated =
      dess::MakeSignatureCorpus(corpus_options, system_options.feature_spaces);
  report->Check(generated.ok(), "catalog generation failed");
  if (!generated.ok()) return;
  std::vector<ShapeRecord> catalog, stream;
  for (size_t i = 0; i < generated->size(); ++i) {
    const bool is_stream = static_cast<int>(i % corpus_options.group_size) >=
                           kCatalogPerGroup;
    (is_stream ? stream : catalog).push_back(std::move((*generated)[i]));
  }
  for (size_t i = 0; i < catalog.size(); ++i) {
    catalog[i].id = static_cast<int>(i);  // ids are assigned in insert order
  }

  // Query pools, drawn from the seed: by-id targets, and off-corpus
  // queries made by perturbing a catalog row's HNSW-space vector.
  dess::Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x77697265ull);
  std::vector<PoolQuery> pool;
  for (int i = 0; i < kExactPool; ++i) {
    const int id = static_cast<int>(rng.NextBounded(catalog.size()));
    for (int o = 0; o < dess::kNumFeatureKinds; ++o) {
      PoolQuery q;
      q.shape_id = id;
      q.ordinal = o;
      pool.push_back(std::move(q));
    }
  }
  for (int i = 0; i < kAnnPool; ++i) {
    PoolQuery q;
    q.ann = true;
    const ShapeRecord& source = catalog[rng.NextBounded(catalog.size())];
    q.signature = source.signature;
    for (double& x : q.signature.MutableAt(kAnnOrdinal).values) {
      x += rng.NextGaussian() * kMemberStddev;
    }
    pool.push_back(std::move(q));
  }

  // Set-up: open an empty durable home, ingest the catalog, publish and
  // checkpoint it. Repeated in fresh homes; the last one serves the
  // workload.
  std::vector<double> setup_s, ingest_rate, commit_full_s;
  std::unique_ptr<Dess3System> system;
  std::string home;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    system.reset();
    if (!home.empty()) std::filesystem::remove_all(home);
    home = options.work_dir + "/catalog_home" + std::to_string(r);
    const Clock::time_point start = Clock::now();
    auto opened = Dess3System::Open(home, {}, system_options);
    report->Check(opened.ok(), "opening an empty home failed");
    if (!opened.ok()) return;
    system = std::move(opened).value();
    // The ingest rate is sampled per chunk: a whole catalog takes a
    // sixth of a second, short enough for one stall of the host to set it.
    for (size_t c = 0; c < catalog.size(); c += kIngestChunk) {
      const size_t end = std::min(catalog.size(), c + kIngestChunk);
      const Clock::time_point ingest_start = Clock::now();
      for (size_t i = c; i < end; ++i) {
        auto id = system->Ingest(catalog[i], {});
        report->CountOp("ingest", id.ok() && *id == catalog[i].id);
      }
      ingest_rate.push_back(static_cast<double>(end - c) /
                            SecondsSince(ingest_start));
    }
    const Clock::time_point commit_start = Clock::now();
    auto receipt = system->Commit();
    commit_full_s.push_back(SecondsSince(commit_start));
    report->CountOp("commit", receipt.ok());
    if (!receipt.ok()) return;
    setup_s.push_back(SecondsSince(start));
  }
  auto snapshot_or = system->CurrentSnapshot();
  if (!snapshot_or.ok()) return;
  const std::shared_ptr<const dess::SystemSnapshot> snapshot = *snapshot_or;

  // Timed phase: whole rounds until the phase time is up, after a warm-up.
  // With --trace 1, an untraced half, then a traced half in which every
  // request is also split into layers over the wire.
  std::vector<OpRecord> records;
  std::vector<double> untraced_latency, traced_latency;
  std::vector<std::vector<double>> windows(kWindows);
  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  Split split;
  double scan_points = 0, hnsw_points = 0;
  double traced_exact_ops = 0, traced_ann_ops = 0;
  uint64_t n = 0;
  auto run_op = [&](OpRecord* op) {
    op->pool = PoolEntry(n++);
    const Clock::time_point start = Clock::now();
    auto answer = Ask(*system, pool[op->pool]);
    op->latency = SecondsSince(start);
    report->CountOp("query", answer.ok());
    if (!answer.ok()) return false;
    op->results = std::move(answer->results);
    return true;
  };
  for (int i = 0; i < kWarmupRounds * kRoundOps; ++i) {
    OpRecord warm;
    run_op(&warm);
  }
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = phase == 1;
    std::unique_ptr<dess::Server> server;
    std::unique_ptr<dess::Client> client;
    if (traced) {
      server = std::make_unique<dess::Server>(system.get());
      const dess::Status started = server->Start();
      auto connected = started.ok()
                           ? dess::Client::Connect("127.0.0.1", server->port())
                           : dess::Result<std::unique_ptr<dess::Client>>(
                                 started);
      report->Check(connected.ok(), "server start or connect failed");
      if (!connected.ok()) return;
      client = std::move(connected).value();
    }
    const double scan_before =
        CounterValue("index.linear_scan.points_compared");
    const double hnsw_before = CounterValue("index.hnsw.points_compared");
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < phase_seconds) {
      for (int i = 0; i < kRoundOps; ++i) {
        OpRecord op;
        const double offset = SecondsSince(start);
        if (!run_op(&op)) continue;
        if (traced) {
          traced_latency.push_back(op.latency);
          const PoolQuery& q = pool[op.pool];
          SplitRequest(q, op.results, *client, system->Executor(),
                       *snapshot, &split);
          // The request ran through the engine four times: in process,
          // over the wire, through the executor and directly.
          (q.ann ? traced_ann_ops : traced_exact_ops) += 4;
        } else {
          untraced_latency.push_back(op.latency);
          const int window =
              static_cast<int>(offset / phase_seconds * kWindows);
          if (window < kWindows) windows[window].push_back(op.latency);
        }
        records.push_back(std::move(op));
      }
    }
    if (traced) {
      scan_points =
          CounterValue("index.linear_scan.points_compared") - scan_before;
      hnsw_points = CounterValue("index.hnsw.points_compared") - hnsw_before;
      client.reset();
      server->Stop();
    }
  }

  // Checks: every exact answer equals the brute force over the generated
  // catalog; every HNSW answer is sorted, duplicate-free and exactly
  // re-scored; every recorded answer equals the in-process answer to the
  // same pool query (answers are deterministic for a fixed snapshot).
  std::vector<RowSet> rows;
  for (int o = 0; o <= kAnnOrdinal; ++o) {
    RowSet set;
    for (const ShapeRecord& record : catalog) {
      set.ids.push_back(record.id);
      set.vectors.push_back(&record.signature.At(o).values);
    }
    rows.push_back(std::move(set));
  }
  for (int o = 0; o <= kAnnOrdinal; ++o) {
    for (double w : WeightsOf(*snapshot, o)) {
      report->Check(w == 1.0, "installed weights are not unit weights");
    }
  }
  const auto group_of = [&catalog](int id) {
    return id >= 0 && id < static_cast<int>(catalog.size())
               ? catalog[id].group
               : -2;
  };
  const auto distance_of = [&catalog](int ordinal,
                                      const std::vector<double>& query) {
    return [&catalog, ordinal, query](int id) {
      if (id < 0 || id >= static_cast<int>(catalog.size())) return -1.0;
      return WeightedDistance(query, catalog[id].signature.At(ordinal).values,
                              {});
    };
  };
  // New parts are streamed in batches, each published by a delta commit.
  // The batches are spread over the checks, which read the fixed snapshot
  // and the generated catalog, not the system: the commit times then sample
  // the seconds the checks take rather than one short burst.
  std::vector<double> delta_ms;
  uint64_t last_epoch = 0;
  size_t streamed = 0;
  const size_t num_batches = (stream.size() + kStreamBatch - 1) / kStreamBatch;
  auto stream_batch = [&] {
    const size_t end = std::min(stream.size(), streamed + kStreamBatch);
    for (; streamed < end; ++streamed) {
      auto id = system->Ingest(stream[streamed], {});
      report->CountOp("ingest", id.ok());
    }
    const Clock::time_point start = Clock::now();
    auto receipt = system->Commit({.mode = CommitMode::kDelta});
    delta_ms.push_back(SecondsSince(start) * 1e3);
    report->CountOp("commit", receipt.ok());
    if (receipt.ok()) last_epoch = receipt->epoch;
  };
  std::vector<std::vector<SearchResult>> expected(pool.size());
  double precision = 0, recall = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    while (delta_ms.size() < num_batches &&
           delta_ms.size() * pool.size() <= i * num_batches) {
      stream_batch();
    }
    const PoolQuery& q = pool[i];
    auto answer = q.ann ? snapshot->Query(q.signature, ToRequest(q))
                        : snapshot->QueryById(q.shape_id, ToRequest(q));
    report->Check(answer.ok(), "in-process query failed");
    if (!answer.ok()) continue;
    expected[i] = answer->results;
    const int ordinal = q.ann ? kAnnOrdinal : q.ordinal;
    const std::vector<double>& query =
        q.ann ? q.signature.At(kAnnOrdinal).values
              : catalog[q.shape_id].signature.At(ordinal).values;
    const DistanceOf exact = distance_of(ordinal, query);
    const std::vector<Ranked> truth =
        BruteForceTopK(query, rows[ordinal], {}, 10, q.ann ? -1 : q.shape_id);
    if (q.ann) {
      const std::string why =
          CheckApproximateAnswer(ToRanked(answer->results), exact);
      report->Check(why.empty() && answer->results.size() == 10,
                    "hnsw answer: " + why);
      recall += RecallAtK(ToRanked(answer->results), truth, exact);
    } else {
      const std::string why =
          CheckExactTopK(ToRanked(answer->results), truth, exact);
      report->Check(why.empty(), "exact answer: " + why);
      precision += PrecisionAtK(IdsOf(answer->results), group_of,
                                group_of(q.shape_id), 10);
    }
  }
  for (const OpRecord& op : records) {
    report->Check(op.results == expected[op.pool],
                  "answer differs from the snapshot's answer");
  }
  report->Check(split.agree, "wire, executor and snapshot answer differently");

  // Epilogue: drop the system with the delta commits in the WAL tail, then
  // time recovery with Open(dir).
  while (delta_ms.size() < num_batches) stream_batch();
  const std::vector<size_t> probe_entries = {0, 5, 10, 15, 401, 802,
                                             kExactPool * 4,
                                             kExactPool * 4 + 100};
  std::vector<std::vector<SearchResult>> probe_before;
  for (size_t e : probe_entries) {
    const PoolQuery& q = pool[e];
    auto answer = q.ann ? system->QueryBySignature(q.signature,
                                                        ToRequest(q))
                        : system->QueryByShapeId(q.shape_id,
                                                      ToRequest(q));
    probe_before.push_back(answer.ok() ? answer->results
                                       : std::vector<SearchResult>{});
  }
  const size_t committed = system->db().NumShapes();
  const double bytes_per_record =
      static_cast<double>(DirectoryBytes(home)) /
      static_cast<double>(committed);
  system.reset();
  std::vector<double> recover_s;
  for (int r = 0; r < kRecoverRepetitions; ++r) {
    const Clock::time_point start = Clock::now();
    auto reopened = Dess3System::Open(home, {}, system_options);
    recover_s.push_back(SecondsSince(start));
    report->CountOp("recover", reopened.ok());
    if (!reopened.ok()) continue;
    const Dess3System& recovered = **reopened;
    report->Check(recovered.PublishedEpoch() == last_epoch,
                  "reopened epoch differs from the last acknowledged one");
    report->Check(recovered.db().NumShapes() == committed &&
                      recovered.PendingRecords() == 0,
                  "reopened home lost acknowledged records");
    for (size_t p = 0; p < probe_entries.size(); ++p) {
      const PoolQuery& q = pool[probe_entries[p]];
      auto answer =
          q.ann ? recovered.QueryBySignature(q.signature, ToRequest(q))
                : recovered.QueryByShapeId(q.shape_id, ToRequest(q));
      report->Check(answer.ok() && answer->results == probe_before[p],
                    "probe answers differently after recovery");
      if (!answer.ok()) continue;
      const int ordinal = q.ann ? kAnnOrdinal : q.ordinal;
      const std::vector<double>& query =
          q.ann ? q.signature.At(kAnnOrdinal).values
                : catalog[q.shape_id].signature.At(ordinal).values;
      const dess::ShapeDatabase& db = recovered.db();
      const DistanceOf exact = DistanceIn(db, ordinal, query, {});
      const std::string why =
          q.ann ? CheckApproximateAnswer(ToRanked(answer->results), exact)
                : CheckExactTopK(ToRanked(answer->results),
                                 BruteForceTopK(query, RowsOf(db, ordinal),
                                                {}, 10, q.shape_id),
                                 exact);
      report->Check(why.empty(), "recovered probe: " + why);
    }
  }
  std::filesystem::remove_all(home);

  // Throughput and the 99th percentile are medians over equal windows of
  // the timed phase: a stall of the host in one window moves one window,
  // not the run's figure.
  std::vector<double> window_qps, window_p99;
  for (const std::vector<double>& w : windows) {
    window_qps.push_back(static_cast<double>(w.size()) * kWindows /
                         phase_seconds);
    window_p99.push_back(Quantile(w, 0.99) * 1e3);
  }
  (*values)["setup_s"] = Median(setup_s);
  (*values)["query_qps"] = Median(window_qps);
  (*values)["query_p50_ms"] = Quantile(untraced_latency, 0.50) * 1e3;
  (*values)["query_p99_ms"] = Median(window_p99);
  (*values)["precision_at_10"] = precision / (kExactPool * 4);
  (*values)["ann_recall_at_10"] = recall / kAnnPool;
  (*values)["ingest_records_per_s"] = Median(ingest_rate);
  (*values)["commit_delta_p50_ms"] = Median(delta_ms);
  (*values)["commit_full_s"] = Median(commit_full_s);
  (*values)["recover_s"] = Median(recover_s);
  (*values)["home_bytes_per_record"] = bytes_per_record;
  (*values)["peak_rss_mb"] = PeakRssMb();

  if (options.trace && split.ops > 0) {
    // The in-process request is the snapshot query plus the system's
    // own handling (snapshot acquisition, trace scope); the wire metrics
    // split the same requests sent to the server instead.
    const double n = split.ops;
    const double rt_ms = split.roundtrip * 1e3 / n;
    const double exec_ms = split.executor * 1e3 / n;
    const double engine_ms = split.engine * 1e3 / n;
    const double codec_ms = split.codec * 1e3 / n;
    const double traced_mean_ms = Mean(traced_latency) * 1e3;
    (*values)["search.engine_ms"] = engine_ms;
    (*values)["catalog.unattributed_ms"] = traced_mean_ms - engine_ms;
    (*values)["serve.roundtrip_ms"] = rt_ms;
    (*values)["core.executor_ms"] = exec_ms;
    (*values)["core.executor_wait_ms"] = exec_ms - engine_ms;
    (*values)["wire.codec_us"] = codec_ms * 1e3;
    (*values)["serve.overhead_ms"] = rt_ms - exec_ms - codec_ms;
    (*values)["index.linear_scan.points_compared"] =
        traced_exact_ops > 0 ? scan_points / traced_exact_ops : 0;
    (*values)["index.hnsw.points_compared"] =
        traced_ann_ops > 0 ? hnsw_points / traced_ann_ops : 0;
    (*values)["index.kernel_batches"] = split.kernel_batches / n;
    (*values)["trace.overhead_ms"] =
        traced_mean_ms - Mean(untraced_latency) * 1e3;
    std::printf("  catalog traced mean %.4f ms = engine %.4f + unattributed "
                "%.4f ms; over the wire %.4f ms = engine %.4f + executor "
                "wait %.4f + codec %.4f + serve overhead %.4f ms\n",
                traced_mean_ms, engine_ms, traced_mean_ms - engine_ms, rt_ms,
                engine_ms, exec_ms - engine_ms, codec_ms,
                rt_ms - exec_ms - codec_ms);
  }
}

}  // namespace perfbench
