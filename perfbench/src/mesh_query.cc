// mesh_query: query by example over the paper's 113-shape corpus. One
// closed-loop client submits fresh instances of all 26 part families
// through Dess3System::QueryByMesh. Extraction (normalize, voxelize, thin,
// graph) is most of each request while the index scans only 113 rows, so
// extraction changes show here and index changes should read as no-ops.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/features/extractors.h"
#include "src/features/moments.h"
#include "src/graph/graph_builder.h"
#include "src/modelgen/dataset.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "src/skeleton/thinning.h"
#include "src/voxel/morphology.h"
#include "src/voxel/voxelizer.h"

namespace perfbench {
namespace {

using dess::CommitMode;
using dess::Dess3System;
using dess::FeatureKind;
using dess::QueryRequest;
using dess::SearchResult;
using dess::ShapeSignature;

// The corpus is the paper's database stand-in exactly as the repo's
// experiment binaries build it (bench_common: seed 42, meshing resolution
// 40, voxel resolution 32, unstandardized features). Query instances come
// from a stream the corpus never draws from.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kInstanceSeed = 2004;
constexpr int kMeshResolution = 40;
constexpr int kVoxelResolution = 32;
constexpr int kInstancesPerFamily = 8;
constexpr int kNumPlans = 5;  // top-10 in each canonical space + multistep
constexpr int kSetupRepetitions = 5;
constexpr int kNewPartsPerFamily = 2;
// A delta commit fsyncs the WAL records of the parts it publishes (~0.37 MB
// each, meshes included). Batches of 13 make that a ~5 MB write, whose
// time follows the disk's throughput; a single part's commit followed the
// latency of the shared disk, which moved by a third from run to run.
constexpr size_t kNewPartsPerCommit = 13;
constexpr int kRecoverRepetitions = 3;
constexpr int kProbes = 10;

dess::SystemOptions Options() {
  dess::SystemOptions options;
  options.extraction.voxelization.resolution = kVoxelResolution;
  options.search.standardize = false;
  return options;
}

QueryRequest Plan(int p) {
  if (p < dess::kNumFeatureKinds) {
    return QueryRequest::TopK(static_cast<FeatureKind>(p), 10);
  }
  return QueryRequest::MultiStep(dess::MultiStepPlan::Standard(30, 10));
}

struct QueryMesh {
  int family = 0;
  dess::TriMesh mesh;
};

std::vector<QueryMesh> MakeQueryMeshes(uint64_t seed, Report* report) {
  // Instance dimensions come from a fixed stream, so every run asks about
  // parts of the same make-up (extraction cost differs several-fold from
  // part to part); the seed draws each instance's pose, which the
  // pipeline must normalize away.
  dess::Rng shapes(kInstanceSeed);
  dess::Rng poses(seed * 0x9E3779B97F4A7C15ull + 0x6d657368ull);
  dess::MeshingOptions meshing;
  meshing.resolution = kMeshResolution;
  const auto& families = dess::StandardPartFamilies();
  std::vector<QueryMesh> meshes;
  for (int m = 0; m < kInstancesPerFamily; ++m) {
    for (int f = 0; f < static_cast<int>(families.size()); ++f) {
      dess::Rng shape_rng = shapes.Fork();
      dess::Rng pose_rng = poses.Fork();
      dess::SolidPtr solid = families[f].build(&shape_rng);
      solid = dess::RandomlyPosed(std::move(solid), &pose_rng);
      dess::Result<dess::TriMesh> mesh = dess::MeshSolid(*solid, meshing);
      report->Check(mesh.ok(), "query mesh generation failed");
      if (mesh.ok()) meshes.push_back({f, std::move(mesh).value()});
    }
  }
  return meshes;
}

/// Per-stage wall times (seconds) and work counts of one stage-by-stage
/// extraction re-run.
struct StageTimes {
  double normalize = 0, voxelize = 0, thin = 0, graph = 0, descriptors = 0;
  double solid_voxels = 0, skeleton_voxels = 0, graph_nodes = 0;
};

/// Re-runs the extraction pipeline of ExtractFeatures stage by stage
/// through the layers' public functions, timing each stage. The result
/// must equal ExtractSignature bit for bit.
dess::Result<ShapeSignature> StagedExtract(const dess::TriMesh& mesh,
                                           const dess::ExtractionOptions& ext,
                                           StageTimes* times) {
  Clock::time_point t = Clock::now();
  DESS_ASSIGN_OR_RETURN(dess::NormalizationResult norm,
                        dess::NormalizeMesh(mesh, ext.normalization));
  times->normalize = SecondsSince(t);
  t = Clock::now();
  DESS_ASSIGN_OR_RETURN(dess::VoxelGrid voxels,
                        dess::VoxelizeMesh(norm.mesh, ext.voxelization));
  voxels = dess::KeepLargestComponent(voxels);
  times->voxelize = SecondsSince(t);
  t = Clock::now();
  const dess::VoxelGrid skeleton = dess::ThinToSkeleton(voxels, ext.thinning);
  times->thin = SecondsSince(t);
  t = Clock::now();
  const dess::SkeletalGraph graph =
      dess::BuildSkeletalGraph(skeleton, ext.graph);
  dess::FeatureVector spectral = dess::SpectralFeature(graph);
  times->graph = SecondsSince(t);
  t = Clock::now();
  ShapeSignature signature;
  const dess::Mat3 mu = dess::VoxelSecondMomentMatrix(voxels);
  signature.Mutable(FeatureKind::kMomentInvariants) =
      dess::MomentInvariantsFeature(mu, voxels.SolidVolume());
  signature.Mutable(FeatureKind::kGeometricParams) =
      dess::GeometricParamsFeature(norm);
  signature.Mutable(FeatureKind::kPrincipalMoments) =
      dess::PrincipalMomentsFeature(mu);
  signature.Mutable(FeatureKind::kSpectral) = std::move(spectral);
  times->descriptors = SecondsSince(t);
  times->solid_voxels = static_cast<double>(voxels.CountSet());
  times->skeleton_voxels = static_cast<double>(skeleton.CountSet());
  times->graph_nodes = graph.NumNodes();
  return signature;
}

bool SameSignature(const ShapeSignature& a, const ShapeSignature& b) {
  if (a.NumSpaces() != b.NumSpaces()) return false;
  for (int o = 0; o < a.NumSpaces(); ++o) {
    if (a.At(o).values != b.At(o).values) return false;
  }
  return true;
}

/// The brute-force answer of plan `p` over the snapshot's stored vectors:
/// top-10 in one space, or the two-stage plan (top-30 by moment
/// invariants, re-ranked by geometric parameters, best 10 kept).
std::vector<Ranked> Truth(const dess::SystemSnapshot& snapshot,
                          const std::vector<RowSet>& rows,
                          const ShapeSignature& query, int p) {
  if (p < dess::kNumFeatureKinds) {
    return BruteForceTopK(query.At(p).values, rows[p],
                          WeightsOf(snapshot, p), 10);
  }
  const int first = static_cast<int>(FeatureKind::kMomentInvariants);
  const int second = static_cast<int>(FeatureKind::kGeometricParams);
  const std::vector<Ranked> stage1 = BruteForceTopK(
      query.At(first).values, rows[first], WeightsOf(snapshot, first), 30);
  RowSet candidates;
  for (const Ranked& r : stage1) {
    candidates.ids.push_back(r.id);
    candidates.vectors.push_back(
        &snapshot.db().Get(r.id).value()->signature.At(second).values);
  }
  return BruteForceTopK(query.At(second).values, candidates,
                        WeightsOf(snapshot, second), 10);
}

DistanceOf PlanDistance(const dess::SystemSnapshot& snapshot,
                        const ShapeSignature& query, int p) {
  const int ordinal = p < dess::kNumFeatureKinds
                          ? p
                          : static_cast<int>(FeatureKind::kGeometricParams);
  return DistanceIn(snapshot.db(), ordinal, query.At(ordinal).values,
                    WeightsOf(snapshot, ordinal));
}

struct OpRecord {
  int mesh = 0;
  int plan = 0;
  double latency = 0;
  std::vector<SearchResult> results;
  uint64_t epoch = 0;
};

}  // namespace

void RunMeshQuery(const RunOptions& options, Report* report, Values* values) {
  const dess::SystemOptions system_options = Options();
  const dess::ExtractionOptions& ext = system_options.extraction;
  dess::DatasetOptions dataset_options;
  dataset_options.seed = kCorpusSeed;
  dataset_options.mesh_resolution = kMeshResolution;
  dess::Result<dess::Dataset> dataset =
      dess::BuildStandardDataset(dataset_options);
  report->Check(dataset.ok(), "corpus generation failed");
  if (!dataset.ok()) return;
  const std::vector<QueryMesh> queries =
      MakeQueryMeshes(options.seed, report);
  if (queries.empty()) return;
  const size_t num_families = dess::StandardPartFamilies().size();

  // New parts (fresh instances of every family), taken in and published
  // in batches by delta commits. Every set-up home streams them: the
  // commit times then sample the whole set-up phase, not one second of it.
  std::vector<double> delta_ms;
  auto stream_new_parts = [&](Dess3System* system) {
    uint64_t last_epoch = system->PublishedEpoch();
    const size_t parts = kNewPartsPerFamily * num_families;
    for (size_t b = 0; b < parts; b += kNewPartsPerCommit) {
      for (size_t i = b; i < std::min(parts, b + kNewPartsPerCommit); ++i) {
        auto id = system->IngestMesh(queries[i].mesh, "new_part",
                                     queries[i].family);
        report->CountOp("ingest", id.ok());
      }
      const Clock::time_point start = Clock::now();
      auto receipt = system->Commit({.mode = CommitMode::kDelta});
      delta_ms.push_back(SecondsSince(start) * 1e3);
      report->CountOp("commit", receipt.ok());
      if (!receipt.ok()) continue;
      report->Check(receipt->epoch == last_epoch + 1,
                    "a delta commit did not publish the next epoch");
      last_epoch = receipt->epoch;
    }
    return last_epoch;
  };

  // Set-up: open an empty durable home, ingest the corpus (one extraction
  // thread: a parallel ingest's wall time follows its slowest worker, and
  // so any stall of the host), publish and checkpoint it. Repeated in
  // fresh homes; the last one serves the workload, the others stream the
  // new parts outside the set-up's timing.
  std::vector<double> setup_s, ingest_rate, commit_full_s;
  std::unique_ptr<Dess3System> system;
  std::string home;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    system.reset();
    if (!home.empty()) std::filesystem::remove_all(home);
    home = options.work_dir + "/mesh_query_home" + std::to_string(r);
    const Clock::time_point start = Clock::now();
    auto opened = Dess3System::Open(home, {}, system_options);
    report->Check(opened.ok(), "opening an empty home failed");
    if (!opened.ok()) return;
    system = std::move(opened).value();
    const Clock::time_point ingest_start = Clock::now();
    const dess::Status ingested = system->IngestDataset(
        *dataset, dess::IngestOptions{.num_threads = 1});
    const double ingest_s = SecondsSince(ingest_start);
    for (size_t i = 0; i < dataset->shapes.size(); ++i) {
      report->CountOp("ingest", ingested.ok());
    }
    const Clock::time_point commit_start = Clock::now();
    auto receipt = system->Commit();
    commit_full_s.push_back(SecondsSince(commit_start));
    report->CountOp("commit", receipt.ok());
    if (!ingested.ok() || !receipt.ok()) return;
    setup_s.push_back(SecondsSince(start));
    ingest_rate.push_back(static_cast<double>(dataset->shapes.size()) /
                          ingest_s);
    if (r + 1 < kSetupRepetitions) stream_new_parts(system.get());
  }
  auto snapshot_or = system->CurrentSnapshot();
  if (!snapshot_or.ok()) return;
  const std::shared_ptr<const dess::SystemSnapshot> snapshot = *snapshot_or;

  // Timed phase: whole rounds of one request per family, rotating the
  // family instance and the plan from round to round. A warm-up round runs
  // first. With --trace 1 the first half is untraced and the second half
  // re-runs every request stage by stage after timing it.
  auto run_op = [&](int round, size_t f, OpRecord* op) {
    op->mesh = static_cast<int>(
        (round % kInstancesPerFamily) * num_families + f);
    op->plan = static_cast<int>((f + round) % kNumPlans);
    const Clock::time_point start = Clock::now();
    auto response =
        system->QueryByMesh(queries[op->mesh].mesh, Plan(op->plan));
    op->latency = SecondsSince(start);
    report->CountOp("query", response.ok());
    if (!response.ok()) return false;
    op->results = std::move(response->results);
    op->epoch = response->epoch;
    return true;
  };
  {
    OpRecord warm;
    for (size_t f = 0; f < num_families; ++f) run_op(0, f, &warm);
  }
  std::vector<OpRecord> ops;
  std::vector<double> untraced_latency, traced_latency;
  StageTimes stage_sum;
  double search_s = 0, points_compared = 0;
  size_t traced_ops = 0;
  const double phase_seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  double untraced_elapsed = 0;
  for (int phase = 0; phase < (options.trace ? 2 : 1); ++phase) {
    const bool traced = phase == 1;
    const Clock::time_point start = Clock::now();
    for (int round = 1; SecondsSince(start) < phase_seconds; ++round) {
      for (size_t f = 0; f < num_families; ++f) {
        OpRecord op;
        if (!run_op(round, f, &op)) continue;
        (traced ? traced_latency : untraced_latency).push_back(op.latency);
        if (traced) {
          StageTimes times;
          auto staged = StagedExtract(queries[op.mesh].mesh, ext, &times);
          report->Check(staged.ok(), "staged extraction failed");
          if (!staged.ok()) continue;
          const Clock::time_point search_start = Clock::now();
          auto direct = snapshot->Query(*staged, Plan(op.plan));
          search_s += SecondsSince(search_start);
          report->Check(direct.ok() && direct->results == op.results,
                        "staged re-run answers differently");
          if (direct.ok()) {
            points_compared +=
                static_cast<double>(direct->stats.points_compared);
          }
          stage_sum.normalize += times.normalize;
          stage_sum.voxelize += times.voxelize;
          stage_sum.thin += times.thin;
          stage_sum.graph += times.graph;
          stage_sum.descriptors += times.descriptors;
          stage_sum.solid_voxels += times.solid_voxels;
          stage_sum.skeleton_voxels += times.skeleton_voxels;
          stage_sum.graph_nodes += times.graph_nodes;
          ++traced_ops;
        }
        ops.push_back(std::move(op));
      }
    }
    if (!traced) untraced_elapsed = SecondsSince(start);
  }

  // Checks. Expected answers for every (query mesh, plan) pair come from
  // QueryBySignature(ExtractSignature(mesh)); the stage-by-stage re-run
  // must reproduce each signature bit for bit; every expected answer must
  // match the brute force over the snapshot's stored vectors; and every
  // recorded answer must equal its expected answer.
  std::vector<RowSet> rows;
  for (int o = 0; o < dess::kNumFeatureKinds; ++o) {
    rows.push_back(RowsOf(snapshot->db(), o));
  }
  for (int o = 0; o < dess::kNumFeatureKinds; ++o) {
    for (double w : WeightsOf(*snapshot, o)) {
      report->Check(w == 1.0, "installed weights are not unit weights");
    }
  }
  const auto group_of = [&snapshot](int id) {
    auto record = snapshot->db().Get(id);
    return record.ok() ? (*record)->group : dess::kNoiseGroup;
  };
  std::vector<ShapeSignature> signatures(queries.size());
  std::vector<std::vector<std::vector<SearchResult>>> expected(
      queries.size(), std::vector<std::vector<SearchResult>>(kNumPlans));
  double precision = 0, recall = 0;
  int scored = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto signature = dess::ExtractSignature(queries[i].mesh, ext);
    report->Check(signature.ok(), "ExtractSignature failed");
    if (!signature.ok()) continue;
    signatures[i] = *signature;
    StageTimes unused;
    auto staged = StagedExtract(queries[i].mesh, ext, &unused);
    report->Check(staged.ok() && SameSignature(*staged, *signature),
                  "stage-by-stage extraction differs from ExtractSignature");
    for (int p = 0; p < kNumPlans; ++p) {
      auto answer = system->QueryBySignature(*signature, Plan(p));
      report->Check(answer.ok(), "QueryBySignature failed");
      if (!answer.ok()) continue;
      expected[i][p] = answer->results;
      const std::vector<Ranked> truth =
          Truth(*snapshot, rows, *signature, p);
      const DistanceOf distance_of = PlanDistance(*snapshot, *signature, p);
      const std::string why =
          CheckExactTopK(ToRanked(answer->results), truth, distance_of);
      report->Check(why.empty(), "mesh_query brute force: " + why);
      recall += RecallAtK(ToRanked(answer->results), truth, distance_of);
      precision += PrecisionAtK(IdsOf(answer->results), group_of,
                                queries[i].family, 10);
      ++scored;
    }
  }
  for (const OpRecord& op : ops) {
    report->Check(op.epoch == snapshot->epoch(),
                  "answer from an unexpected epoch");
    report->Check(op.results == expected[op.mesh][op.plan],
                  "QueryByMesh differs from QueryBySignature(Extract)");
  }

  // Epilogue: take in the new parts; then drop the system with those
  // delta commits in the WAL tail and time recovery with Open(dir).
  const uint64_t last_epoch = stream_new_parts(system.get());
  std::vector<std::vector<SearchResult>> probe_before(kProbes);
  for (int i = 0; i < kProbes; ++i) {
    auto answer = system->QueryBySignature(signatures[i], Plan(i % kNumPlans));
    if (answer.ok()) probe_before[i] = answer->results;
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
    auto reopened_snapshot = recovered.CurrentSnapshot();
    if (!reopened_snapshot.ok()) continue;
    std::vector<RowSet> reopened_rows;
    for (int o = 0; o < dess::kNumFeatureKinds; ++o) {
      reopened_rows.push_back(RowsOf((*reopened_snapshot)->db(), o));
    }
    for (int i = 0; i < kProbes; ++i) {
      const int p = i % kNumPlans;
      auto answer = recovered.QueryBySignature(signatures[i], Plan(p));
      report->Check(answer.ok() && answer->results == probe_before[i],
                    "probe answers differently after recovery");
      if (!answer.ok()) continue;
      const std::string why = CheckExactTopK(
          ToRanked(answer->results),
          Truth(**reopened_snapshot, reopened_rows, signatures[i], p),
          PlanDistance(**reopened_snapshot, signatures[i], p));
      report->Check(why.empty(), "recovered probe brute force: " + why);
    }
  }
  std::filesystem::remove_all(home);

  (*values)["setup_s"] = Median(setup_s);
  (*values)["query_qps"] =
      static_cast<double>(untraced_latency.size()) / untraced_elapsed;
  (*values)["query_p50_ms"] = Quantile(untraced_latency, 0.50) * 1e3;
  (*values)["query_p99_ms"] = Quantile(untraced_latency, 0.99) * 1e3;
  (*values)["precision_at_10"] = scored > 0 ? precision / scored : 0;
  (*values)["ann_recall_at_10"] = scored > 0 ? recall / scored : 0;
  (*values)["ingest_records_per_s"] = Median(ingest_rate);
  (*values)["commit_delta_p50_ms"] = Median(delta_ms);
  (*values)["commit_full_s"] = Median(commit_full_s);
  (*values)["recover_s"] = Median(recover_s);
  (*values)["home_bytes_per_record"] = bytes_per_record;
  (*values)["peak_rss_mb"] = PeakRssMb();

  if (traced_ops > 0) {
    const double n = static_cast<double>(traced_ops);
    const double traced_mean_ms = Mean(traced_latency) * 1e3;
    const double stages_ms =
        (stage_sum.normalize + stage_sum.voxelize + stage_sum.thin +
         stage_sum.graph + stage_sum.descriptors + search_s) *
        1e3 / n;
    (*values)["features.normalize_ms"] = stage_sum.normalize * 1e3 / n;
    (*values)["voxel.voxelize_ms"] = stage_sum.voxelize * 1e3 / n;
    (*values)["skeleton.thin_ms"] = stage_sum.thin * 1e3 / n;
    (*values)["graph.build_ms"] = stage_sum.graph * 1e3 / n;
    (*values)["features.descriptors_ms"] = stage_sum.descriptors * 1e3 / n;
    (*values)["search.query_ms"] = search_s * 1e3 / n;
    (*values)["mesh_query.unattributed_ms"] = traced_mean_ms - stages_ms;
    (*values)["voxel.solid_voxels"] = stage_sum.solid_voxels / n;
    (*values)["skeleton.voxels"] = stage_sum.skeleton_voxels / n;
    (*values)["graph.nodes"] = stage_sum.graph_nodes / n;
    (*values)["index.points_compared"] = points_compared / n;
    (*values)["trace.overhead_ms"] =
        traced_mean_ms - Mean(untraced_latency) * 1e3;
    std::printf("  mesh_query traced mean %.4f ms = stages %.4f ms + "
                "unattributed %.4f ms\n",
                traced_mean_ms, stages_ms, traced_mean_ms - stages_ms);
  }
}

}  // namespace perfbench
