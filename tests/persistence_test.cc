// Round-trip tests of the snapshot persistence layer: a committed system
// is saved as a versioned directory and reopened cold, and the reopened
// system must answer every query mode bit-identically at the saved epoch.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/metrics.h"
#include "src/core/persistence.h"
#include "src/core/system.h"
#include "src/db/serialization.h"
#include "src/index/index_backend.h"
#include "tests/test_util.h"

namespace dess {
namespace {

namespace fs = std::filesystem;
using testing_util::WriteSnapshot;

/// Rewrites the current-version snapshot in `dir` as an older writer left
/// it: version 2 has no backend ids and no graph sections (the files go
/// too), version 1 has no feature-space table either. The manifest's
/// trailing CRC is re-sealed, so the result is a valid older snapshot.
void RewriteManifestAsVersion(const std::string& dir, uint32_t version) {
  const fs::path path = fs::path(dir) / kSnapshotManifestFile;
  std::vector<uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), sizeof(uint32_t));
  ByteReader r(bytes.data(), bytes.size() - sizeof(uint32_t));
  ByteWriter w;
  uint32_t magic = 0, current = 0, flags = 0, num_spaces = 0;
  uint64_t epoch = 0, num_shapes = 0;
  ASSERT_TRUE(r.ReadU32(&magic) && r.ReadU32(&current) &&
              r.ReadU64(&epoch) && r.ReadU32(&flags) &&
              r.ReadU64(&num_shapes) && r.ReadU32(&num_spaces));
  ASSERT_EQ(current, kSnapshotFormatVersion);
  w.WriteU32(magic);
  w.WriteU32(version);
  w.WriteU64(epoch);
  w.WriteU32(flags);
  w.WriteU64(num_shapes);
  if (version >= 2) w.WriteU32(num_spaces);
  for (uint32_t i = 0; i < num_spaces; ++i) {
    std::string id, backend;
    uint32_t dim = 0;
    ASSERT_TRUE(r.ReadString(&id) && r.ReadU32(&dim) &&
                r.ReadString(&backend));
    if (version >= 2) {
      w.WriteString(id);
      w.WriteU32(dim);
    }
  }
  uint32_t num_sections = 0;
  ASSERT_TRUE(r.ReadU32(&num_sections));
  ByteWriter sections;
  uint32_t kept = 0;
  for (uint32_t i = 0; i < num_sections; ++i) {
    std::string file;
    uint64_t size = 0;
    uint32_t crc = 0;
    ASSERT_TRUE(r.ReadString(&file) && r.ReadU64(&size) && r.ReadU32(&crc));
    if (file.rfind(kSnapshotGraphPrefix, 0) == 0) {
      fs::remove(fs::path(dir) / file);
      continue;
    }
    sections.WriteString(file);
    sections.WriteU64(size);
    sections.WriteU32(crc);
    ++kept;
  }
  ASSERT_TRUE(r.AtEnd());
  w.WriteU32(kept);
  w.WriteBytes(sections.bytes().data(), sections.bytes().size());
  const uint32_t seal = Crc32c(w.bytes().data(), w.bytes().size());
  w.WriteU32(seal);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.bytes().size()));
  ASSERT_TRUE(out.good());
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dess_persist_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(4, 4, 3);
    for (const ShapeRecord& rec : db.records()) {
      ASSERT_TRUE(system_.Ingest(rec).ok());
    }
    auto receipt = system_.Commit();
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    epoch_ = receipt->epoch;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string SnapDir(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void ExpectSameAnswers(const QueryResponse& a,
                                const QueryResponse& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_TRUE(a.results[i] == b.results[i])
          << "result " << i << ": (" << a.results[i].id << ", "
          << a.results[i].distance << ") vs (" << b.results[i].id << ", "
          << b.results[i].distance << ")";
    }
  }

  fs::path dir_;
  Dess3System system_;
  uint64_t epoch_ = 0;
};

TEST_F(PersistenceTest, CommitReturnsTheEpochItPublished) {
  EXPECT_EQ(epoch_, 1u);
  EXPECT_EQ(system_.PublishedEpoch(), epoch_);
  ShapeRecord extra;
  extra.name = "late";
  for (FeatureKind kind : AllFeatureKinds()) {
    FeatureVector& fv = extra.signature.Mutable(kind);
    fv.kind = kind;
    fv.values.assign(FeatureDim(kind), 0.25);
  }
  ASSERT_TRUE(system_.Ingest(extra).ok());
  auto next = system_.Commit();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->epoch, epoch_ + 1);
  EXPECT_EQ(system_.PublishedEpoch(), epoch_ + 1);
}

TEST_F(PersistenceTest, SaveBeforeCommitIsFailedPrecondition) {
  Dess3System fresh;
  EXPECT_EQ(WriteSnapshot(fresh, SnapDir("none")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, ReopenedSystemAnswersTopKBitIdentically) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->PublishedEpoch(), epoch_);
  EXPECT_EQ((*reopened)->db().NumShapes(), system_.db().NumShapes());
  for (FeatureKind kind : AllFeatureKinds()) {
    for (int query_id : {0, 5, 11}) {
      const QueryRequest request = QueryRequest::TopK(kind, 6);
      auto original = system_.QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok() && restored.ok())
          << FeatureKindName(kind) << " id " << query_id;
      EXPECT_EQ(restored->epoch, epoch_);
      ExpectSameAnswers(*original, *restored);
    }
  }
}

TEST_F(PersistenceTest, ThresholdAndMultiStepSurviveTheRoundTrip) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const QueryRequest threshold =
      QueryRequest::Threshold(FeatureKind::kGeometricParams, 0.6);
  const QueryRequest multistep =
      QueryRequest::MultiStep(MultiStepPlan::Standard(10, 5));
  for (const QueryRequest& request : {threshold, multistep}) {
    for (int query_id : {1, 8}) {
      auto original = system_.QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok() && restored.ok());
      ExpectSameAnswers(*original, *restored);
    }
  }
}

TEST_F(PersistenceTest, ExternalSignatureQueriesMatchAfterReopen) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // A signature the database has never seen: the snapshot's similarity
  // spaces, not the records, decide its distances.
  auto probe = system_.db().Get(3);
  ASSERT_TRUE(probe.ok());
  ShapeSignature signature = (*probe)->signature;
  signature.Mutable(FeatureKind::kSpectral).values[0] += 0.125;
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kSpectral, 4);
  auto original = system_.QueryBySignature(signature, request);
  auto restored = (*reopened)->QueryBySignature(signature, request);
  ASSERT_TRUE(original.ok() && restored.ok());
  ExpectSameAnswers(*original, *restored);
}

TEST_F(PersistenceTest, EagerOpenMatchesLazyOpen) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  OpenOptions eager;
  eager.read_all = true;
  auto lazy = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  auto read_all = Dess3System::OpenFromSnapshot(SnapDir("snap"), eager);
  ASSERT_TRUE(lazy.ok() && read_all.ok());
  for (FeatureKind kind : AllFeatureKinds()) {
    const QueryRequest request = QueryRequest::TopK(kind, 8);
    auto a = (*lazy)->QueryByShapeId(2, request);
    auto b = (*read_all)->QueryByShapeId(2, request);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameAnswers(*a, *b);
  }
}

TEST_F(PersistenceTest, HierarchiesSurviveTheRoundTrip) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (FeatureKind kind : AllFeatureKinds()) {
    auto original = system_.Hierarchy(kind);
    auto restored = (*reopened)->Hierarchy(kind);
    ASSERT_TRUE(original.ok() && restored.ok());
    EXPECT_EQ((*original)->SubtreeSize(), (*restored)->SubtreeSize());
    EXPECT_EQ((*original)->Depth(), (*restored)->Depth());
    EXPECT_EQ((*original)->members, (*restored)->members);
    EXPECT_EQ((*original)->centroid, (*restored)->centroid);
  }
}

TEST_F(PersistenceTest, IngestAndCommitContinueFromTheSavedEpoch) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->IsCommitted());
  ShapeRecord extra;
  extra.name = "post-reopen";
  for (FeatureKind kind : AllFeatureKinds()) {
    FeatureVector& fv = extra.signature.Mutable(kind);
    fv.kind = kind;
    fv.values.assign(FeatureDim(kind), -0.5);
  }
  auto id = (*reopened)->Ingest(extra);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, static_cast<int>(system_.db().NumShapes()));
  auto next = (*reopened)->Commit();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->epoch, epoch_ + 1);
}

TEST_F(PersistenceTest, MeshlessSnapshotStillServesEveryQueryPath) {
  SaveOptions save;
  save.include_meshes = false;
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("lean"), save).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("lean"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rec = (*reopened)->db().Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->name, "g0_m0");
  EXPECT_EQ((*rec)->mesh.NumVertices(), 0u);
  auto response = (*reopened)->QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->results.size(), 5u);
}

TEST_F(PersistenceTest, SavingOverAnExistingSnapshotNeedsOverwrite) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  EXPECT_EQ(WriteSnapshot(system_, SnapDir("snap")).code(),
            StatusCode::kAlreadyExists);
  SaveOptions replace;
  replace.overwrite = true;
  EXPECT_TRUE(WriteSnapshot(system_, SnapDir("snap"), replace).ok());
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"));
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST_F(PersistenceTest, OpeningANonSnapshotIsNotFound) {
  EXPECT_EQ(Dess3System::OpenFromSnapshot(SnapDir("missing")).status().code(),
            StatusCode::kNotFound);
  fs::create_directories(dir_ / "empty");
  EXPECT_EQ(Dess3System::OpenFromSnapshot(SnapDir("empty")).status().code(),
            StatusCode::kNotFound);
}

// --- Registry-aware persistence -------------------------------------------
//
// The manifest's space table (format v2) makes a snapshot self-describing:
// a snapshot round-trips through any registry that serves the same spaces,
// and registry/snapshot disagreement is a deployment-configuration error —
// FailedPrecondition — never DataLoss (the bytes are fine).

namespace {

constexpr char kSynthId[] = "synth";
constexpr int kSynthDim = 6;

std::unique_ptr<Dess3System> MakeExtendedSystem() {
  SystemOptions options;
  options.hierarchy.max_leaf_size = 4;
  options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{kSynthId, kSynthDim}});
  auto system = std::make_unique<Dess3System>(options);
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(
      4, 4, 3, /*seed=*/123, 0.05, 1.0, {{kSynthId, kSynthDim}});
  for (const ShapeRecord& rec : db.records()) {
    EXPECT_TRUE(system->Ingest(rec).ok());
  }
  return system;
}

}  // namespace

TEST_F(PersistenceTest, ExtendedRegistryRoundTripsThroughSnapshot) {
  auto extended = MakeExtendedSystem();
  ASSERT_TRUE(extended->Commit().ok());
  ASSERT_TRUE(WriteSnapshot(*extended, SnapDir("ext")).ok());

  SystemOptions reopen_options;
  reopen_options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{kSynthId, kSynthDim}});
  auto reopened =
      Dess3System::OpenFromSnapshot(SnapDir("ext"), {}, reopen_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  // The registered fifth space answers identically after the round trip,
  // in both one-shot modes, alongside a canonical space.
  const QueryRequest by_id = QueryRequest::TopK(std::string(kSynthId), 6);
  const QueryRequest floor =
      QueryRequest::Threshold(std::string(kSynthId), 0.5);
  const QueryRequest canonical =
      QueryRequest::TopK(FeatureKind::kSpectral, 6);
  for (const QueryRequest& request : {by_id, floor, canonical}) {
    for (int query_id : {0, 5, 11}) {
      auto original = extended->QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok()) << original.status().ToString();
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ExpectSameAnswers(*original, *restored);
    }
  }

  // The extra space's browsing hierarchy was persisted and reopened too.
  auto original_h = extended->Hierarchy(std::string(kSynthId));
  auto restored_h = (*reopened)->Hierarchy(std::string(kSynthId));
  ASSERT_TRUE(original_h.ok() && restored_h.ok());
  EXPECT_EQ((*original_h)->SubtreeSize(), (*restored_h)->SubtreeSize());
  EXPECT_EQ((*original_h)->members, (*restored_h)->members);
}

TEST_F(PersistenceTest, RegistryMismatchIsFailedPreconditionNotDataLoss) {
  // Extended snapshot opened by a canonical process: the canonical process
  // cannot serve the fifth space, so the open is refused up front.
  auto extended = MakeExtendedSystem();
  ASSERT_TRUE(extended->Commit().ok());
  ASSERT_TRUE(WriteSnapshot(*extended, SnapDir("ext")).ok());
  auto canonical_open = Dess3System::OpenFromSnapshot(SnapDir("ext"));
  ASSERT_FALSE(canonical_open.ok());
  EXPECT_EQ(canonical_open.status().code(), StatusCode::kFailedPrecondition);

  // Canonical snapshot opened by an extended process: same refusal, the
  // snapshot has no data for the fifth space.
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("canon")).ok());
  SystemOptions extended_options;
  extended_options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{kSynthId, kSynthDim}});
  auto extended_open =
      Dess3System::OpenFromSnapshot(SnapDir("canon"), {}, extended_options);
  ASSERT_FALSE(extended_open.ok());
  EXPECT_EQ(extended_open.status().code(), StatusCode::kFailedPrecondition);

  // A registry with the right count but a different id is also refused.
  SystemOptions renamed_options;
  renamed_options.feature_spaces =
      testing_util::MakeSyntheticRegistry({{"other_space", kSynthDim}});
  auto renamed_open =
      Dess3System::OpenFromSnapshot(SnapDir("ext"), {}, renamed_options);
  ASSERT_FALSE(renamed_open.ok());
  EXPECT_EQ(renamed_open.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, FormatVersionOneRoundTripsForTheCanonicalFour) {
  // v1 is the pre-registry format: snapshots older builds wrote for the
  // canonical four still open in this build.
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("v1")).ok());
  ASSERT_NO_FATAL_FAILURE(RewriteManifestAsVersion(SnapDir("v1"), 1));
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("v1"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (FeatureKind kind : AllFeatureKinds()) {
    const QueryRequest request = QueryRequest::TopK(kind, 6);
    auto original = system_.QueryByShapeId(2, request);
    auto restored = (*reopened)->QueryByShapeId(2, request);
    ASSERT_TRUE(original.ok() && restored.ok());
    ExpectSameAnswers(*original, *restored);
  }
}

// --- Graph sections (format v3) -------------------------------------------
//
// A space served by an approximate backend persists its graph topology as
// an optional manifest section. Graph sections are pure accelerators: a
// reopened system answers bit-identically whether the graph was restored
// from its section or rebuilt from the packed rows (the build is
// deterministic), so older snapshots and stripped sections stay readable.

namespace {

std::unique_ptr<Dess3System> MakeHnswSystem() {
  SystemOptions options;
  options.hierarchy.max_leaf_size = 4;
  options.feature_spaces = testing_util::MakeSyntheticRegistry(
      {{kSynthId, kSynthDim, kHnswBackendId}});
  auto system = std::make_unique<Dess3System>(options);
  ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(
      4, 4, 3, /*seed=*/123, 0.05, 1.0, {{kSynthId, kSynthDim}});
  for (const ShapeRecord& rec : db.records()) {
    EXPECT_TRUE(system->Ingest(rec).ok());
  }
  return system;
}

Result<std::unique_ptr<Dess3System>> OpenHnswSnapshot(
    const std::string& dir) {
  SystemOptions options;
  options.feature_spaces = testing_util::MakeSyntheticRegistry(
      {{kSynthId, kSynthDim, kHnswBackendId}});
  return Dess3System::OpenFromSnapshot(dir, {}, options);
}

uint64_t GlobalCounter(const std::string& name) {
  for (const auto& counter : MetricsRegistry::Global()->Snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

}  // namespace

TEST_F(PersistenceTest, HnswGraphSectionRoundTripsBitIdentically) {
  auto hnsw = MakeHnswSystem();
  ASSERT_TRUE(hnsw->Commit().ok());
  ASSERT_TRUE(WriteSnapshot(*hnsw, SnapDir("v3")).ok());

  // The v3 snapshot carries the graph topology of the hnsw-pinned space
  // (and only that space — exact backends rebuild from the packed rows).
  EXPECT_TRUE(fs::exists(fs::path(SnapDir("v3")) /
                         SnapshotGraphFile(kSynthId)));
  EXPECT_FALSE(fs::exists(fs::path(SnapDir("v3")) /
                          SnapshotGraphFile("moment_invariants")));

  MetricsRegistry::Global()->Reset();
  auto reopened = OpenHnswSnapshot(SnapDir("v3"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(GlobalCounter("persist.graphs_restored"), 1u);
  EXPECT_EQ(GlobalCounter("persist.graphs_rebuilt"), 0u);

  const QueryRequest topk = QueryRequest::TopK(std::string(kSynthId), 8);
  const QueryRequest floor =
      QueryRequest::Threshold(std::string(kSynthId), 0.5);
  for (const QueryRequest& request : {topk, floor}) {
    for (int query_id : {0, 5, 11}) {
      auto original = hnsw->QueryByShapeId(query_id, request);
      auto restored = (*reopened)->QueryByShapeId(query_id, request);
      ASSERT_TRUE(original.ok()) << original.status().ToString();
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ExpectSameAnswers(*original, *restored);
    }
  }
}

TEST_F(PersistenceTest, OlderFormatSnapshotRebuildsGraphOnOpen) {
  // A v2 writer predates graph sections: the open falls back to a
  // deterministic rebuild from the packed rows — same answers, version
  // skew never surfaces as an error.
  auto hnsw = MakeHnswSystem();
  ASSERT_TRUE(hnsw->Commit().ok());
  ASSERT_TRUE(WriteSnapshot(*hnsw, SnapDir("v2")).ok());
  ASSERT_NO_FATAL_FAILURE(RewriteManifestAsVersion(SnapDir("v2"), 2));
  EXPECT_FALSE(fs::exists(fs::path(SnapDir("v2")) /
                          SnapshotGraphFile(kSynthId)));

  MetricsRegistry::Global()->Reset();
  auto reopened = OpenHnswSnapshot(SnapDir("v2"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GE(GlobalCounter("persist.graphs_rebuilt"), 1u);
  EXPECT_EQ(GlobalCounter("persist.graphs_restored"), 0u);

  const QueryRequest topk = QueryRequest::TopK(std::string(kSynthId), 8);
  for (int query_id : {0, 5, 11}) {
    auto original = hnsw->QueryByShapeId(query_id, topk);
    auto restored = (*reopened)->QueryByShapeId(query_id, topk);
    ASSERT_TRUE(original.ok() && restored.ok());
    ExpectSameAnswers(*original, *restored);
  }
}

TEST_F(PersistenceTest, StrippedGraphSectionFallsBackToRebuild) {
  // Deleting the graph section from a v3 snapshot must not brick it: the
  // manifest entry is optional, so the opener rebuilds and answers
  // identically. (Checksum verification is skipped because the deliberate
  // strip would otherwise read as corruption.)
  auto hnsw = MakeHnswSystem();
  ASSERT_TRUE(hnsw->Commit().ok());
  ASSERT_TRUE(WriteSnapshot(*hnsw, SnapDir("strip")).ok());
  fs::remove(fs::path(SnapDir("strip")) / SnapshotGraphFile(kSynthId));

  SystemOptions options;
  options.feature_spaces = testing_util::MakeSyntheticRegistry(
      {{kSynthId, kSynthDim, kHnswBackendId}});
  OpenOptions trusting;
  trusting.verify_checksums = false;
  auto reopened =
      Dess3System::OpenFromSnapshot(SnapDir("strip"), trusting, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  const QueryRequest topk = QueryRequest::TopK(std::string(kSynthId), 8);
  auto original = hnsw->QueryByShapeId(3, topk);
  auto restored = (*reopened)->QueryByShapeId(3, topk);
  ASSERT_TRUE(original.ok() && restored.ok());
  ExpectSameAnswers(*original, *restored);
}

TEST_F(PersistenceTest, ReopenedHomeServesTheConfiguredBackend) {
  // A home configured for linear scans keeps serving linear scans after a
  // restart: the snapshot's packed R-tree files serve `rtree` spaces only.
  SystemOptions options;
  options.search.index_backend = kLinearScanBackendId;
  const std::string home = SnapDir("home");
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 6);
  std::vector<int> query_ids;
  std::vector<QueryResponse> before;
  {
    auto system = Dess3System::Open(home, {}, options);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    for (const ShapeRecord& rec : system_.db().records()) {
      auto id = (*system)->Ingest(rec, {});
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      if (query_ids.size() < 3) query_ids.push_back(*id);
    }
    ASSERT_TRUE((*system)->Commit().ok());
    for (int id : query_ids) {
      auto response = (*system)->QueryByShapeId(id, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      before.push_back(*response);
    }
  }

  auto reopened = Dess3System::Open(home, {}, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto snapshot = (*reopened)->CurrentSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const SearchEngine& engine = (*snapshot)->engine();
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    EXPECT_EQ(engine.BackendIdAt(ordinal), kLinearScanBackendId);
  }

  MetricsRegistry::Global()->Reset();
  for (size_t i = 0; i < query_ids.size(); ++i) {
    auto restored = (*reopened)->QueryByShapeId(query_ids[i], request);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameAnswers(before[i], *restored);
  }
  EXPECT_EQ(GlobalCounter("index.linear_scan.queries"), query_ids.size());
}

TEST_F(PersistenceTest, SkippingChecksumVerificationStillRoundTrips) {
  ASSERT_TRUE(WriteSnapshot(system_, SnapDir("snap")).ok());
  OpenOptions trusting;
  trusting.verify_checksums = false;
  auto reopened = Dess3System::OpenFromSnapshot(SnapDir("snap"), trusting);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto original = system_.QueryByShapeId(
      7, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 5));
  auto restored = (*reopened)->QueryByShapeId(
      7, QueryRequest::TopK(FeatureKind::kPrincipalMoments, 5));
  ASSERT_TRUE(original.ok() && restored.ok());
  ExpectSameAnswers(*original, *restored);
}

// --- The durable home's checkpoint ----------------------------------------

TEST_F(PersistenceTest, CheckpointInterruptedMidReplaceLosesNothing) {
  // A full commit on a home replaces <home>/snapshot by renaming the old
  // checkpoint to snapshot.old and the staged snapshot.tmp into place, and
  // only then truncates the WAL. A process that dies between the two
  // renames leaves no snapshot/, the complete snapshot.old/, the staging
  // directory, and the WAL written since snapshot.old. Reopening must serve
  // every acknowledged record, with the answers given before the crash.
  const std::string home = SnapDir("home");
  const fs::path snapshot = fs::path(home) / "snapshot";
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kGeometricParams, 6);
  const std::vector<int> query_ids = {0, 5, 11, 17};
  std::vector<QueryResponse> before;
  uint64_t epoch = 0;
  {
    auto system = Dess3System::Open(home);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    const size_t half = system_.db().NumShapes() / 2;
    size_t ingested = 0;
    for (const ShapeRecord& rec : system_.db().records()) {
      ASSERT_TRUE((*system)->Ingest(rec).ok());
      if (++ingested == half) {
        ASSERT_TRUE((*system)->Commit().ok());
      }
    }
    auto delta = (*system)->Commit({.mode = CommitMode::kDelta});
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    epoch = delta->epoch;
    for (int id : query_ids) {
      auto response = (*system)->QueryByShapeId(id, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      before.push_back(*response);
    }
  }
  fs::path retired = snapshot;
  retired += ".old";
  fs::path staging = snapshot;
  staging += ".tmp";
  fs::rename(snapshot, retired);
  fs::create_directories(staging);
  std::ofstream(staging / kSnapshotRecordsFile) << "half-written";

  auto reopened = Dess3System::Open(home);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->db().NumShapes(), system_.db().NumShapes());
  EXPECT_TRUE((*reopened)->IsCommitted());
  EXPECT_EQ((*reopened)->PublishedEpoch(), epoch);
  for (size_t i = 0; i < query_ids.size(); ++i) {
    auto restored = (*reopened)->QueryByShapeId(query_ids[i], request);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameAnswers(before[i], *restored);
  }
  EXPECT_TRUE(fs::exists(snapshot / kSnapshotManifestFile));
  EXPECT_FALSE(fs::exists(retired));

  // The next checkpoint replaces the restored one and leaves no debris.
  ASSERT_TRUE((*reopened)->Commit().ok());
  EXPECT_TRUE(fs::exists(snapshot / kSnapshotManifestFile));
  EXPECT_FALSE(fs::exists(retired));
  EXPECT_FALSE(fs::exists(staging));
}

TEST_F(PersistenceTest, PackedRTreeIsWrittenOnlyForRTreeSpaces) {
  // A linear_scan home packs no R-tree files, since its own reopen never
  // reads them. Reopened lazily under an `rtree` configuration, it builds
  // the R-trees from the packed rows and answers identically.
  SystemOptions scan;
  scan.search.index_backend = kLinearScanBackendId;
  const std::string home = SnapDir("scan_home");
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kMomentInvariants, 6);
  const std::vector<int> query_ids = {1, 8, 14};
  std::vector<QueryResponse> before;
  {
    auto system = Dess3System::Open(home, {}, scan);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    for (const ShapeRecord& rec : system_.db().records()) {
      ASSERT_TRUE((*system)->Ingest(rec).ok());
    }
    ASSERT_TRUE((*system)->Commit().ok());
    for (int id : query_ids) {
      auto response = (*system)->QueryByShapeId(id, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      before.push_back(*response);
    }
  }
  for (const auto& entry :
       fs::directory_iterator(fs::path(home) / "snapshot")) {
    EXPECT_NE(entry.path().extension(), kSnapshotIndexSuffix)
        << entry.path();
  }

  auto reopened = Dess3System::Open(home);  // `rtree`, lazy
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto served = (*reopened)->CurrentSnapshot();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  for (int ordinal = 0; ordinal < (*served)->engine().NumSpaces(); ++ordinal) {
    EXPECT_EQ((*served)->engine().BackendIdAt(ordinal), kRTreeBackendId);
  }
  for (size_t i = 0; i < query_ids.size(); ++i) {
    auto restored = (*reopened)->QueryByShapeId(query_ids[i], request);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameAnswers(before[i], *restored);
  }
}

}  // namespace
}  // namespace dess
