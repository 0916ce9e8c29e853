// Corruption-injection tests over a snapshot directory. Below, the
// records section is truncated, bit-flipped and padded at many offsets and
// the snapshot reopened with checksum verification off, so the damaged
// bytes reach the section parser instead of being stopped by the manifest
// CRCs (the trusted-restart mode of OpenOptions::verify_checksums). Every
// open must either succeed (a flip may land in a don't-care byte or produce
// an equally valid file) or fail with DataLoss — never crash, hang, or size
// an allocation by a corrupt count. Further down, SnapshotFuzzTest damages
// whole sections with verification on.

#include <gtest/gtest.h>

#include <filesystem>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "src/common/crc32c.h"
#include "src/common/rng.h"
#include "src/core/persistence.h"
#include "src/core/system.h"
#include "src/db/shape_database.h"
#include "tests/test_util.h"

namespace dess {
namespace {

class SerializationFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dess_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    db_ = testing_util::BuildSyntheticFeatureDb(3, 3, 2);
    Dess3System system;
    for (const ShapeRecord& rec : db_.records()) {
      ASSERT_TRUE(system.Ingest(rec).ok());
    }
    ASSERT_TRUE(system.Commit().ok());
    snapshot_ = dir_ / "snapshot";
    ASSERT_TRUE(testing_util::WriteSnapshot(system, snapshot_.string()).ok());
    std::ifstream in(snapshot_ / kSnapshotRecordsFile, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 100u);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Replaces the snapshot's records section with `data` and reopens the
  /// snapshot without verifying section checksums.
  Result<std::unique_ptr<Dess3System>> OpenVariant(
      const std::vector<char>& data) {
    {
      std::ofstream out(snapshot_ / kSnapshotRecordsFile,
                        std::ios::binary | std::ios::trunc);
      out.write(data.data(), static_cast<std::streamsize>(data.size()));
    }
    OpenOptions trusting;
    trusting.verify_checksums = false;
    return Dess3System::OpenFromSnapshot(snapshot_.string(), trusting);
  }

  std::filesystem::path dir_;
  std::filesystem::path snapshot_;
  ShapeDatabase db_;
  std::vector<char> bytes_;
};

TEST_F(SerializationFuzzTest, TruncationAtEveryStrideFailsCleanly) {
  for (size_t cut = 0; cut < bytes_.size(); cut += 41) {
    std::vector<char> truncated(bytes_.begin(), bytes_.begin() + cut);
    auto result = OpenVariant(truncated);
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << result.status().ToString();
  }
}

TEST_F(SerializationFuzzTest, BitFlipsNeverCrash) {
  Rng rng(2024);
  int clean_failures = 0, surprising_successes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<char> flipped = bytes_;
    const size_t pos = rng.NextBounded(flipped.size());
    flipped[pos] ^= static_cast<char>(1 << rng.NextBounded(8));
    auto result = OpenVariant(flipped);
    if (result.ok()) {
      // A flip inside a double payload yields a valid (different) store.
      ++surprising_successes;
      EXPECT_EQ((*result)->db().NumShapes(), db_.NumShapes());
    } else {
      ++clean_failures;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << "flip at " << pos << ": " << result.status().ToString();
    }
  }
  // Both outcomes occur on real files; mostly successes since most bytes
  // are feature payload.
  EXPECT_GT(clean_failures + surprising_successes, 0);
}

TEST_F(SerializationFuzzTest, GiantLengthPrefixRejectedWithoutAllocation) {
  // Overwrite the record-count field (offset 0) with a huge value; the
  // loader must fail on it, not attempt a 2^60-entry reserve.
  std::vector<char> evil = bytes_;
  const uint64_t huge = 1ull << 60;
  std::memcpy(evil.data(), &huge, sizeof(huge));
  auto result = OpenVariant(evil);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
}

TEST_F(SerializationFuzzTest, EmptyFileRejected) {
  auto result = OpenVariant({});
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST_F(SerializationFuzzTest, AppendedGarbageIsHarmless) {
  // Trailing bytes after a complete records section are ignored by the
  // reader (it reads exactly the declared records).
  std::vector<char> padded = bytes_;
  for (int i = 0; i < 64; ++i) padded.push_back(static_cast<char>(i));
  auto result = OpenVariant(padded);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->db().NumShapes(), db_.NumShapes());
}

/// Snapshot-directory corruption: a golden snapshot is copied per trial,
/// one file is damaged, and OpenFromSnapshot must fail with the pinned
/// taxonomy — DataLoss for corruption, FailedPrecondition for version
/// skew, NotFound for no-snapshot — and never crash or half-open.
class SnapshotFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dess_snapfuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    golden_ = dir_ / "golden";
    Dess3System system;
    ShapeDatabase db = testing_util::BuildSyntheticFeatureDb(3, 3, 2);
    for (const ShapeRecord& rec : db.records()) {
      ASSERT_TRUE(system.Ingest(rec).ok());
    }
    ASSERT_TRUE(system.Commit().ok());
    ASSERT_TRUE(testing_util::WriteSnapshot(system, golden_.string()).ok());
    baseline_ = system.QueryByShapeId(
        0, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
    ASSERT_TRUE(baseline_.ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Fresh copy of the golden snapshot to damage.
  std::filesystem::path MakeVariant() {
    const std::filesystem::path variant = dir_ / "variant";
    std::filesystem::remove_all(variant);
    std::filesystem::copy(golden_, variant,
                          std::filesystem::copy_options::recursive);
    return variant;
  }

  static std::vector<char> ReadFile(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void WriteFile(const std::filesystem::path& p,
                        const std::vector<char>& data) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::filesystem::path dir_;
  std::filesystem::path golden_;
  Result<QueryResponse> baseline_{QueryResponse{}};
};

TEST_F(SnapshotFuzzTest, GoldenSnapshotReopensAndAnswersIdentically) {
  auto reopened = Dess3System::OpenFromSnapshot(golden_.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto response = (*reopened)->QueryByShapeId(
      0, QueryRequest::TopK(FeatureKind::kMomentInvariants, 5));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->results.size(), baseline_->results.size());
  for (size_t i = 0; i < response->results.size(); ++i) {
    EXPECT_TRUE(response->results[i] == baseline_->results[i]);
  }
}

TEST_F(SnapshotFuzzTest, TruncatedSectionsFailAsDataLoss) {
  for (const char* file :
       {kSnapshotRecordsFile, kSnapshotSpacesFile,
        "hierarchy_eigenvalues.bin", "index_geometric_params.drt"}) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> bytes = ReadFile(variant / file);
    ASSERT_GT(bytes.size(), 8u) << file;
    bytes.resize(bytes.size() / 2);
    WriteFile(variant / file, bytes);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << file;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << file << ": " << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, BitFlippedSectionsFailAsDataLoss) {
  Rng rng(77);
  const char* files[] = {kSnapshotRecordsFile, kSnapshotSpacesFile,
                         kSnapshotMeshesFile,
                         "hierarchy_moment_invariants.bin",
                         "index_principal_moments.drt"};
  for (const char* file : files) {
    for (int trial = 0; trial < 8; ++trial) {
      const std::filesystem::path variant = MakeVariant();
      std::vector<char> bytes = ReadFile(variant / file);
      ASSERT_FALSE(bytes.empty()) << file;
      bytes[rng.NextBounded(bytes.size())] ^=
          static_cast<char>(1 << rng.NextBounded(8));
      WriteFile(variant / file, bytes);
      auto result = Dess3System::OpenFromSnapshot(variant.string());
      // Every section is CRC-verified against the manifest before parsing,
      // so any flip — even in a don't-care byte — is DataLoss.
      ASSERT_FALSE(result.ok()) << file << " trial " << trial;
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
          << file << ": " << result.status().ToString();
    }
  }
}

TEST_F(SnapshotFuzzTest, BitFlippedManifestFailsCleanly) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> bytes = ReadFile(variant / kSnapshotManifestFile);
    ASSERT_GT(bytes.size(), 36u);
    bytes[rng.NextBounded(bytes.size())] ^=
        static_cast<char>(1 << rng.NextBounded(8));
    WriteFile(variant / kSnapshotManifestFile, bytes);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    // The manifest is self-checksummed, so a flip anywhere (including the
    // version field or the trailing CRC itself) reads as DataLoss.
    ASSERT_FALSE(result.ok()) << "trial " << trial;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, TruncatedManifestFailsCleanly) {
  std::vector<char> bytes = ReadFile(golden_ / kSnapshotManifestFile);
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    const std::filesystem::path variant = MakeVariant();
    std::vector<char> truncated(bytes.begin(), bytes.begin() + cut);
    WriteFile(variant / kSnapshotManifestFile, truncated);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "cut at " << cut << ": " << result.status().ToString();
  }
}

TEST_F(SnapshotFuzzTest, VersionSkewWithValidChecksumIsFailedPrecondition) {
  // A future writer bumps the version and re-seals the manifest: the CRC is
  // valid, so the reader must report skew, not corruption. Rebuild the
  // manifest tail CRC after patching the version field (offset 4).
  const std::filesystem::path variant = MakeVariant();
  std::vector<char> bytes = ReadFile(variant / kSnapshotManifestFile);
  ASSERT_GT(bytes.size(), 36u);
  const uint32_t future = kSnapshotFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &future, sizeof(future));
  const uint32_t crc = Crc32c(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  WriteFile(variant / kSnapshotManifestFile, bytes);
  auto result = Dess3System::OpenFromSnapshot(variant.string());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();
}

TEST_F(SnapshotFuzzTest, MissingManifestIsNotFound) {
  const std::filesystem::path variant = MakeVariant();
  std::filesystem::remove(variant / kSnapshotManifestFile);
  auto result = Dess3System::OpenFromSnapshot(variant.string());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotFuzzTest, MissingSectionIsDataLoss) {
  for (const char* file :
       {kSnapshotRecordsFile, kSnapshotSpacesFile,
        "index_eigenvalues.drt"}) {
    const std::filesystem::path variant = MakeVariant();
    std::filesystem::remove(variant / file);
    auto result = Dess3System::OpenFromSnapshot(variant.string());
    ASSERT_FALSE(result.ok()) << file;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << file;
  }
}

}  // namespace
}  // namespace dess
