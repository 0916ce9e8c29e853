#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "src/db/shape_database.h"
#include "src/db/serialization.h"

namespace dess {
namespace {

ShapeRecord MakeRecord(const std::string& name, int group) {
  ShapeRecord r;
  r.name = name;
  r.group = group;
  r.mesh.AddVertex({0, 0, 0});
  r.mesh.AddVertex({1, 0, 0});
  r.mesh.AddVertex({0, 1, 0});
  r.mesh.AddTriangle(0, 1, 2);
  for (FeatureKind kind : AllFeatureKinds()) {
    FeatureVector& fv = r.signature.Mutable(kind);
    fv.kind = kind;
    fv.values.assign(FeatureDim(kind),
                     static_cast<double>(group) + 0.5);
  }
  return r;
}

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dess_db_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& n) { return (dir_ / n).string(); }
  std::filesystem::path dir_;
};

TEST_F(DbTest, InsertAssignsSequentialIds) {
  ShapeDatabase db;
  EXPECT_EQ(db.Insert(MakeRecord("a", 0)), 0);
  EXPECT_EQ(db.Insert(MakeRecord("b", 0)), 1);
  EXPECT_EQ(db.Insert(MakeRecord("c", 1)), 2);
  EXPECT_EQ(db.NumShapes(), 3u);
  EXPECT_TRUE(db.Contains(1));
  EXPECT_FALSE(db.Contains(7));
}

TEST_F(DbTest, GetReturnsRecordOrNotFound) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 2));
  auto rec = db.Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->name, "a");
  EXPECT_EQ(db.Get(9).status().code(), StatusCode::kNotFound);
}

TEST_F(DbTest, GroupQueries) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 0));
  db.Insert(MakeRecord("b", 0));
  db.Insert(MakeRecord("c", 1));
  db.Insert(MakeRecord("noise", kUngrouped));
  EXPECT_EQ(db.GroupSize(0), 2);
  EXPECT_EQ(db.GroupSize(1), 1);
  EXPECT_EQ(db.NumGroups(), 2);
  const auto members = db.GroupMembers(0);
  EXPECT_EQ(members.size(), 2u);
}

TEST_F(DbTest, FeatureAccess) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 3));
  auto f = db.Feature(0, FeatureKind::kPrincipalMoments);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size(), static_cast<size_t>(FeatureDim(
                            FeatureKind::kPrincipalMoments)));
  EXPECT_DOUBLE_EQ((*f)[0], 3.5);
  EXPECT_FALSE(db.Feature(5, FeatureKind::kSpectral).ok());
}

TEST_F(DbTest, ComputeFeatureStats) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 0));  // features all 0.5
  db.Insert(MakeRecord("b", 2));  // features all 2.5
  const FeatureStats stats =
      db.ComputeFeatureStats(FeatureKind::kPrincipalMoments);
  EXPECT_DOUBLE_EQ(stats.mean[0], 1.5);
  EXPECT_DOUBLE_EQ(stats.stddev[0], 1.0);
  const auto z = stats.Standardize({2.5, 2.5, 2.5});
  EXPECT_DOUBLE_EQ(z[0], 1.0);
}

TEST_F(DbTest, GiantLengthPrefixRejectedWithoutAllocation) {
  // A length prefix far past the end of the file is corruption: every
  // length-prefixed read must fail on it, not attempt a 2^60-entry
  // allocation.
  {
    BinaryWriter w(Path("evil.bin"));
    ASSERT_TRUE(w.ok());
    w.WriteU64(1ull << 60);
    w.WriteU32(7);
    ASSERT_TRUE(w.Finish().ok());
  }
  {
    BinaryReader r(Path("evil.bin"));
    std::string s;
    EXPECT_FALSE(r.ReadString(&s));
    EXPECT_TRUE(s.empty());
  }
  {
    BinaryReader r(Path("evil.bin"));
    std::vector<double> v;
    EXPECT_FALSE(r.ReadF64Vector(&v));
    EXPECT_TRUE(v.empty());
  }
  {
    BinaryReader r(Path("evil.bin"));
    std::vector<int> v;
    EXPECT_FALSE(r.ReadI32Vector(&v));
    EXPECT_TRUE(v.empty());
  }
}

TEST_F(DbTest, BinaryWriterReaderPrimitives) {
  {
    BinaryWriter w(Path("prim.bin"));
    ASSERT_TRUE(w.ok());
    w.WriteU32(0xDEADBEEF);
    w.WriteI32(-42);
    w.WriteF64(3.25);
    w.WriteString("hello");
    w.WriteF64Vector({1.0, 2.0});
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(Path("prim.bin"));
  ASSERT_TRUE(r.ok());
  uint32_t u;
  int32_t i;
  double d;
  std::string s;
  std::vector<double> v;
  EXPECT_TRUE(r.ReadU32(&u));
  EXPECT_EQ(u, 0xDEADBEEF);
  EXPECT_TRUE(r.ReadI32(&i));
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(r.ReadF64(&d));
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(r.ReadString(&s));
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.ReadF64Vector(&v));
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 2.0);
  // Reading past EOF fails cleanly.
  EXPECT_FALSE(r.ReadU32(&u));
}

}  // namespace
}  // namespace dess
