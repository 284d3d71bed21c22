#include "core/vitri.h"

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/hypersphere.h"

namespace vitri::core {
namespace {

ViTri MakeViTri(uint32_t video, uint32_t size, double radius,
                linalg::Vec position) {
  ViTri v;
  v.video_id = video;
  v.cluster_size = size;
  v.radius = radius;
  v.position = std::move(position);
  return v;
}

TEST(ViTriTest, SerializedSizeFormula) {
  EXPECT_EQ(ViTri::SerializedSize(64), 16u + 512u);
  EXPECT_EQ(ViTri::SerializedSize(1), 24u);
}

TEST(ViTriTest, SerializeDeserializeRoundTrip) {
  const ViTri v = MakeViTri(42, 17, 0.125, {0.25, -1.5, 3.0});
  std::vector<uint8_t> bytes;
  v.Serialize(&bytes);
  EXPECT_EQ(bytes.size(), ViTri::SerializedSize(3));
  auto back = ViTri::Deserialize(bytes, 3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->video_id, 42u);
  EXPECT_EQ(back->cluster_size, 17u);
  EXPECT_EQ(back->radius, 0.125);
  EXPECT_EQ(back->position, v.position);
}

TEST(ViTriTest, DeserializeRejectsWrongSize) {
  std::vector<uint8_t> bytes(10);
  EXPECT_FALSE(ViTri::Deserialize(bytes, 3).ok());
}

TEST(ViTriTest, DeserializeIntoRoundTripsLikeDeserialize) {
  const ViTri v = MakeViTri(42, 17, 0.125, {0.25, -1.5, 3.0});
  std::vector<uint8_t> bytes;
  v.Serialize(&bytes);
  ViTri into;
  ASSERT_TRUE(ViTri::DeserializeInto(bytes, 3, &into).ok());
  auto back = ViTri::Deserialize(bytes, 3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(into.video_id, back->video_id);
  EXPECT_EQ(into.cluster_size, back->cluster_size);
  EXPECT_EQ(into.radius, back->radius);
  EXPECT_EQ(into.position, back->position);
  EXPECT_EQ(into.position, v.position);
}

TEST(ViTriTest, DeserializeIntoOverwritesEveryFieldWhenReused) {
  const ViTri first = MakeViTri(7, 300, 0.5, {1.0, 2.0, 3.0, 4.0});
  const ViTri second = MakeViTri(0, 1, 0.0, {-0.0, 1e-300, -7.25, 0.0});
  std::vector<uint8_t> first_bytes;
  std::vector<uint8_t> second_bytes;
  first.Serialize(&first_bytes);
  second.Serialize(&second_bytes);

  ViTri scratch;
  ASSERT_TRUE(ViTri::DeserializeInto(first_bytes, 4, &scratch).ok());
  const double* buffer = scratch.position.data();
  ASSERT_TRUE(ViTri::DeserializeInto(second_bytes, 4, &scratch).ok());
  EXPECT_EQ(scratch.video_id, 0u);
  EXPECT_EQ(scratch.cluster_size, 1u);
  EXPECT_EQ(scratch.radius, 0.0);
  EXPECT_EQ(scratch.position, second.position);
  EXPECT_TRUE(std::signbit(scratch.position[0]));
  // Same dimension: the position buffer is reused, not reallocated.
  EXPECT_EQ(scratch.position.data(), buffer);

  // A record of another dimension resizes the position exactly.
  const ViTri narrow = MakeViTri(3, 9, 0.25, {5.0, 6.0});
  std::vector<uint8_t> narrow_bytes;
  narrow.Serialize(&narrow_bytes);
  ASSERT_TRUE(ViTri::DeserializeInto(narrow_bytes, 2, &scratch).ok());
  EXPECT_EQ(scratch.video_id, 3u);
  EXPECT_EQ(scratch.cluster_size, 9u);
  EXPECT_EQ(scratch.radius, 0.25);
  EXPECT_EQ(scratch.position, narrow.position);
}

TEST(ViTriTest, DeserializeIntoRejectsMisSizedSpan) {
  const ViTri v = MakeViTri(42, 17, 0.125, {0.25, -1.5, 3.0});
  std::vector<uint8_t> bytes;
  v.Serialize(&bytes);
  ViTri out = v;
  for (size_t size : {size_t{0}, bytes.size() - 1, bytes.size() + 1}) {
    std::vector<uint8_t> wrong(size, 0xAB);
    const Status s = ViTri::DeserializeInto(wrong, 3, &out);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }
  // A record of the wrong dimension is mis-sized too.
  EXPECT_TRUE(ViTri::DeserializeInto(bytes, 4, &out).IsInvalidArgument());
  // A rejected span leaves the output untouched.
  EXPECT_EQ(out.video_id, 42u);
  EXPECT_EQ(out.position, v.position);
}

TEST(ViTriTest, LogDensityMatchesDefinition) {
  const ViTri v = MakeViTri(0, 100, 0.1, linalg::Vec(8, 0.0));
  const double expected =
      std::log(100.0) - geometry::LogBallVolume(8, 0.1);
  EXPECT_NEAR(v.LogDensity(), expected, 1e-12);
}

TEST(ViTriTest, PointClusterHasInfiniteDensity) {
  const ViTri v = MakeViTri(0, 1, 0.0, linalg::Vec(8, 0.0));
  EXPECT_TRUE(std::isinf(v.LogDensity()));
  EXPECT_GT(v.LogDensity(), 0.0);
}

TEST(ViTriTest, DenserClusterHasHigherLogDensity) {
  const ViTri sparse = MakeViTri(0, 10, 0.1, linalg::Vec(16, 0.0));
  const ViTri dense = MakeViTri(0, 100, 0.1, linalg::Vec(16, 0.0));
  EXPECT_GT(dense.LogDensity(), sparse.LogDensity());
}

TEST(ViTriTest, LogDensityFiniteInHighDimension) {
  const ViTri v = MakeViTri(0, 50, 0.12, linalg::Vec(256, 0.0));
  EXPECT_TRUE(std::isfinite(v.LogDensity()));
}

}  // namespace
}  // namespace vitri::core
