#include "core/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/vitri_builder.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

struct World {
  video::VideoDatabase db;
  ViTriSet set;
};

World MakeWorld(double scale = 0.004, double epsilon = 0.15,
                uint64_t seed = 2005) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  World w;
  w.db = synth.GenerateDatabase(scale);
  ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  return w;
}

ViTriIndexOptions DefaultOptions(double epsilon = 0.15) {
  ViTriIndexOptions options;
  options.epsilon = epsilon;
  options.dimension = 64;
  return options;
}

std::vector<ViTri> QuerySummary(const video::VideoSequence& seq,
                                double epsilon = 0.15) {
  ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  ViTriBuilder builder(bo);
  auto result = builder.Build(seq);
  EXPECT_TRUE(result.ok());
  return *result;
}

/// The dense rank the sparse accumulator replaced: one slot per id of
/// the frame-count table, zero-filled, and a walk over every slot.
std::vector<VideoMatch> DenseRank(const std::vector<double>& shared,
                                  const std::vector<uint32_t>& frame_counts,
                                  uint32_t query_frames, size_t k) {
  std::vector<VideoMatch> matches;
  for (uint32_t vid = 0; vid < shared.size(); ++vid) {
    if (shared[vid] <= 0.0 || frame_counts[vid] == 0) continue;
    const double sim = std::clamp(
        2.0 * shared[vid] /
            static_cast<double>(query_frames + frame_counts[vid]),
        0.0, 1.0);
    matches.push_back(VideoMatch{vid, sim});
  }
  KeepTopK(&matches, k);
  return matches;
}

TEST(VideoAccumulatorTest, RanksExactlyLikeADenseAccumulator) {
  // 40 videos; every fifth has no frames. Ids 40..47 lie past the table.
  std::vector<uint32_t> frame_counts(40);
  for (uint32_t vid = 0; vid < frame_counts.size(); ++vid) {
    frame_counts[vid] = vid % 5 == 0 ? 0 : 10 + (vid % 3) * 5;
  }
  // The stream: hand-placed ties (videos 1 and 16 have the same frame
  // count and receive the same estimates), then random pairs whose
  // estimates include zeros and negatives, with a degraded-path reset
  // halfway through.
  std::vector<std::pair<uint32_t, double>> stream = {
      {16, 2.5}, {1, 2.5}, {16, 0.25}, {1, 0.25}, {45, 3.0}, {5, 4.0}};
  Rng rng(17);
  const double estimates[] = {0.0, -1.0, 0.125, 0.5, 1.0, 1.0 / 3.0};
  for (int i = 0; i < 2000; ++i) {
    const auto vid = static_cast<uint32_t>(rng.UniformU64(48));
    const double est = rng.UniformU64(4) == 0
                           ? rng.Uniform(0.0, 2.0)
                           : estimates[rng.UniformU64(std::size(estimates))];
    stream.emplace_back(vid, est);
  }
  const size_t reset_at = stream.size() / 2;

  VideoAccumulator sparse(frame_counts.size());
  std::vector<double> dense(frame_counts.size(), 0.0);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == reset_at) {
      sparse.Clear();
      std::fill(dense.begin(), dense.end(), 0.0);
    }
    const auto [vid, est] = stream[i];
    sparse.Add(vid, est);
    if (est > 0.0 && vid < dense.size()) dense[vid] += est;
  }
  // Only videos with a positive sum are held, never ids past the table.
  for (const auto& [vid, sum] : sparse.sums()) {
    ASSERT_LT(vid, frame_counts.size());
    EXPECT_GT(sum, 0.0);
  }

  for (const size_t k : {size_t{1}, size_t{5}, size_t{17}, size_t{100}}) {
    const std::vector<VideoMatch> want = DenseRank(dense, frame_counts, 30, k);
    const std::vector<VideoMatch> got =
        RankSharedFrames(sparse, frame_counts, 30, k);
    ASSERT_EQ(got.size(), want.size()) << "k " << k;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].video_id, want[i].video_id) << "k " << k;
      EXPECT_EQ(std::memcmp(&got[i].similarity, &want[i].similarity,
                            sizeof(double)),
                0)
          << "k " << k << " rank " << i;
    }
  }

  // Before the reset the hand-placed tie ranks 1 before 16.
  VideoAccumulator tied(frame_counts.size());
  for (size_t i = 0; i < 4; ++i) tied.Add(stream[i].first, stream[i].second);
  const std::vector<VideoMatch> pair =
      RankSharedFrames(tied, frame_counts, 30, 2);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0].similarity, pair[1].similarity);
  EXPECT_EQ(pair[0].video_id, 1u);
  EXPECT_EQ(pair[1].video_id, 16u);
}

TEST(ViTriIndexTest, LeafRecordThatDoesNotDecodeIsCorruption) {
  // Corruption, not InvalidArgument, is what makes a scan fall back to
  // the degraded in-memory path instead of failing the query.
  ViTri v;
  v.video_id = 5;
  v.cluster_size = 3;
  v.radius = 0.01;
  v.position = {0.5, 0.25};
  std::vector<uint8_t> bytes;
  v.Serialize(&bytes);
  ViTri out;
  ASSERT_TRUE(DecodeLeafRecord(bytes, 2, &out).ok());
  EXPECT_EQ(out.video_id, 5u);
  EXPECT_EQ(out.position, v.position);
  bytes.pop_back();
  EXPECT_TRUE(DecodeLeafRecord(bytes, 2, &out).IsCorruption());
}

TEST(ViTriIndexTest, BuildRejectsEmptySet) {
  EXPECT_FALSE(ViTriIndex::Build(ViTriSet{}, DefaultOptions()).ok());
}

TEST(ViTriIndexTest, BuildRejectsDimensionMismatch) {
  World w = MakeWorld();
  ViTriIndexOptions options = DefaultOptions();
  options.dimension = 32;
  EXPECT_FALSE(ViTriIndex::Build(w.set, options).ok());
}

TEST(ViTriIndexTest, BuildRejectsBadEpsilon) {
  // Queries search R_i^Q + epsilon/2 around each key: a negative epsilon
  // makes lo > hi ranges, NaN makes NaN ranges, and 0 (also what atof
  // returns for a non-number) makes ranges narrower than the stored
  // radii. Each would build an index that silently misses matches.
  World w = MakeWorld();
  for (const double epsilon :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    const auto index = ViTriIndex::Build(w.set, DefaultOptions(epsilon));
    ASSERT_FALSE(index.ok()) << "epsilon " << epsilon;
    EXPECT_TRUE(index.status().IsInvalidArgument()) << "epsilon " << epsilon;
  }
}

TEST(ViTriIndexTest, KnnFindsExactCopy) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  // Query with video 3's own summary: it must rank first with sim ~1.
  const auto query = QuerySummary(w.db.videos[3]);
  auto results = index->Knn(
      query, static_cast<uint32_t>(w.db.videos[3].num_frames()), 5,
      KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].video_id, 3u);
  EXPECT_GT((*results)[0].similarity, 0.9);
}

TEST(ViTriIndexTest, KnnFindsNearDuplicate) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  video::VideoSynthesizer synth;
  const video::VideoSequence dup = synth.MakeNearDuplicate(
      w.db.videos[5], static_cast<uint32_t>(w.db.num_videos()));
  const auto query = QuerySummary(dup);
  auto results =
      index->Knn(query, static_cast<uint32_t>(dup.num_frames()), 5,
                 KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // The source must be near the very top; shared-footage videos can
  // legitimately rank close to it in this reuse-heavy corpus.
  bool found = false;
  for (const VideoMatch& m : *results) {
    found = found || m.video_id == 5u;
  }
  EXPECT_TRUE(found);
}

TEST(ViTriIndexTest, NaiveAndComposedReturnSameResults) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  for (uint32_t q : {0u, 7u, 11u}) {
    const auto query = QuerySummary(w.db.videos[q]);
    const uint32_t frames =
        static_cast<uint32_t>(w.db.videos[q].num_frames());
    auto naive = index->Knn(query, frames, 10, KnnMethod::kNaive);
    auto composed = index->Knn(query, frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(naive.ok() && composed.ok());
    ASSERT_EQ(naive->size(), composed->size());
    for (size_t i = 0; i < naive->size(); ++i) {
      EXPECT_EQ((*naive)[i].video_id, (*composed)[i].video_id) << i;
      EXPECT_NEAR((*naive)[i].similarity, (*composed)[i].similarity, 1e-9);
    }
  }
}

TEST(ViTriIndexTest, CompositionNeverCostsMorePages) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  uint64_t naive_total = 0;
  uint64_t composed_total = 0;
  for (uint32_t q = 0; q < 8; ++q) {
    const auto query = QuerySummary(w.db.videos[q]);
    const uint32_t frames =
        static_cast<uint32_t>(w.db.videos[q].num_frames());
    QueryCosts naive_costs;
    QueryCosts composed_costs;
    ASSERT_TRUE(index->Knn(query, frames, 10, KnnMethod::kNaive,
                           &naive_costs)
                    .ok());
    ASSERT_TRUE(index->Knn(query, frames, 10, KnnMethod::kComposed,
                           &composed_costs)
                    .ok());
    EXPECT_LE(composed_costs.range_searches, naive_costs.range_searches);
    EXPECT_LE(composed_costs.candidates, naive_costs.candidates);
    naive_total += naive_costs.page_accesses;
    composed_total += composed_costs.page_accesses;
  }
  EXPECT_LT(composed_total, naive_total);
}

TEST(ViTriIndexTest, SequentialScanAgreesOnTopResult) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[2]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[2].num_frames());
  auto indexed = index->Knn(query, frames, 5, KnnMethod::kComposed);
  auto scanned = index->SequentialScan(query, frames, 5);
  ASSERT_TRUE(indexed.ok() && scanned.ok());
  ASSERT_FALSE(indexed->empty());
  ASSERT_FALSE(scanned->empty());
  EXPECT_EQ((*indexed)[0].video_id, (*scanned)[0].video_id);
  EXPECT_NEAR((*indexed)[0].similarity, (*scanned)[0].similarity, 1e-9);
}

TEST(ViTriIndexTest, IndexPrunesComparedToSequentialScan) {
  World w = MakeWorld(0.008);
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[0].num_frames());
  QueryCosts knn_costs;
  QueryCosts scan_costs;
  ASSERT_TRUE(
      index->Knn(query, frames, 10, KnnMethod::kComposed, &knn_costs).ok());
  ASSERT_TRUE(index->SequentialScan(query, frames, 10, &scan_costs).ok());
  EXPECT_LT(knn_costs.candidates, scan_costs.candidates);
  EXPECT_LT(knn_costs.similarity_evals, scan_costs.similarity_evals);
}

TEST(ViTriIndexTest, AllReferenceKindsReturnIdenticalResults) {
  // The transform affects cost, never correctness.
  World w = MakeWorld();
  const auto query = QuerySummary(w.db.videos[4]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[4].num_frames());
  std::vector<std::vector<VideoMatch>> all;
  for (ReferencePointKind kind :
       {ReferencePointKind::kSpaceCenter, ReferencePointKind::kDataCenter,
        ReferencePointKind::kOptimal}) {
    ViTriIndexOptions options = DefaultOptions();
    options.reference = kind;
    auto index = ViTriIndex::Build(w.set, options);
    ASSERT_TRUE(index.ok());
    auto results = index->Knn(query, frames, 10, KnnMethod::kComposed);
    ASSERT_TRUE(results.ok());
    all.push_back(*results);
  }
  for (size_t k = 1; k < all.size(); ++k) {
    ASSERT_EQ(all[k].size(), all[0].size());
    for (size_t i = 0; i < all[0].size(); ++i) {
      EXPECT_EQ(all[k][i].video_id, all[0][i].video_id);
      EXPECT_NEAR(all[k][i].similarity, all[0][i].similarity, 1e-9);
    }
  }
}

TEST(ViTriIndexTest, DynamicInsertThenQuery) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const size_t before = index->num_vitris();

  video::VideoSynthesizer synth;
  video::VideoSequence fresh =
      synth.GenerateClip(static_cast<uint32_t>(w.db.num_videos()), 15.0);
  const auto summary = QuerySummary(fresh);
  ASSERT_TRUE(index
                  ->Insert(fresh.id,
                           static_cast<uint32_t>(fresh.num_frames()),
                           summary)
                  .ok());
  EXPECT_EQ(index->num_vitris(), before + summary.size());

  auto results = index->Knn(
      summary, static_cast<uint32_t>(fresh.num_frames()), 3,
      KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  EXPECT_EQ((*results)[0].video_id, fresh.id);
  EXPECT_GT((*results)[0].similarity, 0.9);
}

TEST(ViTriIndexTest, StoredVideosSkipsIdGapsAndCountsReinsertsOnce) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const size_t stored = index->stored_videos();
  EXPECT_EQ(stored, w.db.num_videos());

  // An id five past the end: num_videos() is the id-space extent and
  // grows by six, stored_videos() by one.
  const auto extent = static_cast<uint32_t>(index->num_videos());
  const uint32_t id = extent + 5;
  std::vector<ViTri> summary = QuerySummary(w.db.videos[0]);
  for (ViTri& v : summary) v.video_id = id;
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  ASSERT_TRUE(index->Insert(id, frames, summary).ok());
  EXPECT_EQ(index->num_videos(), extent + 6u);
  EXPECT_EQ(index->stored_videos(), stored + 1);

  // Re-inserting a stored id adds ViTris but no video; lowering its
  // frame count below its stored clusters is rejected.
  const size_t vitris = index->num_vitris();
  ASSERT_TRUE(index->Insert(id, frames, summary).ok());
  EXPECT_EQ(index->stored_videos(), stored + 1);
  EXPECT_EQ(index->num_vitris(), vitris + summary.size());
  const Status shrunk = index->Insert(id, frames - 1, {});
  EXPECT_TRUE(shrunk.IsInvalidArgument()) << shrunk.ToString();
  EXPECT_EQ(index->stored_videos(), stored + 1);
  EXPECT_TRUE(index->ValidateInvariants().ok());
}

TEST(ViTriIndexTest, InsertRejectsViTrisThatWouldCorruptTheIndex) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const std::string dir = ::testing::TempDir() + "/index_insert_rejects";
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  const auto id = static_cast<uint32_t>(index->num_videos());
  std::vector<ViTri> summary = QuerySummary(w.db.videos[0]);
  for (ViTri& v : summary) v.video_id = id;
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  // Each bad summary: one ViTri filed under the previous video, one
  // radius beyond epsilon/2 (outside every query's key range), and one
  // cluster larger than the video.
  std::vector<std::vector<ViTri>> bad(3, summary);
  bad[0].back().video_id = id - 1;
  bad[1].back().radius = 0.9;
  bad[2].back().cluster_size = frames + 1;
  const size_t vitris = index->num_vitris();
  const uint64_t commits = index->wal_commits();
  for (size_t i = 0; i < bad.size(); ++i) {
    const Status st = index->Insert(id, frames, bad[i]);
    EXPECT_TRUE(st.IsInvalidArgument()) << i << ": " << st.ToString();
    EXPECT_EQ(index->num_vitris(), vitris) << i;
    EXPECT_EQ(index->wal_commits(), commits) << i;
  }
  EXPECT_TRUE(index->ValidateInvariants().ok());
  // The good summary still goes in, and Knn finds it next to video 0,
  // whose summary it copies (the tie ranks video 0 first).
  ASSERT_TRUE(index->Insert(id, frames, summary).ok());
  auto matches = index->Knn(summary, frames, 2, KnnMethod::kComposed);
  ASSERT_TRUE(matches.ok());
  ASSERT_EQ(matches->size(), 2u);
  EXPECT_EQ((*matches)[1].video_id, id);
}

TEST(ViTriIndexTest, RebuildPreservesResults) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[6]);
  const uint32_t frames =
      static_cast<uint32_t>(w.db.videos[6].num_frames());
  auto before = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(index->Rebuild().ok());
  auto after = index->Knn(query, frames, 10, KnnMethod::kComposed);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].video_id, (*after)[i].video_id);
    EXPECT_NEAR((*before)[i].similarity, (*after)[i].similarity, 1e-9);
  }
}

TEST(ViTriIndexTest, DriftAngleStartsAtZero) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  auto angle = index->DriftAngle();
  ASSERT_TRUE(angle.ok());
  EXPECT_NEAR(*angle, 0.0, 1e-6);
  auto needs = index->NeedsRebuild();
  ASSERT_TRUE(needs.ok());
  EXPECT_FALSE(*needs);
}

TEST(ViTriIndexTest, QueryCostCountersPopulated) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[1]);
  QueryCosts costs;
  ASSERT_TRUE(index
                  ->Knn(query,
                        static_cast<uint32_t>(
                            w.db.videos[1].num_frames()),
                        10, KnnMethod::kComposed, &costs)
                  .ok());
  EXPECT_GT(costs.page_accesses, 0u);
  EXPECT_GT(costs.candidates, 0u);
  EXPECT_GT(costs.similarity_evals, 0u);
  EXPECT_GE(costs.range_searches, 1u);
  EXPECT_GT(costs.cpu_seconds, 0.0);
}

TEST(ViTriIndexTest, EmptyQueryRejected) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Knn({}, 100, 5, KnnMethod::kNaive).ok());
  EXPECT_FALSE(index->SequentialScan({}, 100, 5).ok());
}

TEST(ViTriIndexTest, KLimitsResultCount) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  auto results = index->Knn(
      query, static_cast<uint32_t>(w.db.videos[0].num_frames()), 2,
      KnnMethod::kComposed);
  ASSERT_TRUE(results.ok());
  EXPECT_LE(results->size(), 2u);
}

TEST(ViTriIndexTest, FrameSearchFindsContainingVideo) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  // A frame straight out of video 4 must rank video 4 at the top.
  const linalg::Vec& probe = w.db.videos[4].frames[40];
  auto results = index->FrameSearch(probe, 0.15, 5);
  ASSERT_TRUE(results.ok());
  ASSERT_FALSE(results->empty());
  // Video 4 must be found; a video sharing the same footage (reuse
  // corpus) may legitimately contain *more* matching frames and rank
  // above it.
  bool found = false;
  for (const VideoMatch& m : *results) found = found || m.video_id == 4u;
  EXPECT_TRUE(found);
  EXPECT_GT((*results)[0].similarity, 1.0);  // Many frames of the shot.
}

TEST(ViTriIndexTest, FrameSearchRejectsBadInput) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->FrameSearch(linalg::Vec(3, 0.1), 0.15, 5).ok());
  for (const double epsilon :
       {0.0, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_FALSE(index->FrameSearch(linalg::Vec(64, 0.1), epsilon, 5).ok())
        << "epsilon " << epsilon;
  }
}

TEST(ViTriIndexTest, FrameSearchFarFrameFindsNothing) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  // A frame far outside the data (corner of the cube).
  linalg::Vec far(64, 0.0);
  far[0] = 1.0;
  far[63] = 1.0;  // Not even a normalized histogram; distance >> eps.
  auto results = index->FrameSearch(far, 0.05, 5);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST(ViTriIndexTest, FrameSearchCountsScaleWithEpsilon) {
  World w = MakeWorld();
  auto index = ViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const linalg::Vec& probe = w.db.videos[2].frames[10];
  auto narrow = index->FrameSearch(probe, 0.05, 1);
  auto wide = index->FrameSearch(probe, 0.25, 1);
  ASSERT_TRUE(narrow.ok() && wide.ok());
  ASSERT_FALSE(wide->empty());
  const double n_est = narrow->empty() ? 0.0 : (*narrow)[0].similarity;
  EXPECT_GE((*wide)[0].similarity, n_est);
}

}  // namespace
}  // namespace vitri::core
