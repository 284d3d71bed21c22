// Durable index directory: CURRENT codec, generation file naming,
// EnableDurability/Open round trips, checkpoint rotation + GC, torn-log
// repair on open, and dimension adoption from the snapshot. The
// ShardedRecoveryTest half covers the sharded layout: one durable
// ViTriIndex per shard under shard-<i>/, committed by the SHARDS
// manifest.

#include "core/recovery.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "storage/wal.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::set<std::string> ListDir(const std::string& dir) {
  std::set<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.insert(name);
    }
    ::closedir(d);
  }
  return names;
}

/// Shared tiny world: a synthetic database summarized once, split into
/// an initial build set (videos [0, initial)) and later inserts.
struct World {
  video::VideoDatabase db;
  std::vector<std::vector<ViTri>> per_video;
  size_t initial = 0;

  ViTriSet InitialSet() const {
    ViTriSet set;
    set.dimension = db.dimension;
    for (size_t vid = 0; vid < initial; ++vid) {
      set.frame_counts.push_back(
          static_cast<uint32_t>(db.videos[vid].num_frames()));
      for (const ViTri& v : per_video[vid]) set.vitris.push_back(v);
    }
    return set;
  }
};

const World& SharedWorld() {
  static const World* world = [] {
    video::SynthesizerOptions so;
    so.seed = 2005;
    video::VideoSynthesizer synth(so);
    auto* w = new World;
    w->db = synth.GenerateDatabase(0.004);
    ViTriBuilder builder;
    w->per_video.resize(w->db.num_videos());
    for (size_t vid = 0; vid < w->db.num_videos(); ++vid) {
      auto vitris = builder.Build(w->db.videos[vid]);
      EXPECT_TRUE(vitris.ok());
      w->per_video[vid] = std::move(*vitris);
    }
    w->initial = w->db.num_videos() / 2;
    EXPECT_GE(w->initial, 2u);
    return w;
  }();
  return *world;
}

Status InsertVideo(ViTriIndex* index, const World& w, size_t vid) {
  return index->Insert(static_cast<uint32_t>(vid),
                       static_cast<uint32_t>(w.db.videos[vid].num_frames()),
                       w.per_video[vid]);
}

TEST(RecoveryTest, GenerationFileNames) {
  EXPECT_EQ(SnapshotFileName(1), "snapshot-1.vsnp");
  EXPECT_EQ(SnapshotFileName(42), "snapshot-42.vsnp");
  EXPECT_EQ(WalFileName(7), "wal-7.vlog");
}

TEST(RecoveryTest, CurrentFileRoundTrip) {
  const std::string dir = TempPath("recovery_current");
  ::mkdir(dir.c_str(), 0755);
  // TempDir persists across runs: scrub any CURRENT a prior run left.
  std::remove((dir + "/CURRENT").c_str());
  auto missing = ReadCurrentFile(dir);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());

  ASSERT_TRUE(WriteCurrentFile(dir, 3).ok());
  auto read = ReadCurrentFile(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 3u);
  // No .tmp intermediate left behind.
  EXPECT_FALSE(FileExists(dir + "/CURRENT.tmp"));

  // Overwrite is atomic-by-rename and reads back the new value.
  ASSERT_TRUE(WriteCurrentFile(dir, 12).ok());
  read = ReadCurrentFile(dir);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, 12u);
}

TEST(RecoveryTest, GarbageCurrentFileIsCorruption) {
  const std::string dir = TempPath("recovery_current_bad");
  ::mkdir(dir.c_str(), 0755);
  std::ofstream(dir + "/CURRENT") << "not-a-generation";
  auto read = ReadCurrentFile(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsCorruption());
}

TEST(RecoveryTest, InsertRecordCodecRoundTrip) {
  const World& w = SharedWorld();
  const auto& vitris = w.per_video[0];
  ASSERT_FALSE(vitris.empty());
  std::vector<uint8_t> payload;
  EncodeInsertWalRecord(17, 250, vitris, &payload);
  auto decoded = DecodeInsertWalRecord(payload, w.db.dimension);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->video_id, 17u);
  EXPECT_EQ(decoded->num_frames, 250u);
  ASSERT_EQ(decoded->vitris.size(), vitris.size());
  for (size_t i = 0; i < vitris.size(); ++i) {
    EXPECT_EQ(decoded->vitris[i].cluster_size, vitris[i].cluster_size);
    EXPECT_EQ(decoded->vitris[i].radius, vitris[i].radius);
    EXPECT_EQ(decoded->vitris[i].position, vitris[i].position);
  }
}

TEST(RecoveryTest, InsertRecordCodecRejectsMalformedPayloads) {
  const World& w = SharedWorld();
  std::vector<uint8_t> payload;
  EncodeInsertWalRecord(1, 10, w.per_video[0], &payload);

  auto tiny = DecodeInsertWalRecord(
      std::span<const uint8_t>(payload.data(), 7), w.db.dimension);
  EXPECT_FALSE(tiny.ok());
  EXPECT_TRUE(tiny.status().IsCorruption());

  auto short_by_one = DecodeInsertWalRecord(
      std::span<const uint8_t>(payload.data(), payload.size() - 1),
      w.db.dimension);
  EXPECT_FALSE(short_by_one.ok());
  EXPECT_TRUE(short_by_one.status().IsCorruption());

  // The right bytes decoded under the wrong dimension cannot line up.
  auto wrong_dim = DecodeInsertWalRecord(payload, w.db.dimension + 1);
  EXPECT_FALSE(wrong_dim.ok());
}

TEST(RecoveryTest, EnableDurabilityThenOpenRoundTrips) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_roundtrip");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->durable());
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  EXPECT_TRUE(index->durable());
  EXPECT_EQ(index->generation(), 1u);
  // A second attach is rejected.
  EXPECT_FALSE(index->EnableDurability(dir).ok());

  for (size_t vid = w.initial; vid < w.initial + 3; ++vid) {
    ASSERT_TRUE(InsertVideo(&*index, w, vid).ok());
  }
  EXPECT_EQ(index->wal_commits(), 3u);
  EXPECT_EQ(index->wal_durable_commits(), 3u);  // kEveryCommit default.

  RecoveryStats stats;
  auto reopened = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.wal_commits_replayed, 3u);
  EXPECT_EQ(stats.wal_records_applied, 3u);
  EXPECT_FALSE(stats.wal_torn_tail);
  EXPECT_EQ(reopened->num_vitris(), index->num_vitris());
  EXPECT_EQ(reopened->num_videos(), index->num_videos());
  ASSERT_TRUE(reopened->ValidateInvariants().ok());

  // Identical contents answer identically.
  const auto& q = w.per_video[w.initial + 1];
  const auto frames =
      static_cast<uint32_t>(w.db.videos[w.initial + 1].num_frames());
  auto live = index->Knn(q, frames, 5, KnnMethod::kComposed);
  auto recovered = reopened->Knn(q, frames, 5, KnnMethod::kComposed);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(live->size(), recovered->size());
  for (size_t i = 0; i < live->size(); ++i) {
    EXPECT_EQ((*live)[i].video_id, (*recovered)[i].video_id);
    EXPECT_DOUBLE_EQ((*live)[i].similarity, (*recovered)[i].similarity);
  }
}

TEST(RecoveryTest, RecoveredIndexKeepsIngesting) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_continue");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  }
  size_t after_first = 0;
  {
    auto index = ViTriIndex::Open(dir, io);
    ASSERT_TRUE(index.ok());
    EXPECT_TRUE(index->durable());
    // The repaired log accepts appends; seqnos continue past replay.
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial + 1).ok());
    after_first = index->num_vitris();
  }
  auto index = ViTriIndex::Open(dir, io);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_vitris(), after_first);
  EXPECT_EQ(index->num_videos(), w.initial + 2);
  ASSERT_TRUE(index->ValidateInvariants().ok());
}

TEST(RecoveryTest, CheckpointRotatesGenerationAndCollectsOldFiles) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_rotate");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Checkpoint().ok());  // Not durable yet.
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  ASSERT_TRUE(index->Checkpoint().ok());
  EXPECT_EQ(index->generation(), 2u);
  // The WAL starts empty each generation; the old pair is gone.
  EXPECT_EQ(index->wal_commits(), 0u);
  const std::set<std::string> names = ListDir(dir);
  EXPECT_EQ(names, (std::set<std::string>{"CURRENT", "snapshot-2.vsnp",
                                          "wal-2.vlog"}));

  // Everything inserted before the checkpoint lives in the snapshot.
  RecoveryStats stats;
  auto reopened = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.wal_commits_replayed, 0u);
  EXPECT_EQ(reopened->num_vitris(), index->num_vitris());
}

TEST(RecoveryTest, OpenIgnoresAndCollectsStrayIntermediateFiles) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_strays");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
  }
  // Leftovers an interrupted checkpoint could leave behind.
  std::ofstream(dir + "/snapshot-9.vsnp.pending") << "half-written";
  std::ofstream(dir + "/snapshot-9.vsnp") << "orphaned generation";
  std::ofstream(dir + "/wal-9.vlog") << "orphaned wal";
  std::ofstream(dir + "/CURRENT.tmp") << "9";

  auto index = ViTriIndex::Open(dir, io);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->generation(), 1u);
  EXPECT_EQ(index->num_videos(), w.initial + 1);
  const std::set<std::string> names = ListDir(dir);
  EXPECT_EQ(names, (std::set<std::string>{"CURRENT", "snapshot-1.vsnp",
                                          "wal-1.vlog"}));
}

TEST(RecoveryTest, OpenAdoptsSnapshotDimension) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_dimension");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
  }
  ViTriIndexOptions wrong = io;
  wrong.dimension = io.dimension + 3;  // The snapshot knows better.
  auto index = ViTriIndex::Open(dir, wrong);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->options().dimension, w.db.dimension);
  ASSERT_TRUE(index->ValidateInvariants().ok());
}

TEST(RecoveryTest, OpenRepairsTornWalTail) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("recovery_torn");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  size_t acked_vitris = 0;
  {
    auto index = ViTriIndex::Build(w.InitialSet(), io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
    ASSERT_TRUE(InsertVideo(&*index, w, w.initial).ok());
    acked_vitris = index->num_vitris();
  }
  // Simulate a crash mid-append: garbage on the log's tail.
  {
    std::ofstream wal(dir + "/wal-1.vlog",
                      std::ios::binary | std::ios::app);
    const char torn[] = "\x40\x01\x00\x00partial";
    wal.write(torn, sizeof(torn) - 1);
  }
  RecoveryStats stats;
  auto index = ViTriIndex::Open(dir, io, {}, &stats);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(stats.wal_torn_tail);
  EXPECT_GT(stats.wal_bytes_discarded, 0u);
  EXPECT_EQ(stats.wal_commits_replayed, 1u);
  EXPECT_EQ(index->num_vitris(), acked_vitris);
  ASSERT_TRUE(index->ValidateInvariants().ok());
  // The repaired log keeps working.
  ASSERT_TRUE(InsertVideo(&*index, w, w.initial + 1).ok());
}

TEST(RecoveryTest, OpenWithoutCurrentIsNotFound) {
  const std::string dir = TempPath("recovery_empty");
  ::mkdir(dir.c_str(), 0755);
  auto index = ViTriIndex::Open(dir, ViTriIndexOptions{});
  ASSERT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsNotFound());
}

// --- Sharded layout --------------------------------------------------

/// A path at `name` with the leftovers of an earlier run removed.
std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Three round-robin shards over the initial videos whose id is not 2
/// mod 3, so shard 2 starts empty and the first such insert creates it.
constexpr size_t kShards = 3;

ShardedIndexOptions ThreeShards(const World& w) {
  ShardedIndexOptions options;
  options.num_shards = kShards;
  options.assignment = ShardAssignment::kRoundRobin;
  options.shard_options.dimension = w.db.dimension;
  return options;
}

ViTriSet InitialSetWithoutShard2(const World& w) {
  ViTriSet set = w.InitialSet();
  std::vector<ViTri> kept;
  for (const ViTri& v : set.vitris) {
    if (v.video_id % kShards != 2) kept.push_back(v);
  }
  set.vitris = std::move(kept);
  for (uint32_t vid = 2; vid < set.frame_counts.size(); vid += kShards) {
    set.frame_counts[vid] = 0;
  }
  return set;
}

Status InsertVideo(ShardedViTriIndex* index, const World& w, size_t vid) {
  return index->Insert(static_cast<uint32_t>(vid),
                       static_cast<uint32_t>(w.db.videos[vid].num_frames()),
                       w.per_video[vid]);
}

TEST(ShardedRecoveryTest, EnableDurabilityThenOpenRoundTrips) {
  const World& w = SharedWorld();
  const std::string dir = FreshDir("sharded_roundtrip");
  auto index = ShardedViTriIndex::Build(InitialSetWithoutShard2(w),
                                        ThreeShards(w));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->live_shards(), 2u);
  const size_t initial_videos = index->num_videos();
  EXPECT_FALSE(index->durable());
  ASSERT_TRUE(index->EnableDurability(dir).ok());
  EXPECT_TRUE(index->durable());
  EXPECT_EQ(index->generation(), 1u);
  EXPECT_FALSE(index->EnableDurability(dir).ok());  // Already durable.
  EXPECT_EQ(ListDir(dir),
            (std::set<std::string>{"SHARDS", "shard-0", "shard-1"}));

  // Three inserts, one per shard: the one owned by shard 2 creates it,
  // durably, in its own generation-1 snapshot.
  std::vector<size_t> inserted;
  for (size_t vid = w.initial; inserted.size() < 3; ++vid) {
    ASSERT_LT(vid, w.db.num_videos());
    ASSERT_TRUE(InsertVideo(&*index, w, vid).ok()) << vid;
    inserted.push_back(vid);
  }
  EXPECT_EQ(index->live_shards(), 3u);
  EXPECT_TRUE(FileExists(dir + "/shard-2/CURRENT"));
  EXPECT_EQ(index->wal_commits(), 2u);  // The creating insert is no commit.

  RecoveryStats stats;
  auto reopened = ShardedViTriIndex::Open(dir, {}, {}, &stats);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_shards(), kShards);
  EXPECT_EQ(reopened->assignment(), ShardAssignment::kRoundRobin);
  EXPECT_EQ(reopened->live_shards(), 3u);
  EXPECT_TRUE(reopened->durable());
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.wal_commits_replayed, 2u);
  EXPECT_EQ(stats.snapshot_videos, initial_videos + 1);
  EXPECT_EQ(stats.recovered_videos, initial_videos + 3);
  EXPECT_EQ(stats.recovered_vitris, index->num_vitris());
  EXPECT_EQ(reopened->num_videos(), index->num_videos());
  EXPECT_EQ(reopened->num_vitris(), index->num_vitris());
  ASSERT_TRUE(reopened->ValidateInvariants().ok());

  for (const size_t vid : inserted) {
    const auto frames = static_cast<uint32_t>(w.db.videos[vid].num_frames());
    auto live = index->Knn(w.per_video[vid], frames, 5, KnnMethod::kComposed);
    auto recovered =
        reopened->Knn(w.per_video[vid], frames, 5, KnnMethod::kComposed);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(recovered.ok());
    ASSERT_EQ(live->size(), recovered->size());
    for (size_t i = 0; i < live->size(); ++i) {
      EXPECT_EQ((*live)[i].video_id, (*recovered)[i].video_id);
      EXPECT_DOUBLE_EQ((*live)[i].similarity, (*recovered)[i].similarity);
    }
  }
}

TEST(ShardedRecoveryTest, CheckpointAndSyncReachEveryShard) {
  const World& w = SharedWorld();
  const std::string dir = FreshDir("sharded_checkpoint");
  auto index = ShardedViTriIndex::Build(w.InitialSet(), ThreeShards(w));
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->Checkpoint().IsInvalidArgument());  // Not durable.
  storage::WalOptions grouped;
  grouped.sync_mode = storage::WalSyncMode::kGrouped;
  grouped.group_commits = 100;
  DurabilityOptions durability;
  durability.wal = grouped;
  ASSERT_TRUE(index->EnableDurability(dir, durability).ok());
  for (size_t vid = w.initial; vid < w.initial + 3; ++vid) {
    ASSERT_TRUE(InsertVideo(&*index, w, vid).ok());
  }
  EXPECT_EQ(index->wal_commits(), 3u);
  EXPECT_EQ(index->wal_durable_commits(), 0u);
  ASSERT_TRUE(index->SyncWal().ok());
  EXPECT_EQ(index->wal_durable_commits(), 3u);
  ASSERT_TRUE(index->Checkpoint().ok());
  EXPECT_EQ(index->generation(), 2u);
  EXPECT_EQ(index->wal_commits(), 0u);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(index->shard(s)->generation(), 2u) << s;
  }
  RecoveryStats stats;
  auto reopened = ShardedViTriIndex::Open(dir, {}, durability, &stats);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(stats.wal_commits_replayed, 0u);
  EXPECT_EQ(reopened->num_videos(), w.initial + 3);
}

TEST(ShardedRecoveryTest, ManifestIsTheCommitPointAndIsValidated) {
  const World& w = SharedWorld();
  const std::string dir = FreshDir("sharded_manifest");
  {
    auto index = ShardedViTriIndex::Build(w.InitialSet(), ThreeShards(w));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
  }
  const std::string manifest = dir + "/" + kShardManifestFileName;
  std::string body;
  {
    std::ifstream in(manifest);
    std::getline(in, body, '\0');
  }
  EXPECT_EQ(body, "shards 3\nassignment round-robin\n");

  // The manifest wins over the options; a disagreeing count is refused.
  ShardedIndexOptions options;
  options.num_shards = kShards;
  EXPECT_TRUE(ShardedViTriIndex::Open(dir, options).ok());
  options.num_shards = 2;
  EXPECT_TRUE(ShardedViTriIndex::Open(dir, options).status()
                  .IsInvalidArgument());

  // Shard directories without the manifest were never committed.
  ASSERT_EQ(std::remove(manifest.c_str()), 0);
  EXPECT_TRUE(ShardedViTriIndex::Open(dir, {}).status().IsNotFound());

  for (const char* bad :
       {"", "shards 0\nassignment hash\n", "shards 1025\nassignment hash\n",
        "shards -3\nassignment hash\n", "shards 3x\nassignment hash\n",
        "shards 99999999999999999999999\nassignment hash\n",
        "shards 3\nassignment zigzag\n",
        "shards 3\nassignment hash\nshards 4\n",
        "assignment hash\nshards 3\n"}) {
    std::ofstream(manifest, std::ios::trunc) << bad;
    const Status st = ShardedViTriIndex::Open(dir, {}).status();
    EXPECT_TRUE(st.IsCorruption()) << "'" << bad << "': " << st.ToString();
  }
}

TEST(ShardedRecoveryTest, GlobalReferencePointsAreNotDurable) {
  const World& w = SharedWorld();
  const std::string dir = FreshDir("sharded_global");
  ShardedIndexOptions options = ThreeShards(w);
  options.local_reference_points = false;
  auto index = ShardedViTriIndex::Build(w.InitialSet(), options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->EnableDurability(dir).IsInvalidArgument());
  EXPECT_FALSE(index->durable());
  EXPECT_TRUE(
      ShardedViTriIndex::Open(dir, options).status().IsInvalidArgument());
}

TEST(ShardedRecoveryTest, ShardDirectoryWithoutCurrentIsAnEmptyShard) {
  const World& w = SharedWorld();
  const std::string dir = FreshDir("sharded_empty_shard");
  {
    auto index = ShardedViTriIndex::Build(InitialSetWithoutShard2(w),
                                          ThreeShards(w));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->EnableDurability(dir).ok());
  }
  // What power loss inside shard 2's creation leaves: files, no CURRENT.
  ASSERT_EQ(::mkdir((dir + "/shard-2").c_str(), 0755), 0);
  std::ofstream(dir + "/shard-2/snapshot-1.vsnp.pending") << "half-written";
  std::ofstream(dir + "/shard-2/wal-1.vlog") << "never reachable";

  size_t vid = w.initial;
  while (vid % kShards != 2) ++vid;
  ASSERT_LT(vid, w.db.num_videos());
  {
    auto index = ShardedViTriIndex::Open(dir, {});
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ(index->live_shards(), 2u);
    ASSERT_TRUE(index->ValidateInvariants().ok());
    // The next insert owned by shard 2 creates it over the leftovers.
    ASSERT_TRUE(InsertVideo(&*index, w, vid).ok());
    EXPECT_EQ(index->live_shards(), 3u);
  }
  auto index = ShardedViTriIndex::Open(dir, {});
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->live_shards(), 3u);
  EXPECT_EQ(index->shard_videos(2), 1u);
  ASSERT_TRUE(index->ValidateInvariants().ok());
  EXPECT_EQ(ListDir(dir + "/shard-2"),
            (std::set<std::string>{"CURRENT", "snapshot-1.vsnp",
                                   "wal-1.vlog"}));
}

}  // namespace
}  // namespace vitri::core
