// Seeded crash-loop harness: runs a durable ingest workload, kills the
// "power" at every reachable durability operation — WAL file
// appends/syncs/truncates via FaultInjectingWalFile AND the recovery
// layer's named crash-hook points on the insert/commit/checkpoint
// paths — then reopens the directory like a rebooted process and
// checks that
//   * recovery succeeds and ValidateInvariants() is clean,
//   * no insert the durability contract acked as safe is lost,
//   * nothing beyond what was attempted appears, and the recovered
//     contents are an exact prefix of the insert stream,
//   * the recovered index still answers queries and keeps ingesting.
// The same contract holds per shard for a durable ShardedViTriIndex,
// whose workload also creates a shard mid-stream. A dry run with an
// unreachable crash op counts the points first; the suite requires
// >= 500 distinct crash points across its workloads.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/recovery.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "storage/wal.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

struct World {
  video::VideoDatabase db;
  std::vector<std::vector<ViTri>> per_video;
  std::vector<uint32_t> frame_counts;
  size_t initial = 0;
  /// vitri count after the initial build plus the first m inserts.
  std::vector<size_t> vitris_after;

  ViTriSet InitialSet() const {
    ViTriSet set;
    set.dimension = db.dimension;
    for (size_t vid = 0; vid < initial; ++vid) {
      set.frame_counts.push_back(frame_counts[vid]);
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
    w->db = synth.GenerateDatabase(0.003);
    ViTriBuilder builder;
    w->per_video.resize(w->db.num_videos());
    for (size_t vid = 0; vid < w->db.num_videos(); ++vid) {
      auto vitris = builder.Build(w->db.videos[vid]);
      EXPECT_TRUE(vitris.ok());
      w->per_video[vid] = std::move(*vitris);
      w->frame_counts.push_back(
          static_cast<uint32_t>(w->db.videos[vid].num_frames()));
    }
    w->initial = std::min<size_t>(4, w->db.num_videos() / 2);
    size_t count = w->InitialSet().vitris.size();
    w->vitris_after.push_back(count);
    for (size_t vid = w->initial; vid < w->db.num_videos(); ++vid) {
      count += w->per_video[vid].size();
      w->vitris_after.push_back(count);
    }
    return w;
  }();
  return *world;
}

struct WorkloadConfig {
  storage::WalSyncMode sync_mode = storage::WalSyncMode::kEveryCommit;
  /// Checkpoint after every Nth insert; 0 = only the final one.
  size_t checkpoint_every = 0;
  size_t num_inserts = 8;
  uint64_t seed = 1;
};

struct WorkloadOutcome {
  /// Inserts whose Insert() returned OK.
  size_t acked = 0;
  /// Inserts guaranteed recoverable: acked at the last durable point
  /// (every ack under kEveryCommit; the group-commit floor otherwise).
  size_t durable_floor = 0;
  /// Inserts started (acked plus at most one in flight at the cut).
  size_t attempted = 0;
  bool crashed = false;
  uint64_t ticks = 0;
};

/// Durability options that wire every WAL file through
/// FaultInjectingWalFile and the crash hook into the same schedule.
DurabilityOptions CrashingDurability(
    const WorkloadConfig& config,
    const std::shared_ptr<storage::CrashSchedule>& schedule) {
  DurabilityOptions dur;
  dur.wal.sync_mode = config.sync_mode;
  dur.wal.group_commits = 3;
  dur.wal_file_factory =
      [schedule](const std::string& path)
      -> Result<std::unique_ptr<storage::WalFile>> {
    VITRI_ASSIGN_OR_RETURN(std::unique_ptr<storage::PosixWalFile> base,
                           storage::PosixWalFile::Open(path));
    return std::unique_ptr<storage::WalFile>(
        std::make_unique<storage::FaultInjectingWalFile>(std::move(base),
                                                         schedule));
  };
  dur.crash_hook = [schedule](std::string_view) {
    return schedule->Tick();
  };
  return dur;
}

/// Runs the ingest workload against a fresh durable index in `dir`,
/// crashing at op `crash_at_op` of the schedule. Returns how far it got.
WorkloadOutcome RunWorkload(const std::string& dir,
                            const WorkloadConfig& config,
                            uint64_t crash_at_op) {
  const World& w = SharedWorld();
  WorkloadOutcome out;
  auto schedule =
      std::make_shared<storage::CrashSchedule>(config.seed, crash_at_op);

  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return out;
  const DurabilityOptions dur = CrashingDurability(config, schedule);

  // Track the durability floor as the workload goes. A successful
  // Checkpoint() makes everything acked so far snapshot-durable; under
  // kEveryCommit each ack is already WAL-durable; under group commit
  // the unsynced suffix of acks may legally vanish.
  size_t floor_at_checkpoint = 0;
  const auto current_floor = [&](const ViTriIndex& idx) {
    if (config.sync_mode == storage::WalSyncMode::kEveryCommit) {
      return out.acked;
    }
    return floor_at_checkpoint +
           static_cast<size_t>(idx.wal_durable_commits());
  };

  const Status enabled = index->EnableDurability(dir, dur);
  if (!enabled.ok()) {
    out.crashed = true;
    out.ticks = schedule->ticks;
    return out;
  }

  const size_t last =
      std::min(w.initial + config.num_inserts, w.db.num_videos());
  for (size_t vid = w.initial; vid < last; ++vid) {
    ++out.attempted;
    const Status inserted =
        index->Insert(static_cast<uint32_t>(vid), w.frame_counts[vid],
                      w.per_video[vid]);
    if (!inserted.ok()) {
      out.crashed = true;
      break;
    }
    ++out.acked;
    out.durable_floor = current_floor(*index);
    const size_t done = vid - w.initial + 1;
    if (config.checkpoint_every != 0 &&
        done % config.checkpoint_every == 0) {
      if (!index->Checkpoint().ok()) {
        out.crashed = true;
        break;
      }
      floor_at_checkpoint = out.acked;
      out.durable_floor = out.acked;
    }
  }
  if (!out.crashed) {
    if (index->Checkpoint().ok()) {
      floor_at_checkpoint = out.acked;
      out.durable_floor = out.acked;
    } else {
      out.crashed = true;
    }
  }
  out.durable_floor = std::max(out.durable_floor, floor_at_checkpoint);
  out.ticks = schedule->ticks;
  return out;
}

/// Reboot: reopen with healthy files (the disk works again), validate,
/// and check the contract against what the workload reported.
void CheckRecovery(const std::string& dir, const WorkloadOutcome& outcome) {
  const World& w = SharedWorld();
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  RecoveryStats stats;
  auto index = ViTriIndex::Open(dir, io, {}, &stats);
  if (!index.ok() && index.status().IsNotFound()) {
    // Power died inside EnableDurability before the first CURRENT
    // flip: there is no durable index yet, and nothing was ever acked.
    EXPECT_EQ(outcome.acked, 0u);
    EXPECT_EQ(outcome.durable_floor, 0u);
    return;
  }
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(index->ValidateInvariants().ok());

  // The recovered contents are an exact prefix of the insert stream:
  // initial videos plus the first M inserts, nothing else, nothing
  // reordered (vitri totals are cumulative and strictly increasing).
  ASSERT_GE(index->num_videos(), w.initial);
  const size_t recovered = index->num_videos() - w.initial;
  EXPECT_GE(recovered, outcome.durable_floor)
      << "a durably acked insert was lost";
  EXPECT_LE(recovered, outcome.attempted)
      << "recovery invented an insert";
  ASSERT_LT(recovered, w.vitris_after.size());
  EXPECT_EQ(index->num_vitris(), w.vitris_after[recovered])
      << "recovered contents are not the exact insert-stream prefix";

  // Still a working index: answers a query and accepts the next video.
  const size_t qvid = w.initial - 1;
  auto matches = index->Knn(w.per_video[qvid], w.frame_counts[qvid], 3,
                            KnnMethod::kComposed);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(matches->empty());
  const size_t next = w.initial + recovered;
  if (next < w.db.num_videos()) {
    ASSERT_TRUE(index
                    ->Insert(static_cast<uint32_t>(next),
                             w.frame_counts[next], w.per_video[next])
                    .ok());
  }
}

// --- Sharded workload -------------------------------------------------
// Two round-robin shards. The initial build holds only the even initial
// videos, so shard 1 starts empty and the first odd insert creates it
// (made durable inside Insert, before the ack). Each shard's recovery is
// checked against its own insert substream: the videos it owns, in
// stream order.

constexpr size_t kCrashShards = 2;

ViTriSet ShardedInitialSet(const World& w) {
  ViTriSet set = w.InitialSet();
  std::vector<ViTri> even;
  for (const ViTri& v : set.vitris) {
    if (v.video_id % kCrashShards == 0) even.push_back(v);
  }
  set.vitris = std::move(even);
  for (size_t vid = 1; vid < set.frame_counts.size(); vid += kCrashShards) {
    set.frame_counts[vid] = 0;
  }
  return set;
}

/// Exclusive end of the workload's insert stream [initial, end).
size_t StreamEnd(const WorkloadConfig& config) {
  const World& w = SharedWorld();
  return std::min(w.initial + config.num_inserts, w.db.num_videos());
}

/// Per-shard counterparts of WorkloadOutcome's insert counts.
struct ShardedOutcome {
  std::vector<size_t> acked = std::vector<size_t>(kCrashShards, 0);
  std::vector<size_t> durable_floor = std::vector<size_t>(kCrashShards, 0);
  std::vector<size_t> attempted = std::vector<size_t>(kCrashShards, 0);
  bool crashed = false;
  uint64_t ticks = 0;
};

ShardedOutcome RunShardedWorkload(const std::string& dir,
                                  const WorkloadConfig& config,
                                  uint64_t crash_at_op) {
  const World& w = SharedWorld();
  ShardedOutcome out;
  auto schedule =
      std::make_shared<storage::CrashSchedule>(config.seed, crash_at_op);

  ShardedIndexOptions options;
  options.num_shards = kCrashShards;
  options.assignment = ShardAssignment::kRoundRobin;
  options.shard_options.dimension = w.db.dimension;
  auto index = ShardedViTriIndex::Build(ShardedInitialSet(w), options);
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return out;
  EXPECT_EQ(index->live_shards(), 1u);

  // As in RunWorkload, per shard: a shard's snapshot (its creation or a
  // completed checkpoint) pins what it had acked; under group commit
  // only the synced prefix of its WAL adds to that.
  std::vector<size_t> floor_at_checkpoint(kCrashShards, 0);
  const auto update_floors = [&] {
    for (size_t s = 0; s < kCrashShards; ++s) {
      const ViTriIndex* shard = index->shard(s);
      if (shard == nullptr) continue;
      out.durable_floor[s] =
          config.sync_mode == storage::WalSyncMode::kEveryCommit
              ? out.acked[s]
              : floor_at_checkpoint[s] +
                    static_cast<size_t>(shard->wal_durable_commits());
    }
  };
  const auto checkpoint = [&] {
    if (!index->Checkpoint().ok()) return false;
    floor_at_checkpoint = out.acked;
    update_floors();
    return true;
  };

  if (!index->EnableDurability(dir, CrashingDurability(config, schedule))
           .ok()) {
    out.crashed = true;
    out.ticks = schedule->ticks;
    return out;
  }
  for (size_t vid = w.initial; vid < StreamEnd(config); ++vid) {
    const size_t s = vid % kCrashShards;
    const bool creates = index->shard(s) == nullptr;
    ++out.attempted[s];
    if (!index
             ->Insert(static_cast<uint32_t>(vid), w.frame_counts[vid],
                      w.per_video[vid])
             .ok()) {
      out.crashed = true;
      break;
    }
    ++out.acked[s];
    if (creates) floor_at_checkpoint[s] = out.acked[s];
    update_floors();
    const size_t done = vid - w.initial + 1;
    if (config.checkpoint_every != 0 && done % config.checkpoint_every == 0 &&
        !checkpoint()) {
      out.crashed = true;
      break;
    }
  }
  if (!out.crashed && !checkpoint()) out.crashed = true;
  out.ticks = schedule->ticks;
  return out;
}

/// Reboot of the sharded index: the per-shard contract, then a query
/// and an insert.
void CheckShardedRecovery(const std::string& dir, const WorkloadConfig& config,
                          const ShardedOutcome& outcome) {
  const World& w = SharedWorld();
  auto index = ShardedViTriIndex::Open(dir, {});
  if (!index.ok() && index.status().IsNotFound()) {
    // Power died inside EnableDurability before the manifest landed.
    EXPECT_EQ(outcome.acked, std::vector<size_t>(kCrashShards, 0));
    return;
  }
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_TRUE(index->ValidateInvariants().ok());
  ASSERT_EQ(index->num_shards(), kCrashShards);

  std::set<uint32_t> recovered_anywhere;
  for (size_t s = 0; s < kCrashShards; ++s) {
    // What shard s started with (shard 0 holds every built video), and
    // its insert substream.
    std::set<uint32_t> initial;
    size_t vitris = 0;
    for (size_t vid = 0; s == 0 && vid < w.initial; vid += kCrashShards) {
      initial.insert(static_cast<uint32_t>(vid));
      vitris += w.per_video[vid].size();
    }
    std::vector<uint32_t> stream;
    for (size_t vid = w.initial; vid < StreamEnd(config); ++vid) {
      if (vid % kCrashShards == s) stream.push_back(static_cast<uint32_t>(vid));
    }

    std::set<uint32_t> inserted;
    size_t shard_vitris = 0;
    if (const ViTriIndex* shard = index->shard(s)) {
      const ViTriSet contents = shard->Snapshot();
      shard_vitris = contents.vitris.size();
      for (uint32_t vid = 0; vid < contents.frame_counts.size(); ++vid) {
        if (contents.frame_counts[vid] == 0) continue;
        if (initial.erase(vid) == 0) inserted.insert(vid);
      }
    }
    EXPECT_TRUE(initial.empty()) << "shard " << s << " lost a built video";
    const size_t m = inserted.size();
    EXPECT_GE(m, outcome.durable_floor[s])
        << "shard " << s << " lost a durably acked insert";
    EXPECT_LE(m, outcome.attempted[s])
        << "shard " << s << " invented an insert";
    ASSERT_LE(m, stream.size());
    EXPECT_EQ(inserted, std::set<uint32_t>(stream.begin(), stream.begin() + m))
        << "shard " << s << " is not an exact prefix of its insert stream";
    for (size_t i = 0; i < m; ++i) vitris += w.per_video[stream[i]].size();
    EXPECT_EQ(shard_vitris, vitris) << "shard " << s;
    recovered_anywhere.insert(inserted.begin(), inserted.end());
  }

  // Still a working index: answers a query and accepts the first
  // stream video no shard recovered.
  auto matches = index->Knn(w.per_video[0], w.frame_counts[0], 3,
                            KnnMethod::kComposed);
  ASSERT_TRUE(matches.ok());
  EXPECT_FALSE(matches->empty());
  for (size_t vid = w.initial; vid < w.db.num_videos(); ++vid) {
    if (recovered_anywhere.count(static_cast<uint32_t>(vid)) != 0) continue;
    ASSERT_TRUE(index
                    ->Insert(static_cast<uint32_t>(vid), w.frame_counts[vid],
                             w.per_video[vid])
                    .ok());
    break;
  }
}

/// The six workload shapes the suite exhausts; the coverage gate below
/// dry-runs this same table, so adding or shrinking a config moves both.
struct NamedConfig {
  const char* tag;
  WorkloadConfig config;
};

std::vector<NamedConfig> SuiteConfigs() {
  auto make = [](storage::WalSyncMode mode, size_t ckpt, uint64_t seed) {
    WorkloadConfig c;
    c.sync_mode = mode;
    c.checkpoint_every = ckpt;
    c.num_inserts = 16;
    c.seed = seed;
    return c;
  };
  using storage::WalSyncMode;
  return {
      {"ec_final", make(WalSyncMode::kEveryCommit, 0, 11)},
      {"ec_ckpt3", make(WalSyncMode::kEveryCommit, 3, 22)},
      {"gc_final", make(WalSyncMode::kGrouped, 0, 33)},
      {"gc_ckpt2", make(WalSyncMode::kGrouped, 2, 44)},
      // Same schedule positions, different torn-tail slice randomness.
      {"gc_seed2", make(WalSyncMode::kGrouped, 3, 2005)},
      {"ec_ckpt2", make(WalSyncMode::kEveryCommit, 2, 55)},
  };
}

/// The sharded workload's shapes: both sync modes, each with periodic
/// checkpoints, so shard creation lands between checkpoints.
std::vector<NamedConfig> ShardedSuiteConfigs() {
  auto make = [](storage::WalSyncMode mode, size_t ckpt, uint64_t seed) {
    WorkloadConfig c;
    c.sync_mode = mode;
    c.checkpoint_every = ckpt;
    c.num_inserts = 16;
    c.seed = seed;
    return c;
  };
  using storage::WalSyncMode;
  return {
      {"sharded_ec", make(WalSyncMode::kEveryCommit, 3, 66)},
      {"sharded_gc", make(WalSyncMode::kGrouped, 4, 77)},
  };
}

/// Dry-run tick counts of every config of both tables.
uint64_t CountSuiteCrashPoints() {
  constexpr uint64_t kNever = 1ull << 60;
  uint64_t total = 0;
  for (const NamedConfig& named : SuiteConfigs()) {
    const WorkloadOutcome dry = RunWorkload(
        TempPath(std::string("crash_count_") + named.tag), named.config,
        kNever);
    EXPECT_FALSE(dry.crashed) << named.tag;
    total += dry.ticks;
  }
  for (const NamedConfig& named : ShardedSuiteConfigs()) {
    const std::string dir = TempPath(std::string("crash_count_") + named.tag);
    std::filesystem::remove_all(dir);
    const ShardedOutcome dry = RunShardedWorkload(dir, named.config, kNever);
    EXPECT_FALSE(dry.crashed) << named.tag;
    total += dry.ticks;
  }
  return total;
}

class CrashLoopTest : public ::testing::Test {
 protected:
  /// Dry-runs a workload to count crash points, then crashes at every
  /// one of them and checks recovery. `run(dir, op)` returns an outcome
  /// with `crashed` and `ticks`; `check(dir, outcome)` reboots. Every
  /// run gets a fresh directory. Returns the number of points.
  template <typename Run, typename Check>
  uint64_t ExhaustCrashPoints(const std::string& tag, const Run& run,
                              const Check& check) {
    const auto fresh = [](const std::string& name) {
      const std::string dir = TempPath(name);
      std::filesystem::remove_all(dir);
      return dir;
    };
    const auto dry = run(fresh("crash_dry_" + tag), /*crash_at_op=*/1ull << 60);
    EXPECT_FALSE(dry.crashed) << tag << ": dry run must complete";
    EXPECT_GT(dry.ticks, 0u);
    for (uint64_t op = 0; op < dry.ticks; ++op) {
      const std::string dir =
          fresh("crash_" + tag + "_" + std::to_string(op));
      const auto outcome = run(dir, op);
      EXPECT_TRUE(outcome.crashed)
          << tag << ": op " << op << " of " << dry.ticks
          << " did not crash";
      check(dir, outcome);
      if (::testing::Test::HasFatalFailure()) return 0;
    }
    return dry.ticks;
  }

  void ExhaustConfig(size_t i) {
    const NamedConfig named = SuiteConfigs().at(i);
    const uint64_t points = ExhaustCrashPoints(
        named.tag,
        [&](const std::string& dir, uint64_t op) {
          return RunWorkload(dir, named.config, op);
        },
        CheckRecovery);
    EXPECT_GT(points, 0u) << named.tag;
  }

  void ExhaustShardedConfig(size_t i) {
    const NamedConfig named = ShardedSuiteConfigs().at(i);
    const uint64_t points = ExhaustCrashPoints(
        named.tag,
        [&](const std::string& dir, uint64_t op) {
          return RunShardedWorkload(dir, named.config, op);
        },
        [&](const std::string& dir, const ShardedOutcome& outcome) {
          CheckShardedRecovery(dir, named.config, outcome);
        });
    EXPECT_GT(points, 0u) << named.tag;
  }
};

TEST_F(CrashLoopTest, EveryCommitSyncFinalCheckpointOnly) {
  ExhaustConfig(0);
}

TEST_F(CrashLoopTest, EveryCommitSyncFrequentCheckpoints) {
  ExhaustConfig(1);
}

TEST_F(CrashLoopTest, GroupCommitFinalCheckpointOnly) {
  ExhaustConfig(2);
}

TEST_F(CrashLoopTest, GroupCommitFrequentCheckpoints) {
  ExhaustConfig(3);
}

TEST_F(CrashLoopTest, SecondSeedShiftsTornTailSlices) {
  ExhaustConfig(4);
}

TEST_F(CrashLoopTest, EveryCommitSyncDenseCheckpoints) {
  ExhaustConfig(5);
}

TEST_F(CrashLoopTest, ShardedEveryCommitSyncCreatesAShard) {
  ExhaustShardedConfig(0);
}

TEST_F(CrashLoopTest, ShardedGroupCommitCreatesAShard) {
  ExhaustShardedConfig(1);
}

// The coverage contract: the tests above crash at every fault point of
// every config in SuiteConfigs() and ShardedSuiteConfigs(), and those
// points must number >= 500. Counted with crash-free dry runs so the
// check is self-contained even when ctest runs each test in its own
// process.
TEST_F(CrashLoopTest, SuiteCoversAtLeast500CrashPoints) {
  EXPECT_GE(CountSuiteCrashPoints(), 500u)
      << "crash-loop coverage shrank below the contract";
}

}  // namespace
}  // namespace vitri::core
