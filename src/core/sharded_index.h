#ifndef VITRI_CORE_SHARDED_INDEX_H_
#define VITRI_CORE_SHARDED_INDEX_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_lock.h"
#include "common/result.h"
#include "core/index.h"
#include "core/vitri.h"

namespace vitri {
class ThreadPool;
}  // namespace vitri

namespace vitri::json {
class JsonWriter;
}  // namespace vitri::json

namespace vitri::core {

/// How video ids are mapped to shards. Both assignments are pure
/// functions of (video_id, num_shards), so routing needs no directory
/// and any process can recompute the owner of any video.
enum class ShardAssignment {
  /// SplitMix64-mixed hash of the video id — even spread regardless of
  /// id density. The default.
  kHash,
  /// video_id % num_shards — predictable placement, used by tests that
  /// need to construct a specific shard layout.
  kRoundRobin,
};

const char* ShardAssignmentName(ShardAssignment assignment);

/// Resolves a requested shard count: 0 means "use the VITRI_INDEX_SHARDS
/// environment variable, else 1" (mirroring VITRI_POOL_SHARDS for the
/// buffer pool). The result is clamped to [1, kMaxIndexShards].
size_t ResolveIndexShards(size_t requested);

/// Upper bound on the shard count (a routing sanity cap, far above any
/// sensible configuration on one machine).
inline constexpr size_t kMaxIndexShards = 1024;

/// The manifest of a durable sharded index directory (DESIGN.md §13):
/// the shard count and assignment. Written last by EnableDurability, so
/// its presence is the directory's commit point.
inline constexpr char kShardManifestFileName[] = "SHARDS";

struct ShardedIndexOptions {
  /// Number of shards; 0 resolves via ResolveIndexShards().
  size_t num_shards = 0;
  /// Video-id → shard mapping.
  ShardAssignment assignment = ShardAssignment::kHash;
  /// true (default): every shard fits its own reference point on its
  /// local ViTri positions (the locally-optimal O' this index exists to
  /// measure). false: one transform is fitted on the union of all
  /// positions at Build() time and pinned into every shard via
  /// ViTriIndexOptions::transform_factory — the global-O' baseline.
  bool local_reference_points = true;
  /// Per-shard index configuration (each shard owns its own B+-tree and
  /// buffer pool built from these options). If `transform_factory` is
  /// set here it wins over `local_reference_points`.
  ViTriIndexOptions shard_options;
};

/// A corpus partitioned across N independent ViTriIndex shards, each
/// owning its own B+-tree, buffer pool, and reference point. Every
/// video's ViTris live entirely in one shard (its owner under the
/// configured assignment), so a shard computes the *complete* similarity
/// of every video it stores; merging per-shard top-k lists — each shard
/// queried with the full k — therefore yields exactly the single-index
/// result. Combined with the losslessness of key-range pruning (ranges
/// only skip zero-contribution candidates, whatever the reference
/// point), sharded KNN is result-identical to a single-shard index over
/// the same corpus: same ids, same similarities to 6 decimals (the
/// repo-wide comparison precision; per-video accumulation order is
/// unchanged, only the reference point differs). See DESIGN.md §17.
///
/// Thread-safety: a wrapper reader-writer latch guards the shard table
/// (slots start null for empty shards and are created lazily by
/// Insert). Queries take it shared and then take each shard's own latch
/// shared inside the shard's query methods; Insert normally takes it
/// shared too (the shard's exclusive latch serializes writers per
/// shard) and only takes it exclusive to create a missing shard. Lock
/// order: wrapper latch → shard latch (→ tree → pool, DESIGN.md §14);
/// no thread ever holds two shard latches at once.
///
/// Durability is per shard: EnableDurability() makes every live shard an
/// ordinary durable ViTriIndex in `<dir>/shard-<i>/` and then writes the
/// `<dir>/SHARDS` manifest; Open() recovers each shard and treats a
/// shard directory without CURRENT as an empty shard. A shard that
/// Insert() creates on a durable index is made durable before the
/// insert is acknowledged.
class ShardedViTriIndex {
 public:
  ShardedViTriIndex(ShardedViTriIndex&&) noexcept = default;
  ShardedViTriIndex& operator=(ShardedViTriIndex&&) noexcept = default;
  ShardedViTriIndex(const ShardedViTriIndex&) = delete;
  ShardedViTriIndex& operator=(const ShardedViTriIndex&) = delete;

  /// The owner shard of `video_id` — a pure function, also used by the
  /// validator and by tools printing shard distributions.
  static size_t ShardOf(uint32_t video_id, size_t num_shards,
                        ShardAssignment assignment);

  /// Partitions `set` by owner shard and bulk-builds one ViTriIndex per
  /// non-empty shard. Shards that receive no ViTris stay empty (null)
  /// until an Insert routes a video to them. Videos carrying a frame
  /// count but no ViTris are only represented if their owner shard is
  /// non-empty (they can never match a query either way). Fails on an
  /// entirely empty set, like ViTriIndex::Build.
  static Result<ShardedViTriIndex> Build(const ViTriSet& set,
                                         const ShardedIndexOptions& options);

  /// Recovers a durable sharded index from `dir` (see the class
  /// comment). NotFound without a SHARDS manifest, Corruption for a
  /// malformed one. The manifest is authoritative about the shard count
  /// and assignment, as each shard's snapshot is about the dimension: a
  /// non-zero `options.num_shards` that disagrees is InvalidArgument,
  /// and 0 takes the manifest's count (never VITRI_INDEX_SHARDS).
  /// `stats` sums the shards' recovery stats (generation: the maximum).
  static Result<ShardedViTriIndex> Open(const std::string& dir,
                                        ShardedIndexOptions options,
                                        DurabilityOptions durability = {},
                                        RecoveryStats* stats = nullptr);

  /// Makes every live shard durable in `<dir>/shard-<i>/` (ViTriIndex::
  /// EnableDurability), then writes the manifest. Fails if the index is
  /// already durable, and with local_reference_points = false (the
  /// pinned global reference point is not persisted).
  Status EnableDurability(const std::string& dir,
                          DurabilityOptions durability = {})
      VITRI_EXCLUDES(*latch_);

  /// Checkpoints every live shard (ViTriIndex::Checkpoint).
  Status Checkpoint() VITRI_EXCLUDES(*latch_);

  /// Forces every shard's acked inserts durable (ViTriIndex::SyncWal).
  Status SyncWal() VITRI_EXCLUDES(*latch_);

  /// True once EnableDurability/Open made the index durable.
  bool durable() const VITRI_EXCLUDES(*latch_);
  /// Highest checkpoint generation over the shards (0 when not durable).
  uint64_t generation() const VITRI_EXCLUDES(*latch_);
  /// WAL commit counters summed over the shards.
  uint64_t wal_commits() const VITRI_EXCLUDES(*latch_);
  uint64_t wal_durable_commits() const VITRI_EXCLUDES(*latch_);

  /// Routes the insert to the owner shard, creating it first if this is
  /// the shard's first video (the new shard's reference point is fitted
  /// on that video alone in local mode, or reuses the pinned global
  /// transform otherwise). Creating a shard requires `vitris` to be
  /// non-empty. Rejects what ViTriIndex::Insert rejects.
  Status Insert(uint32_t video_id, uint32_t num_frames,
                const std::vector<ViTri>& vitris) VITRI_EXCLUDES(*latch_);

  /// Top-k of one query: a BatchKnn of one, run inline on the calling
  /// thread. `costs`, if given, aggregates all shards (cpu_seconds is
  /// this call's wall time); `shard_costs`, if given, is resized to
  /// num_shards() and entry i holds shard i's own costs (zeros for empty
  /// shards, cpu_seconds the shard's own Knn time) — the bench reads
  /// per-shard pruning ratios from it.
  Result<std::vector<VideoMatch>> Knn(
      const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
      KnnMethod method, QueryCosts* costs = nullptr,
      std::vector<QueryCosts>* shard_costs = nullptr) VITRI_EXCLUDES(*latch_);

  /// An absolute steady-clock deadline; std::nullopt means none.
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// The one query scatter: runs one task per (query, live shard) — the
  /// shard's own Knn with the full k — then merges each query's
  /// per-shard lists with a bounded top-k heap ordered by (similarity
  /// desc, video id asc), the repo-wide tie-break. Results are indexed
  /// like `queries` and identical to calling Knn() per query, whatever
  /// the executor (merging is order-independent given that total order).
  ///
  /// `executor` runs the tasks; null runs them inline on the calling
  /// thread. BatchKnn never builds a pool: the caller owns one, sized
  /// once, and may share it between concurrent calls. It must not be
  /// the pool the caller itself runs on (ThreadPool::ParallelFor).
  /// With a `deadline`, each task checks it before it starts, and a
  /// task that finds it passed makes the call return DeadlineExceeded.
  /// `costs` aggregates the batch: page/physical counts are the
  /// per-shard pool deltas across the batch (concurrent tasks on one
  /// shard see each other's traffic, so per-task deltas would overlap),
  /// cpu_seconds the batch wall time, the rest summed per-task counters.
  /// `shard_costs`, if given, is resized to num_shards(); entry i sums
  /// shard i's tasks the same way (cpu_seconds: their summed Knn time).
  /// `traces`, if given, is resized to queries.size(); each task traces
  /// its shard's Knn, and trace q holds every live shard's spans in
  /// shard order, each tagged with its shard. Trace q's total runs from
  /// the call's start to the end of query q's last shard task, so in a
  /// multi-query batch it is that query's latency, not the batch's.
  Result<std::vector<std::vector<VideoMatch>>> BatchKnn(
      const std::vector<BatchQuery>& queries, size_t k, KnnMethod method,
      ThreadPool* executor, QueryCosts* costs = nullptr,
      std::vector<QueryTrace>* traces = nullptr, Deadline deadline = {},
      std::vector<QueryCosts>* shard_costs = nullptr) VITRI_EXCLUDES(*latch_);

  /// Deep self-check, PR 2 validator pattern: every shard passes its own
  /// ValidateInvariants(), every video stored in shard s (frame count or
  /// ViTris) actually maps to s under the configured assignment, no
  /// video appears in more than one shard, and every live shard's
  /// reference point is finite in every coordinate.
  Status ValidateInvariants() VITRI_EXCLUDES(*latch_);

  /// Merged copy of all shards' contents as one ViTriSet (frame counts
  /// keyed by global video id; ViTris concatenated in shard order).
  ViTriSet Snapshot() const VITRI_EXCLUDES(*latch_);

  size_t num_shards() const { return num_shards_; }
  ShardAssignment assignment() const { return options_.assignment; }
  const ShardedIndexOptions& options() const { return options_; }

  /// Videos actually stored (frame count recorded), summed over shards.
  /// Unlike ViTriIndex::num_videos() this counts videos, not the id-space
  /// extent.
  size_t num_videos() const VITRI_EXCLUDES(*latch_);
  /// ViTris stored, summed over shards.
  size_t num_vitris() const VITRI_EXCLUDES(*latch_);
  /// Shards currently holding data.
  size_t live_shards() const VITRI_EXCLUDES(*latch_);
  /// Max B+-tree height over live shards (0 when all empty).
  uint32_t tree_height() const VITRI_EXCLUDES(*latch_);
  /// Videos stored in shard i (0 for empty shards).
  size_t shard_videos(size_t i) const VITRI_EXCLUDES(*latch_);

  /// Writes the index's stats object: the totals the accessors above
  /// report, plus `per_shard` (one entry per shard, empty ones zero):
  /// videos, vitris, tree_height and `pool`, the shard's folded pool
  /// counters, resident pages and one counter object per pool shard.
  /// Read from the shards themselves under one shared hold of the
  /// wrapper latch, so the numbers belong to this index alone.
  void WriteStatsJson(json::JsonWriter* w) const VITRI_EXCLUDES(*latch_);

  /// Shard i, or nullptr while it is empty. A non-null pointer stays
  /// valid for the wrapper's lifetime (slots only ever go null →
  /// non-null), so callers may hold it across the latch release.
  const ViTriIndex* shard(size_t i) const VITRI_EXCLUDES(*latch_);

  /// Test seam: mutable shard access that bypasses routing, so
  /// corruption tests can place a video in the wrong shard and prove
  /// ValidateInvariants() catches it. Never use outside tests.
  ViTriIndex* shard_for_testing(size_t i) VITRI_EXCLUDES(*latch_);

 private:
  ShardedViTriIndex() = default;

  /// Sizes the shard table (all slots empty) for `num_shards` shards.
  /// Caller holds the latch exclusively.
  void InitShardsLocked(size_t num_shards) VITRI_REQUIRES(*latch_);

  /// Builds the per-shard ViTriIndexOptions (injecting the pinned
  /// global transform when configured).
  ViTriIndexOptions ShardOptions() const;

  /// Creates shard `s` from its first video, durable before it is
  /// published when the index is. Caller holds the wrapper latch
  /// exclusively.
  Status CreateShardLocked(size_t s, uint32_t video_id, uint32_t num_frames,
                           const std::vector<ViTri>& vitris)
      VITRI_REQUIRES(*latch_);

  ShardedIndexOptions options_;
  size_t num_shards_ = 1;
  /// Set when local_reference_points is false: the transform fitted on
  /// the whole build-time corpus, pinned into every shard (including
  /// ones created later by Insert).
  std::shared_ptr<const OneDimensionalTransform> global_transform_;

  std::unique_ptr<SharedMutex> latch_ = std::make_unique<SharedMutex>();
  std::vector<std::unique_ptr<ViTriIndex>> shards_ VITRI_GUARDED_BY(*latch_);
  /// Durable state: the directory holding SHARDS and the shard
  /// directories, and the options every shard's WAL is opened with
  /// (shards Insert creates later too). Empty while not durable.
  std::string dur_dir_ VITRI_GUARDED_BY(*latch_);
  DurabilityOptions dur_ VITRI_GUARDED_BY(*latch_);
};

/// Streaming construction front-end for the out-of-core ingest path:
/// buffers the first `seed_videos` summaries, bulk-builds the sharded
/// index from that seed sample (so per-shard reference points are
/// fitted on real local data, not a single video), then routes every
/// further Add() as an Insert. Finish() builds from whatever is
/// buffered if the seed quota was never reached. Not thread-safe; feed
/// it from one thread (the summarize fan-out happens upstream).
class ShardedIndexBuilder {
 public:
  explicit ShardedIndexBuilder(ShardedIndexOptions options,
                               size_t seed_videos = 4096);

  /// Adds one summarized video. `vitris` may be empty only before the
  /// index goes live (such videos are dropped if their owner shard
  /// stays empty — see ShardedViTriIndex::Build).
  Status Add(uint32_t video_id, uint32_t num_frames,
             std::vector<ViTri> vitris);

  size_t videos_added() const { return videos_added_; }
  /// True once the seed sample has been bulk-built and Add() delegates
  /// to Insert().
  bool live() const { return index_.has_value(); }

  /// Returns the finished index. The builder is spent afterwards.
  Result<ShardedViTriIndex> Finish() &&;

 private:
  Status GoLive();

  ShardedIndexOptions options_;
  size_t seed_videos_;
  size_t videos_added_ = 0;
  int dimension_ = 0;
  /// Seed buffer, assembled into one ViTriSet at go-live.
  std::vector<ViTri> pending_vitris_;
  std::vector<std::pair<uint32_t, uint32_t>> pending_frames_;  // (id, frames)
  std::optional<ShardedViTriIndex> index_;
};

}  // namespace vitri::core

#endif  // VITRI_CORE_SHARDED_INDEX_H_
