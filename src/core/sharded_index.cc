#include "core/sharded_index.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/json.h"
#include "common/os.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/recovery.h"
#include "core/validate.h"
#include "storage/io_stats.h"

namespace vitri::core {
namespace {

/// SplitMix64 finalizer — the same mixer the repo's Rng seeds with.
/// Video ids are often dense sequential integers; the mixer spreads
/// them evenly across any shard count.
uint64_t MixVideoId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Merges per-shard top-k lists (each sorted best-first by RanksBefore,
/// the order every shard ranks with, so merged output is ordered exactly
/// like single-index output) into one global top-k with a bounded heap:
/// the heap holds at most k matches with the *worst* retained match on
/// top, so each candidate costs O(log k) and a sorted input list is
/// abandoned at the first element that cannot improve the heap. Every
/// video id appears in exactly one shard, so ties between distinct
/// entries never involve equal (similarity, id) pairs and the order is
/// total.
std::vector<VideoMatch> MergeTopK(
    const std::vector<std::vector<VideoMatch>>& lists, size_t k) {
  std::vector<VideoMatch> heap;
  if (k == 0) return heap;
  for (const std::vector<VideoMatch>& list : lists) {
    for (const VideoMatch& m : list) {
      if (heap.size() < k) {
        heap.push_back(m);
        std::push_heap(heap.begin(), heap.end(), RanksBefore);
      } else if (RanksBefore(m, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), RanksBefore);
        heap.back() = m;
        std::push_heap(heap.begin(), heap.end(), RanksBefore);
      } else {
        break;  // Sorted best-first: nothing later in this list fits.
      }
    }
  }
  std::sort_heap(heap.begin(), heap.end(), RanksBefore);
  return heap;
}

std::string ShardDir(const std::string& dir, size_t shard) {
  return dir + "/shard-" + std::to_string(shard);
}

constexpr char kGlobalReferenceNotDurable[] =
    "durability needs local reference points (the pinned global "
    "reference point is not persisted)";

/// What the SHARDS manifest records.
struct ShardManifest {
  size_t num_shards = 0;
  ShardAssignment assignment = ShardAssignment::kHash;
};

std::string ManifestBody(size_t num_shards, ShardAssignment assignment) {
  return "shards " + std::to_string(num_shards) + "\nassignment " +
         ShardAssignmentName(assignment) + "\n";
}

/// Reads `dir`/SHARDS: "shards <N>\nassignment <name>\n". NotFound when
/// absent (nothing was ever committed there), Corruption when anything
/// in it is off.
Result<ShardManifest> ReadManifest(const std::string& dir) {
  std::ifstream in(dir + "/" + kShardManifestFileName);
  if (!in) {
    return Status::NotFound("no durable sharded index at " + dir +
                            " (missing " + kShardManifestFileName + ")");
  }
  std::string shards_key;
  std::string count;
  std::string assignment_key;
  std::string name;
  std::string extra;
  in >> shards_key >> count >> assignment_key >> name;
  const Status corrupt = Status::Corruption(
      "malformed " + std::string(kShardManifestFileName) + " in " + dir);
  if (shards_key != "shards" || assignment_key != "assignment" ||
      (in >> extra) || count.empty() ||
      count.find_first_not_of("0123456789") != std::string::npos) {
    return corrupt;
  }
  errno = 0;
  const unsigned long long parsed = std::strtoull(count.c_str(), nullptr, 10);
  if (errno != 0 || parsed < 1 || parsed > kMaxIndexShards) return corrupt;
  ShardManifest manifest;
  manifest.num_shards = static_cast<size_t>(parsed);
  for (const ShardAssignment a :
       {ShardAssignment::kHash, ShardAssignment::kRoundRobin}) {
    if (name == ShardAssignmentName(a)) {
      manifest.assignment = a;
      return manifest;
    }
  }
  return corrupt;
}

void AddShardStats(RecoveryStats* total, const RecoveryStats& shard) {
  total->generation = std::max(total->generation, shard.generation);
  total->snapshot_vitris += shard.snapshot_vitris;
  total->snapshot_videos += shard.snapshot_videos;
  total->wal_commits_replayed += shard.wal_commits_replayed;
  total->wal_records_applied += shard.wal_records_applied;
  total->wal_records_discarded += shard.wal_records_discarded;
  total->wal_bytes_discarded += shard.wal_bytes_discarded;
  total->wal_torn_tail = total->wal_torn_tail || shard.wal_torn_tail;
  total->recovered_vitris += shard.recovered_vitris;
  total->recovered_videos += shard.recovered_videos;
}

}  // namespace

const char* ShardAssignmentName(ShardAssignment assignment) {
  switch (assignment) {
    case ShardAssignment::kHash:
      return "hash";
    case ShardAssignment::kRoundRobin:
      return "round-robin";
  }
  return "?";
}

size_t ResolveIndexShards(size_t requested) {
  size_t shards = requested;
  if (shards == 0) {
    shards = 1;
    if (const char* env = GetEnv("VITRI_INDEX_SHARDS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0) {
        shards = static_cast<size_t>(parsed);
      }
    }
  }
  return std::min(std::max<size_t>(shards, 1), kMaxIndexShards);
}

size_t ShardedViTriIndex::ShardOf(uint32_t video_id, size_t num_shards,
                                  ShardAssignment assignment) {
  if (num_shards <= 1) return 0;
  switch (assignment) {
    case ShardAssignment::kRoundRobin:
      return video_id % num_shards;
    case ShardAssignment::kHash:
      break;
  }
  return static_cast<size_t>(MixVideoId(video_id) % num_shards);
}

ViTriIndexOptions ShardedViTriIndex::ShardOptions() const {
  ViTriIndexOptions opts = options_.shard_options;
  if (!opts.transform_factory && global_transform_ != nullptr) {
    // Pin the build-time global reference point into this shard (and
    // into every shard Insert() creates later). The factory ignores the
    // shard's own positions by design — that is the global-O' baseline.
    opts.transform_factory =
        [transform = global_transform_](const std::vector<linalg::Vec>&)
        -> Result<OneDimensionalTransform> { return *transform; };
  }
  return opts;
}

Result<ShardedViTriIndex> ShardedViTriIndex::Build(
    const ViTriSet& set, const ShardedIndexOptions& options) {
  if (set.vitris.empty()) {
    return Status::InvalidArgument("cannot build an index over no ViTris");
  }
  ShardedViTriIndex index;
  index.options_ = options;
  const size_t n = ResolveIndexShards(options.num_shards);

  if (!options.local_reference_points &&
      !options.shard_options.transform_factory) {
    std::vector<linalg::Vec> positions;
    positions.reserve(set.vitris.size());
    for (const ViTri& v : set.vitris) positions.push_back(v.position);
    VITRI_ASSIGN_OR_RETURN(
        OneDimensionalTransform t,
        OneDimensionalTransform::Fit(positions,
                                     options.shard_options.reference,
                                     options.shard_options.margin_factor));
    index.global_transform_ =
        std::make_shared<const OneDimensionalTransform>(std::move(t));
  }

  // Partition by owner shard. Each part keeps the global-id-keyed frame
  // count table (zeros for foreign videos): RankSharedFrames() skips
  // zero-frame videos and the shard validator only checks referenced
  // ids, so the padding is inert.
  std::vector<ViTriSet> parts(n);
  for (ViTriSet& part : parts) {
    part.dimension = set.dimension;
    part.frame_counts.assign(set.frame_counts.size(), 0);
  }
  for (const ViTri& v : set.vitris) {
    parts[ShardOf(v.video_id, n, options.assignment)].vitris.push_back(v);
  }
  for (uint32_t vid = 0; vid < set.frame_counts.size(); ++vid) {
    if (set.frame_counts[vid] == 0) continue;
    ViTriSet& part = parts[ShardOf(vid, n, options.assignment)];
    if (!part.vitris.empty()) part.frame_counts[vid] = set.frame_counts[vid];
  }

  const ViTriIndexOptions shard_opts = index.ShardOptions();
  {
    // The index is still private to this thread; holding its latch here
    // is uncontended and satisfies the guarded-member contracts.
    WriterLock lock(*index.latch_);
    index.InitShardsLocked(n);
    for (size_t s = 0; s < n; ++s) {
      if (parts[s].vitris.empty()) continue;
      VITRI_ASSIGN_OR_RETURN(ViTriIndex shard,
                             ViTriIndex::Build(parts[s], shard_opts));
      index.shards_[s] = std::make_unique<ViTriIndex>(std::move(shard));
    }
  }
  return index;
}

void ShardedViTriIndex::InitShardsLocked(size_t num_shards) {
  num_shards_ = num_shards;
  options_.num_shards = num_shards;
  shards_.resize(num_shards);
}

Result<ShardedViTriIndex> ShardedViTriIndex::Open(
    const std::string& dir, ShardedIndexOptions options,
    DurabilityOptions durability, RecoveryStats* stats) {
  if (!options.local_reference_points) {
    return Status::InvalidArgument(kGlobalReferenceNotDurable);
  }
  VITRI_ASSIGN_OR_RETURN(const ShardManifest manifest, ReadManifest(dir));
  if (options.num_shards != 0 && options.num_shards != manifest.num_shards) {
    return Status::InvalidArgument(
        "requested " + std::to_string(options.num_shards) +
        " shards, but the index at " + dir + " has " +
        std::to_string(manifest.num_shards));
  }
  ShardedViTriIndex index;
  index.options_ = options;
  index.options_.assignment = manifest.assignment;
  RecoveryStats total;
  {
    // Private to this thread until Open returns (see Build).
    WriterLock lock(*index.latch_);
    index.InitShardsLocked(manifest.num_shards);
    int dimension = 0;
    for (size_t s = 0; s < manifest.num_shards; ++s) {
      const std::string shard_dir = ShardDir(dir, s);
      // No CURRENT: power was lost before the shard's first checkpoint
      // flip, so nothing in it was ever acknowledged. The shard is empty.
      if (ReadCurrentFile(shard_dir).status().IsNotFound()) continue;
      RecoveryStats shard_stats;
      VITRI_ASSIGN_OR_RETURN(
          ViTriIndex shard,
          ViTriIndex::Open(shard_dir, index.options_.shard_options,
                           durability, &shard_stats));
      if (dimension != 0 && shard.options().dimension != dimension) {
        return Status::Corruption("shards of " + dir +
                                  " disagree on the dimension");
      }
      dimension = shard.options().dimension;
      AddShardStats(&total, shard_stats);
      index.shards_[s] = std::make_unique<ViTriIndex>(std::move(shard));
    }
    if (dimension == 0) {
      return Status::Corruption("no shard of " + dir + " holds data");
    }
    index.options_.shard_options.dimension = dimension;
    index.dur_dir_ = dir;
    index.dur_ = std::move(durability);
  }
  if (stats != nullptr) *stats = total;
  return index;
}

Status ShardedViTriIndex::EnableDurability(const std::string& dir,
                                           DurabilityOptions durability) {
  if (!options_.local_reference_points) {
    return Status::InvalidArgument(kGlobalReferenceNotDurable);
  }
  WriterLock lock(*latch_);
  if (!dur_dir_.empty()) {
    return Status::InvalidArgument("index is already durable");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + dir + "): " + ErrnoString(errno));
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    // Skipping already-durable shards lets a failed call be retried.
    if (shards_[s] == nullptr || shards_[s]->durable()) continue;
    VITRI_RETURN_IF_ERROR(
        shards_[s]->EnableDurability(ShardDir(dir, s), durability));
  }
  // The manifest goes last: it is the commit point Open looks for.
  VITRI_RETURN_IF_ERROR(WriteFileAtomically(
      dir, kShardManifestFileName,
      ManifestBody(num_shards_, options_.assignment)));
  dur_dir_ = dir;
  dur_ = std::move(durability);
  return Status::OK();
}

Status ShardedViTriIndex::Checkpoint() {
  ReaderLock lock(*latch_);
  if (dur_dir_.empty()) {
    return Status::InvalidArgument("index is not durable");
  }
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) VITRI_RETURN_IF_ERROR(shard->Checkpoint());
  }
  return Status::OK();
}

Status ShardedViTriIndex::SyncWal() {
  ReaderLock lock(*latch_);
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) VITRI_RETURN_IF_ERROR(shard->SyncWal());
  }
  return Status::OK();
}

bool ShardedViTriIndex::durable() const {
  ReaderLock lock(*latch_);
  return !dur_dir_.empty();
}

uint64_t ShardedViTriIndex::generation() const {
  ReaderLock lock(*latch_);
  uint64_t generation = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) {
      generation = std::max(generation, shard->generation());
    }
  }
  return generation;
}

uint64_t ShardedViTriIndex::wal_commits() const {
  ReaderLock lock(*latch_);
  uint64_t commits = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) commits += shard->wal_commits();
  }
  return commits;
}

uint64_t ShardedViTriIndex::wal_durable_commits() const {
  ReaderLock lock(*latch_);
  uint64_t commits = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) commits += shard->wal_durable_commits();
  }
  return commits;
}

Status ShardedViTriIndex::CreateShardLocked(size_t s, uint32_t video_id,
                                            uint32_t num_frames,
                                            const std::vector<ViTri>& vitris) {
  if (vitris.empty()) {
    return Status::InvalidArgument(
        "cannot create shard " + std::to_string(s) +
        " from video " + std::to_string(video_id) + " with no ViTris");
  }
  const ViTriIndexOptions shard_opts = ShardOptions();
  VITRI_RETURN_IF_ERROR(ValidateInsert(video_id, num_frames, vitris,
                                       shard_opts.dimension,
                                       shard_opts.epsilon));
  ViTriSet set;
  set.dimension = shard_opts.dimension;
  set.vitris = vitris;
  set.frame_counts.assign(static_cast<size_t>(video_id) + 1, 0);
  set.frame_counts[video_id] = num_frames;
  VITRI_ASSIGN_OR_RETURN(ViTriIndex built, ViTriIndex::Build(set, shard_opts));
  auto shard = std::make_unique<ViTriIndex>(std::move(built));
  // Durable before it is published: a shard that failed to become
  // durable never serves, so no insert it took can be lost.
  if (!dur_dir_.empty()) {
    VITRI_RETURN_IF_ERROR(shard->EnableDurability(ShardDir(dur_dir_, s), dur_));
  }
  shards_[s] = std::move(shard);
  return Status::OK();
}

Status ShardedViTriIndex::Insert(uint32_t video_id, uint32_t num_frames,
                                 const std::vector<ViTri>& vitris) {
  const size_t s = ShardOf(video_id, num_shards_, options_.assignment);
  {
    // Fast path: the owner shard exists, so the wrapper latch is only
    // needed shared (the slot pointer is immutable once non-null) and
    // the shard's own exclusive latch serializes writers per shard.
    ReaderLock lock(*latch_);
    if (shards_[s] != nullptr) {
      return shards_[s]->Insert(video_id, num_frames, vitris);
    }
  }
  // First video of shard s: exclusive wrapper latch, double-checked.
  WriterLock lock(*latch_);
  if (shards_[s] != nullptr) {
    return shards_[s]->Insert(video_id, num_frames, vitris);
  }
  return CreateShardLocked(s, video_id, num_frames, vitris);
}

Result<std::vector<VideoMatch>> ShardedViTriIndex::Knn(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    KnnMethod method, QueryCosts* costs,
    std::vector<QueryCosts>* shard_costs) {
  VITRI_ASSIGN_OR_RETURN(
      std::vector<std::vector<VideoMatch>> results,
      BatchKnn({BatchQuery{query, query_frames}}, k, method,
               /*executor=*/nullptr, costs, /*traces=*/nullptr,
               /*deadline=*/{}, shard_costs));
  return std::move(results.front());
}

Result<std::vector<std::vector<VideoMatch>>> ShardedViTriIndex::BatchKnn(
    const std::vector<BatchQuery>& queries, size_t k, KnnMethod method,
    ThreadPool* executor, QueryCosts* costs, std::vector<QueryTrace>* traces,
    Deadline deadline, std::vector<QueryCosts>* shard_costs) {
  Stopwatch watch;
  const size_t n = queries.size();
  std::vector<std::vector<VideoMatch>> out(n);
  QueryCosts total;
  std::vector<QueryCosts> per_shard(num_shards_);
  if (traces != nullptr) {
    // One epoch, the call's start, for every query's trace.
    QueryTrace started;
    started.Begin();
    traces->assign(n, started);
  }
  {
    ReaderLock lock(*latch_);
    std::vector<ViTriIndex*> live;
    std::vector<uint32_t> live_ids;
    live.reserve(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      if (shards_[s] == nullptr) continue;
      live.push_back(shards_[s].get());
      live_ids.push_back(static_cast<uint32_t>(s));
    }
    if (n > 0 && !live.empty()) {
      std::vector<storage::IoSnapshot> before;
      before.reserve(live.size());
      for (const ViTriIndex* shard : live) {
        before.push_back(shard->io_stats().Snapshot());
      }

      // Scatter: one task per (query, live shard) pair. Each task writes
      // only its own slots; the shard's Knn takes the shard latch
      // shared, so tasks never contend on a writer. The tasks run under
      // this frame's shared wrapper hold, which outlives the scatter.
      const size_t tasks = n * live.size();
      std::vector<std::vector<std::vector<VideoMatch>>> scattered(
          n, std::vector<std::vector<VideoMatch>>(live.size()));
      std::vector<QueryCosts> task_costs(tasks);
      std::vector<QueryTrace> task_traces(traces != nullptr ? tasks : 0);
      std::vector<Status> statuses(tasks);
      const auto run_one = [&](size_t t) {
        latch_->AssertHeldShared();
        if (deadline.has_value() &&
            std::chrono::steady_clock::now() > *deadline) {
          statuses[t] =
              Status::DeadlineExceeded("deadline expired during execution");
          return;
        }
        const size_t q = t / live.size();
        const size_t j = t % live.size();
        auto matches = live[j]->Knn(
            queries[q].vitris, queries[q].num_frames, k, method,
            &task_costs[t], task_traces.empty() ? nullptr : &task_traces[t]);
        if (!matches.ok()) {
          statuses[t] = matches.status();
          return;
        }
        scattered[q][j] = std::move(*matches);
      };
      if (executor == nullptr || tasks == 1) {
        for (size_t t = 0; t < tasks; ++t) run_one(t);
      } else {
        executor->ParallelFor(tasks, run_one);
      }
      for (const Status& status : statuses) VITRI_RETURN_IF_ERROR(status);

      for (size_t t = 0; t < tasks; ++t) {
        per_shard[live_ids[t % live.size()]] += task_costs[t];
      }
      for (size_t j = 0; j < live.size(); ++j) {
        const storage::IoSnapshot delta =
            live[j]->io_stats().Snapshot() - before[j];
        QueryCosts& shard = per_shard[live_ids[j]];
        shard.page_accesses = delta.logical_reads;
        shard.physical_reads = delta.physical_reads;
        total += shard;
      }

      // Gather: merging is commutative over shards given the total
      // (similarity, id) order, so results are identical to sequential
      // per-query Knn regardless of task scheduling.
      for (size_t q = 0; q < n; ++q) out[q] = MergeTopK(scattered[q], k);
      // Tasks run query-major, so each query's spans land in shard order;
      // each query's total ends with its own last shard, not the batch.
      for (size_t t = 0; t < task_traces.size(); ++t) {
        (*traces)[t / live.size()].AppendShard(task_traces[t],
                                               live_ids[t % live.size()]);
      }
    }
  }
  total.cpu_seconds = watch.ElapsedSeconds();
  if (costs != nullptr) *costs = total;
  if (shard_costs != nullptr) *shard_costs = std::move(per_shard);
  return out;
}

Status ShardedViTriIndex::ValidateInvariants() {
  // Exclusive on the wrapper so no shard is created mid-walk; each
  // shard's own validator re-latches that shard exclusively (wrapper →
  // shard order, never two shards at once).
  WriterLock lock(*latch_);
  std::unordered_map<uint32_t, size_t> owner_of;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s] == nullptr) continue;
    VITRI_RETURN_IF_ERROR(shards_[s]->ValidateInvariants());

    const OneDimensionalTransform transform = shards_[s]->transform();
    for (const double x : transform.reference_point()) {
      if (!std::isfinite(x)) {
        return Status::Corruption("shard " + std::to_string(s) +
                                  " reference point is not finite");
      }
    }

    const ViTriSet snapshot = shards_[s]->Snapshot();
    std::unordered_set<uint32_t> local;
    for (const ViTri& v : snapshot.vitris) local.insert(v.video_id);
    for (uint32_t vid = 0; vid < snapshot.frame_counts.size(); ++vid) {
      if (snapshot.frame_counts[vid] > 0) local.insert(vid);
    }
    for (const uint32_t vid : local) {
      const auto [it, inserted] = owner_of.emplace(vid, s);
      if (!inserted) {
        return Status::Corruption(
            "video " + std::to_string(vid) + " present in shards " +
            std::to_string(it->second) + " and " + std::to_string(s));
      }
      const size_t want = ShardOf(vid, num_shards_, options_.assignment);
      if (want != s) {
        return Status::Corruption(
            "video " + std::to_string(vid) + " stored in shard " +
            std::to_string(s) + " but maps to shard " +
            std::to_string(want) + " under " +
            ShardAssignmentName(options_.assignment) + " assignment");
      }
    }
  }
  return Status::OK();
}

ViTriSet ShardedViTriIndex::Snapshot() const {
  ReaderLock lock(*latch_);
  ViTriSet out;
  out.dimension = options_.shard_options.dimension;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (shards_[s] == nullptr) continue;
    ViTriSet snapshot = shards_[s]->Snapshot();
    out.vitris.insert(out.vitris.end(),
                      std::make_move_iterator(snapshot.vitris.begin()),
                      std::make_move_iterator(snapshot.vitris.end()));
    if (snapshot.frame_counts.size() > out.frame_counts.size()) {
      out.frame_counts.resize(snapshot.frame_counts.size(), 0);
    }
    for (uint32_t vid = 0; vid < snapshot.frame_counts.size(); ++vid) {
      if (snapshot.frame_counts[vid] > 0) {
        out.frame_counts[vid] = snapshot.frame_counts[vid];
      }
    }
  }
  return out;
}

size_t ShardedViTriIndex::num_videos() const {
  ReaderLock lock(*latch_);
  size_t total = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) total += shard->stored_videos();
  }
  return total;
}

size_t ShardedViTriIndex::num_vitris() const {
  ReaderLock lock(*latch_);
  size_t total = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) total += shard->num_vitris();
  }
  return total;
}

size_t ShardedViTriIndex::live_shards() const {
  ReaderLock lock(*latch_);
  size_t live = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) ++live;
  }
  return live;
}

uint32_t ShardedViTriIndex::tree_height() const {
  ReaderLock lock(*latch_);
  uint32_t height = 0;
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    if (shard != nullptr) height = std::max(height, shard->tree_height());
  }
  return height;
}

size_t ShardedViTriIndex::shard_videos(size_t i) const {
  ReaderLock lock(*latch_);
  if (i >= shards_.size() || shards_[i] == nullptr) return 0;
  return shards_[i]->stored_videos();
}

void ShardedViTriIndex::WriteStatsJson(json::JsonWriter* w) const {
  ReaderLock lock(*latch_);
  size_t videos = 0;
  size_t vitris = 0;
  size_t live = 0;
  uint32_t height = 0;
  uint64_t generation = 0;
  uint64_t commits = 0;
  uint64_t durable_commits = 0;
  json::JsonWriter per_shard;
  per_shard.BeginArray();
  for (const std::unique_ptr<ViTriIndex>& shard : shards_) {
    const size_t shard_videos = shard ? shard->stored_videos() : 0;
    const size_t shard_vitris = shard ? shard->num_vitris() : 0;
    const uint32_t shard_height = shard ? shard->tree_height() : 0;
    videos += shard_videos;
    vitris += shard_vitris;
    height = std::max(height, shard_height);
    if (shard != nullptr) {
      ++live;
      generation = std::max(generation, shard->generation());
      commits += shard->wal_commits();
      durable_commits += shard->wal_durable_commits();
    }
    per_shard.BeginObject();
    per_shard.Key("videos");
    per_shard.Uint(shard_videos);
    per_shard.Key("vitris");
    per_shard.Uint(shard_vitris);
    per_shard.Key("tree_height");
    per_shard.Uint(shard_height);
    per_shard.Key("pool");
    per_shard.BeginObject();
    storage::WriteIoSnapshotFields(
        shard ? shard->io_stats().Snapshot() : storage::IoSnapshot{},
        &per_shard);
    per_shard.Key("resident");
    per_shard.Uint(shard ? shard->pool_resident() : 0);
    per_shard.Key("shards");
    per_shard.BeginArray();
    if (shard != nullptr) {
      for (const storage::IoSnapshot& pool_shard : shard->shard_io_stats()) {
        per_shard.BeginObject();
        storage::WriteIoSnapshotFields(pool_shard, &per_shard);
        per_shard.EndObject();
      }
    }
    per_shard.EndArray();
    per_shard.EndObject();
    per_shard.EndObject();
  }
  per_shard.EndArray();

  w->BeginObject();
  w->Key("videos");
  w->Uint(videos);
  w->Key("vitris");
  w->Uint(vitris);
  w->Key("tree_height");
  w->Uint(height);
  w->Key("shards");
  w->Uint(num_shards_);
  w->Key("live_shards");
  w->Uint(live);
  w->Key("assignment");
  w->String(ShardAssignmentName(options_.assignment));
  w->Key("durable");
  w->Bool(!dur_dir_.empty());
  w->Key("generation");
  w->Uint(generation);
  w->Key("wal_commits");
  w->Uint(commits);
  w->Key("wal_durable_commits");
  w->Uint(durable_commits);
  w->Key("per_shard");
  w->RawValue(per_shard.str());
  w->EndObject();
}

const ViTriIndex* ShardedViTriIndex::shard(size_t i) const {
  ReaderLock lock(*latch_);
  return i < shards_.size() ? shards_[i].get() : nullptr;
}

ViTriIndex* ShardedViTriIndex::shard_for_testing(size_t i) {
  ReaderLock lock(*latch_);
  return i < shards_.size() ? shards_[i].get() : nullptr;
}

ShardedIndexBuilder::ShardedIndexBuilder(ShardedIndexOptions options,
                                         size_t seed_videos)
    : options_(std::move(options)),
      seed_videos_(std::max<size_t>(seed_videos, 1)),
      dimension_(options_.shard_options.dimension) {}

Status ShardedIndexBuilder::Add(uint32_t video_id, uint32_t num_frames,
                                std::vector<ViTri> vitris) {
  ++videos_added_;
  if (index_.has_value()) {
    return index_->Insert(video_id, num_frames, vitris);
  }
  pending_frames_.emplace_back(video_id, num_frames);
  pending_vitris_.insert(pending_vitris_.end(),
                         std::make_move_iterator(vitris.begin()),
                         std::make_move_iterator(vitris.end()));
  if (pending_frames_.size() >= seed_videos_) return GoLive();
  return Status::OK();
}

Status ShardedIndexBuilder::GoLive() {
  ViTriSet set;
  set.dimension = dimension_;
  uint32_t max_vid = 0;
  for (const auto& [vid, frames] : pending_frames_) {
    max_vid = std::max(max_vid, vid);
  }
  set.frame_counts.assign(static_cast<size_t>(max_vid) + 1, 0);
  for (const auto& [vid, frames] : pending_frames_) {
    set.frame_counts[vid] = frames;
  }
  set.vitris = std::move(pending_vitris_);
  VITRI_ASSIGN_OR_RETURN(ShardedViTriIndex index,
                         ShardedViTriIndex::Build(set, options_));
  index_.emplace(std::move(index));
  pending_vitris_.clear();
  pending_frames_.clear();
  pending_frames_.shrink_to_fit();
  return Status::OK();
}

Result<ShardedViTriIndex> ShardedIndexBuilder::Finish() && {
  if (!index_.has_value()) {
    if (pending_frames_.empty()) {
      return Status::InvalidArgument(
          "cannot finish a sharded index over no videos");
    }
    VITRI_RETURN_IF_ERROR(GoLive());
  }
  return std::move(*index_);
}

}  // namespace vitri::core
