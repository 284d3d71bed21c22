#include "core/index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/recovery.h"
#include "core/similarity.h"
#include "linalg/frame_matrix.h"
#include "linalg/kernels.h"
#include "core/validate.h"
#include "storage/retry_pager.h"

namespace vitri::core {

using btree::BPlusTree;
using storage::BufferPool;
using storage::IoSnapshot;
using storage::MemPager;

namespace {

// Full evaluation, shared by the sequential scan and the degraded
// in-memory path: every candidate against every query ViTri, with the
// candidate-to-query center distances from one batch-kernel sweep over
// a contiguous copy of the query positions.
class FullEvaluator {
 public:
  explicit FullEvaluator(const std::vector<ViTri>& query)
      : query_(query), d2_(query.size()) {
    for (const ViTri& q : query) qpos_.AppendRow(q.position);
  }

  void Evaluate(const ViTri& candidate, VideoAccumulator* shared,
                QueryCosts* costs) {
    linalg::SquaredDistanceBatch(candidate.position, qpos_, d2_);
    for (size_t qi = 0; qi < query_.size(); ++qi) {
      ++costs->similarity_evals;
      shared->Add(candidate.video_id,
                  EstimatedSharedFrames(query_[qi], candidate, d2_[qi]));
    }
  }

 private:
  const std::vector<ViTri>& query_;
  linalg::FrameMatrix qpos_;
  std::vector<double> d2_;
};

}  // namespace

Status DecodeLeafRecord(std::span<const uint8_t> value, int dimension,
                        ViTri* out) {
  Status decoded = ViTri::DeserializeInto(value, dimension, out);
  if (decoded.ok()) return decoded;
  return Status::Corruption("leaf record does not decode: " +
                            decoded.message());
}

void KeepTopK(std::vector<VideoMatch>* matches, size_t k) {
  std::sort(matches->begin(), matches->end(), RanksBefore);
  if (matches->size() > k) matches->resize(k);
}

std::vector<VideoMatch> RankSharedFrames(
    const VideoAccumulator& shared,
    const std::vector<uint32_t>& frame_counts, uint32_t query_frames,
    size_t k) {
  std::vector<VideoMatch> matches;
  matches.reserve(shared.sums().size());
  for (const auto& [vid, sum] : shared.sums()) {
    const uint32_t frames = frame_counts[vid];
    if (frames == 0) continue;
    const double sim = std::clamp(
        2.0 * sum / static_cast<double>(query_frames + frames), 0.0, 1.0);
    matches.push_back(VideoMatch{vid, sim});
  }
  KeepTopK(&matches, k);
  return matches;
}

Result<ViTriIndex> ViTriIndex::Build(const ViTriSet& set,
                                     const ViTriIndexOptions& options) {
  if (set.vitris.empty()) {
    return Status::InvalidArgument("cannot build an index over no ViTris");
  }
  if (set.dimension != options.dimension) {
    return Status::InvalidArgument("dimension mismatch");
  }
  // Queries search R_i^Q + epsilon/2 around each key: a non-positive or
  // non-finite epsilon would silently build empty, NaN or lossy ranges.
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("epsilon must be positive and finite");
  }
  ViTriIndex index;
  index.options_ = options;
  {
    // The index is still private to this thread; holding its latch here
    // is uncontended and satisfies the guarded-member contracts.
    WriterLock lock(*index.latch_);
    index.vitris_ = set.vitris;
    index.frame_counts_ = set.frame_counts;
    index.stored_videos_ = static_cast<size_t>(
        std::count_if(set.frame_counts.begin(), set.frame_counts.end(),
                      [](uint32_t frames) { return frames > 0; }));
    index.positions_.reserve(set.vitris.size());
    for (const ViTri& v : set.vitris) {
      if (v.dimension() != options.dimension) {
        return Status::InvalidArgument("ViTri dimension mismatch");
      }
      index.positions_.push_back(v.position);
    }
    VITRI_ASSIGN_OR_RETURN(
        OneDimensionalTransform t,
        options.transform_factory
            ? options.transform_factory(index.positions_)
            : OneDimensionalTransform::Fit(index.positions_, options.reference,
                                           options.margin_factor));
    index.transform_ = std::make_unique<OneDimensionalTransform>(std::move(t));
    VITRI_RETURN_IF_ERROR(index.LoadTree());
  }
  return index;
}

Status ViTriIndex::LoadTree() {
  // Tear down in dependency order: the tree and pool reference the pager.
  tree_.reset();
  pool_.reset();
  pager_.reset();
  if (options_.pager_factory) {
    pager_ = options_.pager_factory(options_.page_size);
    if (pager_ == nullptr) {
      return Status::InvalidArgument("pager_factory returned null");
    }
    if (pager_->page_size() != options_.page_size) {
      return Status::InvalidArgument(
          "pager_factory page size disagrees with options.page_size");
    }
  } else {
    pager_ = std::make_unique<MemPager>(options_.page_size);
  }
  pool_ = std::make_unique<BufferPool>(pager_.get(),
                                       options_.buffer_pool_pages,
                                       options_.buffer_pool_options);
  // Mirror transient-error retries into the pool's IoStats so query
  // cost reporting surfaces them.
  if (auto* retrying = dynamic_cast<storage::RetryingPager*>(pager_.get())) {
    retrying->set_stats_sink(pool_->external_stats());
  }
  VITRI_ASSIGN_OR_RETURN(
      BPlusTree tree,
      BPlusTree::Create(pool_.get(),
                        static_cast<uint32_t>(
                            ViTri::SerializedSize(options_.dimension))));
  tree_ = std::make_unique<BPlusTree>(std::move(tree));

  std::vector<btree::Entry> entries;
  entries.reserve(vitris_.size());
  for (size_t i = 0; i < vitris_.size(); ++i) {
    btree::Entry e;
    e.key = transform_->Key(vitris_[i].position);
    e.rid = i;
    vitris_[i].Serialize(&e.value);
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const btree::Entry& a, const btree::Entry& b) {
              return a.key < b.key || (a.key == b.key && a.rid < b.rid);
            });
  VITRI_RETURN_IF_ERROR(tree_->BulkLoad(entries));
  VITRI_DCHECK_OK(ValidateInvariantsLocked());
  return Status::OK();
}

Status ViTriIndex::Insert(uint32_t video_id, uint32_t num_frames,
                          const std::vector<ViTri>& vitris) {
  WriterLock lock(*latch_);
  // Reject anything that would corrupt the index before it reaches the
  // WAL: a ViTri filed under another video breaks that video's frame
  // accounting, and a radius above epsilon/2 lies outside every query's
  // key range, so KNN would silently miss it.
  VITRI_RETURN_IF_ERROR(ValidateInsert(video_id, num_frames, vitris,
                                       options_.dimension, options_.epsilon));
  // A re-insert may not shrink the frame count the video's stored
  // clusters were checked against.
  if (video_id < frame_counts_.size() && num_frames < frame_counts_[video_id]) {
    return Status::InvalidArgument(
        "re-insert of video " + std::to_string(video_id) + " lowers its " +
        std::to_string(frame_counts_[video_id]) + " frames to " +
        std::to_string(num_frames));
  }
  if (wal_ != nullptr) {
    // Log-then-apply: the insert must be recoverable before any of it
    // becomes visible. Replay re-applies committed records in order, so
    // rids reproduce deterministically.
    std::vector<uint8_t> payload;
    EncodeInsertWalRecord(video_id, num_frames, vitris, &payload);
    VITRI_RETURN_IF_ERROR(WalLogInsert(payload));
    VITRI_RETURN_IF_ERROR(MaybeCrash("insert.apply"));
  }
  return ApplyInsert(video_id, num_frames, vitris);
}

Status ViTriIndex::ApplyInsert(uint32_t video_id, uint32_t num_frames,
                               const std::vector<ViTri>& vitris) {
  if (video_id >= frame_counts_.size()) {
    frame_counts_.resize(video_id + 1, 0);
  }
  if (frame_counts_[video_id] == 0 && num_frames > 0) ++stored_videos_;
  if (frame_counts_[video_id] > 0 && num_frames == 0) --stored_videos_;
  frame_counts_[video_id] = num_frames;
  for (const ViTri& v : vitris) {
    if (v.dimension() != options_.dimension) {
      return Status::InvalidArgument("ViTri dimension mismatch");
    }
    const uint64_t rid = vitris_.size();
    const double key = transform_->Key(v.position);
    std::vector<uint8_t> value;
    v.Serialize(&value);
    VITRI_RETURN_IF_ERROR(tree_->Insert(key, rid, value));
    vitris_.push_back(v);
    positions_.push_back(v.position);
  }
  VITRI_METRIC_COUNTER("index.inserts")->Increment(vitris.size());
  VITRI_DCHECK_OK(ValidateInvariantsLocked());
  return Status::OK();
}

std::vector<KeyRange> ViTriIndex::MakeRanges(
    const std::vector<ViTri>& query) const {
  std::vector<KeyRange> ranges;
  ranges.reserve(query.size());
  for (const ViTri& q : query) {
    const double key = transform_->Key(q.position);
    const double gamma = q.radius + options_.epsilon / 2.0;
    ranges.push_back(KeyRange{key - gamma, key + gamma});
  }
  return ranges;
}

Status ViTriIndex::KnnScanTree(const std::vector<ViTri>& query,
                               const std::vector<KeyRange>& ranges,
                               KnnMethod method,
                               VideoAccumulator* shared,
                               QueryCosts* costs,
                               QueryTrace* trace) const {
  // One range search: a key range, and the slice [first, last) of
  // `ranges` whose query ViTris its records are tested against. Naive
  // issues one search per query ViTri, so candidates in overlapping
  // ranges are re-read and re-evaluated (the paper's naive method);
  // composition merges overlapping ranges first and tests each record
  // against every range. RangeScan is inclusive, so a naive search's
  // own range always covers its records.
  struct Scan {
    double lo;
    double hi;
    size_t first;
    size_t last;
  };
  std::vector<Scan> scans;
  if (method == KnnMethod::kNaive) {
    scans.reserve(ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      scans.push_back(Scan{ranges[i].lo, ranges[i].hi, i, i + 1});
    }
  } else {
    TraceSpanScope compose_span(trace, "compose", pool_.get());
    for (const KeyRange& m : ComposeKeyRanges(ranges)) {
      scans.push_back(Scan{m.lo, m.hi, 0, ranges.size()});
    }
  }

  // Decode and refinement stream inside the range scan's callback, so
  // one "scan" span times the scan and the refinement together.
  ViTri candidate;
  Status decoded = Status::OK();
  TraceSpanScope scan_span(trace, "scan", pool_.get());
  for (const Scan& scan : scans) {
    ++costs->range_searches;
    auto scan_result = tree_->RangeScan(
        scan.lo, scan.hi,
        [&](double key, uint64_t /*rid*/, std::span<const uint8_t> value) {
          ++costs->candidates;
          decoded = DecodeLeafRecord(value, options_.dimension, &candidate);
          if (!decoded.ok()) return false;
          for (size_t i = scan.first; i < scan.last; ++i) {
            if (key >= ranges[i].lo && key <= ranges[i].hi) {
              ++costs->similarity_evals;
              shared->Add(candidate.video_id,
                          EstimatedSharedFrames(query[i], candidate));
            }
          }
          return true;
        });
    VITRI_RETURN_IF_ERROR(scan_result.status());
    VITRI_RETURN_IF_ERROR(decoded);
  }
  return Status::OK();
}

void ViTriIndex::EvaluateInMemory(const std::vector<ViTri>& query,
                                  VideoAccumulator* shared,
                                  QueryCosts* costs) const {
  costs->degraded = true;
  costs->candidates = 0;
  costs->similarity_evals = 0;
  shared->Clear();
  FullEvaluator evaluator(query);
  for (const ViTri& candidate : vitris_) {
    ++costs->candidates;
    evaluator.Evaluate(candidate, shared, costs);
  }
}

Result<std::vector<VideoMatch>> ViTriIndex::Knn(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    KnnMethod method, QueryCosts* costs, QueryTrace* trace) {
  if (query.empty()) {
    return Status::InvalidArgument("query summary is empty");
  }
  ReaderLock lock(*latch_);
  Stopwatch watch;
  if (trace != nullptr) trace->Begin();
  const IoSnapshot before = pool_->stats().Snapshot();
  QueryCosts local;
  std::vector<KeyRange> ranges;
  {
    TraceSpanScope transform_span(trace, "transform", pool_.get());
    ranges = MakeRanges(query);
  }

  VideoAccumulator shared(frame_counts_.size());
  const Status scan =
      KnnScanTree(query, ranges, method, &shared, &local, trace);
  if (scan.IsCorruption()) {
    // The tree hit a quarantined page. Serve the query from the
    // in-memory copy: same answer (the key ranges only ever *prune*
    // zero-contribution candidates), no index acceleration.
    VITRI_LOG(kWarn) << "Knn degraded to in-memory evaluation: "
                        << scan.ToString();
    VITRI_METRIC_COUNTER("query.degraded")->Increment();
    TraceSpanScope refine_span(trace, "refine", pool_.get());
    EvaluateInMemory(query, &shared, &local);
  } else if (!scan.ok()) {
    return scan;
  }
  std::vector<VideoMatch> result;
  {
    TraceSpanScope rank_span(trace, "rank", pool_.get());
    result = RankSharedFrames(shared, frame_counts_, query_frames, k);
  }
  const IoSnapshot delta = pool_->stats().Snapshot() - before;
  local.page_accesses = delta.logical_reads;
  local.physical_reads = delta.physical_reads;
  local.cpu_seconds = watch.ElapsedSeconds();
  if (trace != nullptr) trace->End();
  if (costs != nullptr) *costs = local;
  VITRI_METRIC_COUNTER("query.knn.count")->Increment();
  VITRI_METRIC_HISTOGRAM("query.knn.latency_us")
      ->Record(static_cast<uint64_t>(local.cpu_seconds * 1e6));
  VITRI_METRIC_HISTOGRAM("query.knn.pages")->Record(local.page_accesses);
  return result;
}

Result<std::vector<VideoMatch>> ViTriIndex::SequentialScan(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    QueryCosts* costs) {
  ReaderLock lock(*latch_);
  if (query.empty()) {
    return Status::InvalidArgument("query summary is empty");
  }
  Stopwatch watch;
  const IoSnapshot before = pool_->stats().Snapshot();
  QueryCosts local;
  local.range_searches = 1;

  VideoAccumulator shared(frame_counts_.size());
  FullEvaluator evaluator(query);
  ViTri candidate;
  Status scanned = Status::OK();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto scan_result = tree_->RangeScan(
      -kInf, kInf,
      [&](double /*key*/, uint64_t /*rid*/,
          std::span<const uint8_t> value) {
        ++local.candidates;
        scanned = DecodeLeafRecord(value, options_.dimension, &candidate);
        if (!scanned.ok()) return false;
        evaluator.Evaluate(candidate, &shared, &local);
        return true;
      });
  if (!scan_result.ok()) scanned = scan_result.status();
  if (scanned.IsCorruption()) {
    VITRI_LOG(kWarn)
        << "SequentialScan degraded to in-memory evaluation: "
        << scanned.ToString();
    EvaluateInMemory(query, &shared, &local);
  } else {
    VITRI_RETURN_IF_ERROR(scanned);
  }

  std::vector<VideoMatch> result =
      RankSharedFrames(shared, frame_counts_, query_frames, k);
  const IoSnapshot delta = pool_->stats().Snapshot() - before;
  local.page_accesses = delta.logical_reads;
  local.physical_reads = delta.physical_reads;
  local.cpu_seconds = watch.ElapsedSeconds();
  if (costs != nullptr) *costs = local;
  return result;
}

Result<std::vector<VideoMatch>> ViTriIndex::FrameSearch(
    linalg::VecView frame, double epsilon, size_t k, QueryCosts* costs) {
  ReaderLock lock(*latch_);
  if (frame.size() != static_cast<size_t>(options_.dimension)) {
    return Status::InvalidArgument("frame dimension mismatch");
  }
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  Stopwatch watch;
  const IoSnapshot before = pool_->stats().Snapshot();
  QueryCosts local;
  local.range_searches = 1;

  // A stored ViTri can contain matching frames only if its ball
  // intersects ball(frame, epsilon): d(O, frame) < epsilon + R with
  // R <= options.epsilon / 2, so the key range radius is
  // epsilon + options.epsilon / 2 by the triangle inequality.
  const double key = transform_->Key(frame);
  const double gamma = epsilon + options_.epsilon / 2.0;

  VideoAccumulator matches_by_video(frame_counts_.size());
  auto evaluate = [&](const ViTri& candidate) {
    ++local.similarity_evals;
    matches_by_video.Add(candidate.video_id,
                         EstimatedMatchingFrames(frame, epsilon, candidate));
  };
  ViTri candidate;
  Status scanned = Status::OK();
  auto scan = tree_->RangeScan(
      key - gamma, key + gamma,
      [&](double /*key*/, uint64_t /*rid*/,
          std::span<const uint8_t> value) {
        ++local.candidates;
        scanned = DecodeLeafRecord(value, options_.dimension, &candidate);
        if (!scanned.ok()) return false;
        evaluate(candidate);
        return true;
      });
  if (!scan.ok()) scanned = scan.status();
  if (scanned.IsCorruption()) {
    VITRI_LOG(kWarn) << "FrameSearch degraded to in-memory evaluation: "
                        << scanned.ToString();
    local.degraded = true;
    local.candidates = 0;
    local.similarity_evals = 0;
    matches_by_video.Clear();
    for (const ViTri& stored : vitris_) {
      ++local.candidates;
      evaluate(stored);
    }
  } else {
    VITRI_RETURN_IF_ERROR(scanned);
  }

  std::vector<VideoMatch> out;
  out.reserve(matches_by_video.sums().size());
  for (const auto& [vid, matches] : matches_by_video.sums()) {
    out.push_back(VideoMatch{vid, matches});
  }
  KeepTopK(&out, k);

  const IoSnapshot delta = pool_->stats().Snapshot() - before;
  local.page_accesses = delta.logical_reads;
  local.physical_reads = delta.physical_reads;
  local.cpu_seconds = watch.ElapsedSeconds();
  if (costs != nullptr) *costs = local;
  return out;
}

namespace {

Status IndexInvariantViolation(const std::string& what) {
  return Status::Internal("index invariant violated: " + what);
}

}  // namespace

Status ViTriIndex::ValidateInvariants() {
  WriterLock lock(*latch_);
  return ValidateInvariantsLocked();
}

Status ViTriIndex::ValidateInvariantsLocked() {
  // The audited save/restore helper: validation reads pages through the
  // pool, but must never perturb the counters queries report.
  storage::ScopedPoolStatsRestore restore(pool_.get());
  return ValidateInvariantsImpl();
}

Status ViTriIndex::ValidateInvariantsImpl() {
  if (transform_ == nullptr || tree_ == nullptr || pool_ == nullptr ||
      pager_ == nullptr) {
    return IndexInvariantViolation("index is not fully constructed");
  }
  if (positions_.size() != vitris_.size()) {
    return IndexInvariantViolation(
        "positions_ caches " + std::to_string(positions_.size()) +
        " entries for " + std::to_string(vitris_.size()) + " ViTris");
  }
  for (size_t i = 0; i < vitris_.size(); ++i) {
    if (positions_[i] != vitris_[i].position) {
      return IndexInvariantViolation(
          "cached position " + std::to_string(i) +
          " diverged from its ViTri");
    }
  }

  const size_t stored = static_cast<size_t>(
      std::count_if(frame_counts_.begin(), frame_counts_.end(),
                    [](uint32_t frames) { return frames > 0; }));
  if (stored != stored_videos_) {
    return IndexInvariantViolation(
        "stored-video count " + std::to_string(stored_videos_) +
        " disagrees with the " + std::to_string(stored) +
        " videos that have frames");
  }

  ViTriCheckOptions check;
  check.epsilon = options_.epsilon;
  const ViTriSet snapshot = SnapshotLocked();
  VITRI_RETURN_IF_ERROR(ValidateViTriSet(snapshot, check));
  VITRI_RETURN_IF_ERROR(ValidateSnapshotRoundTrip(snapshot));

  VITRI_RETURN_IF_ERROR(pool_->ValidateInvariants());
  VITRI_RETURN_IF_ERROR(tree_->ValidateInvariants());
  if (tree_->num_entries() != vitris_.size()) {
    return IndexInvariantViolation(
        "tree holds " + std::to_string(tree_->num_entries()) +
        " records for " + std::to_string(vitris_.size()) + " ViTris");
  }

  // Every stored record must deserialize to its in-memory twin and sit
  // under exactly the transform key of its position.
  Status record_status = Status::OK();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto scanned = tree_->RangeScan(
      -kInf, kInf,
      [&](double key, uint64_t rid, std::span<const uint8_t> value) {
        if (rid >= vitris_.size()) {
          record_status = IndexInvariantViolation(
              "tree record has out-of-range rid " + std::to_string(rid));
          return false;
        }
        auto parsed = ViTri::Deserialize(value, options_.dimension);
        if (!parsed.ok()) {
          record_status = IndexInvariantViolation(
              "record " + std::to_string(rid) +
              " does not deserialize: " + parsed.status().ToString());
          return false;
        }
        const ViTri& twin = vitris_[rid];
        if (parsed->video_id != twin.video_id ||
            parsed->cluster_size != twin.cluster_size ||
            parsed->radius != twin.radius ||
            parsed->position != twin.position) {
          record_status = IndexInvariantViolation(
              "record " + std::to_string(rid) +
              " disagrees with its in-memory ViTri");
          return false;
        }
        if (key != transform_->Key(twin.position)) {
          record_status = IndexInvariantViolation(
              "record " + std::to_string(rid) +
              " is filed under the wrong transform key");
          return false;
        }
        return true;
      });
  VITRI_RETURN_IF_ERROR(scanned.status());
  VITRI_RETURN_IF_ERROR(record_status);
  if (*scanned != vitris_.size()) {
    return IndexInvariantViolation(
        "leaf scan visited " + std::to_string(*scanned) + " records for " +
        std::to_string(vitris_.size()) + " ViTris");
  }
  return Status::OK();
}

Result<double> ViTriIndex::DriftAngle() const {
  ReaderLock lock(*latch_);
  return transform_->DriftAngle(positions_);
}

Result<bool> ViTriIndex::NeedsRebuild() const {
  // One shared hold covers both checks. (The annotation audit caught
  // the old code reading pool_->corrupt_pages() before taking the
  // latch, racing Rebuild()'s pool replacement — a use-after-free
  // window, not just staleness.)
  ReaderLock lock(*latch_);
  // Quarantined pages mean part of the tree is unreachable: queries
  // still answer (degraded), but only a rebuild restores indexed
  // serving. (DriftAngle is inlined rather than called: shared_mutex
  // acquisitions don't nest safely on one thread.)
  if (!pool_->corrupt_pages().empty()) return true;
  VITRI_ASSIGN_OR_RETURN(double angle, transform_->DriftAngle(positions_));
  return angle > options_.rebuild_angle_threshold;
}

Status ViTriIndex::Rebuild() {
  WriterLock lock(*latch_);
  VITRI_METRIC_COUNTER("index.rebuilds")->Increment();
  VITRI_ASSIGN_OR_RETURN(
      OneDimensionalTransform t,
      options_.transform_factory
          ? options_.transform_factory(positions_)
          : OneDimensionalTransform::Fit(positions_, options_.reference,
                                         options_.margin_factor));
  transform_ = std::make_unique<OneDimensionalTransform>(std::move(t));
  return LoadTree();
}

}  // namespace vitri::core
