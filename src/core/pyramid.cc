#include "core/pyramid.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/stopwatch.h"
#include "core/similarity.h"

namespace vitri::core {

using linalg::Vec;
using linalg::VecView;

// ---- PyramidTransform ---------------------------------------------------

Result<PyramidTransform> PyramidTransform::Fit(
    const std::vector<Vec>& points, bool extended) {
  if (points.empty()) {
    return Status::InvalidArgument("pyramid fit needs at least one point");
  }
  const size_t dim = points[0].size();
  if (dim == 0) {
    return Status::InvalidArgument("pyramid fit needs non-empty vectors");
  }

  PyramidTransform t;
  t.exponents_.assign(dim, 1.0);
  if (extended) {
    std::vector<double> column(points.size());
    for (size_t j = 0; j < dim; ++j) {
      for (size_t i = 0; i < points.size(); ++i) column[i] = points[i][j];
      std::nth_element(column.begin(),
                       column.begin() + column.size() / 2, column.end());
      // Clamp the median away from 0/1 so the exponent stays sane.
      const double median =
          std::clamp(column[column.size() / 2], 0.01, 0.99);
      // t(median) = 0.5  =>  exponent = log(0.5) / log(median).
      t.exponents_[j] = std::log(0.5) / std::log(median);
    }
  }
  return t;
}

double PyramidTransform::Warp(size_t j, double x) const {
  x = std::clamp(x, 0.0, 1.0);
  if (exponents_[j] == 1.0) return x;
  return std::pow(x, exponents_[j]);
}

double PyramidTransform::Value(VecView point) const {
  const size_t d = exponents_.size();
  // Find the dimension with the largest deviation from the center.
  size_t j_max = 0;
  double dev_max = -1.0;
  double signed_dev_max = 0.0;
  for (size_t j = 0; j < d; ++j) {
    const double dev = Warp(j, point[j]) - 0.5;
    if (std::fabs(dev) > dev_max) {
      dev_max = std::fabs(dev);
      signed_dev_max = dev;
      j_max = j;
    }
  }
  const size_t pyramid = signed_dev_max < 0.0 ? j_max : j_max + d;
  return static_cast<double>(pyramid) + dev_max;
}

std::vector<PyramidTransform::Interval> PyramidTransform::QueryIntervals(
    const Vec& lo, const Vec& hi) const {
  const size_t d = exponents_.size();

  // Per-dimension deviations of the warped query rectangle from 0.5.
  // q_min[j] <= v_j - 0.5 <= q_max[j] inside the rectangle.
  std::vector<double> q_min(d), q_max(d), abs_min(d);
  for (size_t j = 0; j < d; ++j) {
    q_min[j] = Warp(j, lo[j]) - 0.5;
    q_max[j] = Warp(j, hi[j]) - 0.5;
    // Minimum of |v_j - 0.5| attainable inside the rectangle.
    abs_min[j] = (q_min[j] <= 0.0 && q_max[j] >= 0.0)
                     ? 0.0
                     : std::min(std::fabs(q_min[j]), std::fabs(q_max[j]));
  }

  std::vector<Interval> intervals;
  for (size_t j = 0; j < d; ++j) {
    // Largest minimal deviation among the *other* dimensions: any point
    // of pyramid j must have height >= this.
    double other_floor = 0.0;
    for (size_t o = 0; o < d; ++o) {
      if (o != j) other_floor = std::max(other_floor, abs_min[o]);
    }

    // Negative-side pyramid j: heights h = -(v_j - 0.5), feasible
    // range given the rectangle's j-extent.
    if (q_min[j] < 0.0) {
      const double h_hi = -q_min[j];
      const double h_lo_dim = q_max[j] < 0.0 ? -q_max[j] : 0.0;
      const double h_lo = std::max(h_lo_dim, other_floor);
      if (h_lo <= h_hi) {
        intervals.push_back(Interval{static_cast<double>(j) + h_lo,
                                     static_cast<double>(j) + h_hi});
      }
    }
    // Positive-side pyramid j + d.
    if (q_max[j] > 0.0) {
      const double h_hi = q_max[j];
      const double h_lo_dim = q_min[j] > 0.0 ? q_min[j] : 0.0;
      const double h_lo = std::max(h_lo_dim, other_floor);
      if (h_lo <= h_hi) {
        intervals.push_back(Interval{static_cast<double>(j + d) + h_lo,
                                     static_cast<double>(j + d) + h_hi});
      }
    }
  }
  return intervals;
}

// ---- PyramidIndex -------------------------------------------------------

Result<PyramidIndex> PyramidIndex::Build(const ViTriSet& set,
                                         const ViTriIndexOptions& options) {
  if (set.vitris.empty()) {
    return Status::InvalidArgument("cannot build an index over no ViTris");
  }
  if (set.dimension != options.dimension) {
    return Status::InvalidArgument("dimension mismatch");
  }
  PyramidIndex index;
  index.options_ = options;
  index.frame_counts_ = set.frame_counts;
  index.num_vitris_ = set.vitris.size();

  std::vector<Vec> positions;
  positions.reserve(set.vitris.size());
  for (const ViTri& v : set.vitris) positions.push_back(v.position);
  VITRI_ASSIGN_OR_RETURN(PyramidTransform t,
                         PyramidTransform::Fit(positions));
  index.transform_ = std::make_unique<PyramidTransform>(std::move(t));

  index.pager_ = std::make_unique<storage::MemPager>(options.page_size);
  index.pool_ = std::make_unique<storage::BufferPool>(
      index.pager_.get(), options.buffer_pool_pages);
  VITRI_ASSIGN_OR_RETURN(
      btree::BPlusTree tree,
      btree::BPlusTree::Create(
          index.pool_.get(),
          static_cast<uint32_t>(ViTri::SerializedSize(options.dimension))));
  index.tree_ = std::make_unique<btree::BPlusTree>(std::move(tree));

  std::vector<btree::Entry> entries;
  entries.reserve(set.vitris.size());
  for (size_t i = 0; i < set.vitris.size(); ++i) {
    btree::Entry e;
    e.key = index.transform_->Value(set.vitris[i].position);
    e.rid = i;
    set.vitris[i].Serialize(&e.value);
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const btree::Entry& a, const btree::Entry& b) {
              return a.key < b.key || (a.key == b.key && a.rid < b.rid);
            });
  VITRI_RETURN_IF_ERROR(index.tree_->BulkLoad(entries));
  return index;
}

Result<std::vector<VideoMatch>> PyramidIndex::Knn(
    const std::vector<ViTri>& query, uint32_t query_frames, size_t k,
    QueryCosts* costs) {
  if (query.empty()) {
    return Status::InvalidArgument("query summary is empty");
  }
  Stopwatch watch;
  const storage::IoSnapshot before = pool_->stats().Snapshot();
  QueryCosts local;

  // Pyramid intervals for every query ViTri's bounding box, merged.
  std::vector<KeyRange> intervals;
  const size_t dim = static_cast<size_t>(options_.dimension);
  for (const ViTri& q : query) {
    const double gamma = q.radius + options_.epsilon / 2.0;
    Vec lo(dim), hi(dim);
    for (size_t j = 0; j < dim; ++j) {
      lo[j] = q.position[j] - gamma;
      hi[j] = q.position[j] + gamma;
    }
    const std::vector<KeyRange> own = transform_->QueryIntervals(lo, hi);
    intervals.insert(intervals.end(), own.begin(), own.end());
  }

  VideoAccumulator shared(frame_counts_.size());
  ViTri candidate;
  Status decoded = Status::OK();
  for (const KeyRange& iv : ComposeKeyRanges(std::move(intervals))) {
    ++local.range_searches;
    auto scan = tree_->RangeScan(
        iv.lo, iv.hi,
        [&](double /*key*/, uint64_t /*rid*/,
            std::span<const uint8_t> value) {
          ++local.candidates;
          decoded = DecodeLeafRecord(value, options_.dimension, &candidate);
          if (!decoded.ok()) return false;
          for (const ViTri& q : query) {
            ++local.similarity_evals;
            shared.Add(candidate.video_id, EstimatedSharedFrames(q, candidate));
          }
          return true;
        });
    VITRI_RETURN_IF_ERROR(scan.status());
    VITRI_RETURN_IF_ERROR(decoded);
  }
  std::vector<VideoMatch> matches =
      RankSharedFrames(shared, frame_counts_, query_frames, k);

  const storage::IoSnapshot delta = pool_->stats().Snapshot() - before;
  local.page_accesses = delta.logical_reads;
  local.physical_reads = delta.physical_reads;
  local.cpu_seconds = watch.ElapsedSeconds();
  if (costs != nullptr) *costs = local;
  return matches;
}

}  // namespace vitri::core
