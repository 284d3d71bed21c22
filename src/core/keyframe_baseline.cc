#include "core/keyframe_baseline.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "clustering/kmeans.h"

namespace vitri::core {

Result<KeyframeSummary> BuildKeyframeSummary(
    const video::VideoSequence& sequence, size_t k, uint64_t seed) {
  if (sequence.frames.empty()) {
    return Status::InvalidArgument("cannot summarize an empty sequence");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  k = std::min(k, sequence.frames.size());

  std::vector<uint32_t> indices(sequence.frames.size());
  std::iota(indices.begin(), indices.end(), 0);
  clustering::KMeansOptions options;
  options.seed = seed ^ sequence.id;
  VITRI_ASSIGN_OR_RETURN(
      clustering::KMeansResult km,
      clustering::KMeans(sequence.frames, indices, static_cast<int>(k),
                         options));

  KeyframeSummary out;
  out.video_id = sequence.id;
  out.num_frames = static_cast<uint32_t>(sequence.frames.size());
  out.keyframes.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    // Medoid: nearest actual frame to the centroid.
    double best = std::numeric_limits<double>::infinity();
    size_t best_i = 0;
    bool any = false;
    for (size_t i = 0; i < indices.size(); ++i) {
      if (km.assignments[i] != c) continue;
      const double d = linalg::SquaredDistance(sequence.frames[i],
                                               km.centroids[c]);
      if (d < best) {
        best = d;
        best_i = i;
        any = true;
      }
    }
    if (any) out.keyframes.push_back(sequence.frames[best_i]);
  }
  if (out.keyframes.empty()) out.keyframes.push_back(sequence.frames[0]);
  return out;
}

double KeyframeSimilarity(const KeyframeSummary& a,
                          const KeyframeSummary& b, double epsilon) {
  if (a.keyframes.empty() || b.keyframes.empty()) return 0.0;
  const double eps_sq = epsilon * epsilon;
  size_t matched_a = 0;
  std::vector<bool> b_matched(b.keyframes.size(), false);
  for (const linalg::Vec& ka : a.keyframes) {
    bool found = false;
    for (size_t j = 0; j < b.keyframes.size(); ++j) {
      if (linalg::SquaredDistance(ka, b.keyframes[j]) <= eps_sq) {
        found = true;
        b_matched[j] = true;
      }
    }
    if (found) ++matched_a;
  }
  size_t matched_b = 0;
  for (bool m : b_matched) matched_b += m ? 1 : 0;
  return static_cast<double>(matched_a + matched_b) /
         static_cast<double>(a.keyframes.size() + b.keyframes.size());
}

std::vector<VideoMatch> KeyframeKnn(
    const std::vector<KeyframeSummary>& database,
    const KeyframeSummary& query, size_t k, double epsilon) {
  std::vector<VideoMatch> matches;
  matches.reserve(database.size());
  for (const KeyframeSummary& s : database) {
    const double sim = KeyframeSimilarity(query, s, epsilon);
    // Only actual matches are returned (the ViTri search behaves the
    // same); zero-score padding would inflate precision arbitrarily.
    if (sim > 0.0) matches.push_back(VideoMatch{s.video_id, sim});
  }
  KeepTopK(&matches, k);
  return matches;
}

}  // namespace vitri::core
