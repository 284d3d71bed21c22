#include "core/ground_truth.h"

#include <algorithm>
#include <unordered_set>

#include "core/similarity.h"

namespace vitri::core {

std::vector<VideoMatch> ExactKnn(const video::VideoDatabase& db,
                                 const video::VideoSequence& query,
                                 size_t k, double epsilon) {
  std::vector<VideoMatch> matches;
  matches.reserve(db.num_videos());
  for (const video::VideoSequence& v : db.videos) {
    const double sim = ExactVideoSimilarity(query, v, epsilon);
    // Zero-similarity videos are not relevant results: keeping them
    // would pad the ground truth with arbitrary ids and reward any
    // method that pads its own tail the same way.
    if (sim > 0.0) matches.push_back(VideoMatch{v.id, sim});
  }
  KeepTopK(&matches, k);
  return matches;
}

std::vector<double> ExactSimilarities(const video::VideoDatabase& db,
                                      const video::VideoSequence& query,
                                      double epsilon) {
  std::vector<double> sims(db.num_videos(), 0.0);
  for (const video::VideoSequence& v : db.videos) {
    sims[v.id] = ExactVideoSimilarity(query, v, epsilon);
  }
  return sims;
}

double TieAwarePrecision(const std::vector<double>& exact_sims, size_t k,
                         const std::vector<VideoMatch>& retrieved) {
  std::vector<double> positive;
  for (double s : exact_sims) {
    if (s > 0.0) positive.push_back(s);
  }
  if (positive.empty() || k == 0) return 0.0;
  std::sort(positive.begin(), positive.end(), std::greater<double>());
  const size_t denom = std::min(k, positive.size());
  const double threshold = positive[denom - 1];

  size_t hits = 0;
  for (size_t i = 0; i < std::min(k, retrieved.size()); ++i) {
    const uint32_t id = retrieved[i].video_id;
    if (id < exact_sims.size() && exact_sims[id] > 0.0 &&
        exact_sims[id] >= threshold) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(denom);
}

double Precision(const std::vector<VideoMatch>& relevant,
                 const std::vector<VideoMatch>& retrieved) {
  if (relevant.empty()) return 0.0;
  std::unordered_set<uint32_t> rel;
  for (const VideoMatch& m : relevant) rel.insert(m.video_id);
  size_t hits = 0;
  for (const VideoMatch& m : retrieved) hits += rel.count(m.video_id);
  return static_cast<double>(hits) / static_cast<double>(rel.size());
}

}  // namespace vitri::core
