#ifndef VITRI_CORE_VITRI_H_
#define VITRI_CORE_VITRI_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "linalg/vec.h"

namespace vitri::core {

/// Video Triplet (Definition 2): a frame cluster modeled as a
/// hypersphere with (position, radius, density). Density is derived —
/// D = |C| / V_sphere(O, R) — so the stored state is the center, radius,
/// and cluster size.
struct ViTri {
  /// Id of the video this cluster summarizes.
  uint32_t video_id = 0;
  /// Number of frames |C| in the cluster.
  uint32_t cluster_size = 0;
  /// Refined radius R = min(R_max, mu + sigma) <= epsilon/2.
  double radius = 0.0;
  /// Cluster center O.
  linalg::Vec position;

  int dimension() const { return static_cast<int>(position.size()); }

  /// log D = log|C| - log V_sphere(O, R); +infinity for radius 0
  /// (a point cluster has unbounded density). Computed in log-space so
  /// it is finite and comparable for any dimensionality.
  double LogDensity() const;

  /// Serialized byte size for a given dimension: the B+-tree leaf
  /// payload is [u32 video_id][u32 cluster_size][f64 radius][f64 x dim].
  static size_t SerializedSize(int dimension) {
    return 16 + 8 * static_cast<size_t>(dimension);
  }

  /// Serializes into `out` (resized to SerializedSize()).
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parses a serialized ViTri of known dimension into `out`,
  /// overwriting every field and reusing `out->position`'s capacity, so
  /// a scan that decodes into one ViTri allocates nothing per record.
  /// A span of the wrong size is InvalidArgument and leaves `out` as it
  /// was.
  static Status DeserializeInto(std::span<const uint8_t> bytes,
                                int dimension, ViTri* out);

  /// Parses a serialized ViTri of known dimension into a fresh value.
  static Result<ViTri> Deserialize(std::span<const uint8_t> bytes,
                                   int dimension);
};

/// The summary of a whole database: all ViTris plus the per-video frame
/// counts the similarity estimate needs for normalization.
struct ViTriSet {
  int dimension = 0;
  std::vector<ViTri> vitris;
  /// frame_counts[video_id] = number of frames of that video.
  std::vector<uint32_t> frame_counts;

  size_t size() const { return vitris.size(); }
};

}  // namespace vitri::core

#endif  // VITRI_CORE_VITRI_H_
