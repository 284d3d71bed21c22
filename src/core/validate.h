#ifndef VITRI_CORE_VALIDATE_H_
#define VITRI_CORE_VALIDATE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/vitri.h"

namespace vitri::core {

/// Knobs for the ViTri-level validators.
struct ViTriCheckOptions {
  /// Build-time frame similarity threshold. When positive, every radius
  /// must satisfy the refinement guarantee R <= epsilon / 2 (within a
  /// small floating-point tolerance). Zero or negative skips the cap —
  /// for sets whose build epsilon is unknown.
  double epsilon = 0.0;
  /// Require exact frame accounting: for every video, the cluster sizes
  /// of its ViTris must sum to frame_counts[video]. True for
  /// builder-produced summaries; hand-assembled sets (tests, partial
  /// loads) may legitimately violate it, so it is opt-in.
  bool check_frame_accounting = false;
};

/// Checks one triplet: the stated dimension, a cluster of at least one
/// frame, a finite non-negative radius (capped at epsilon / 2 when
/// `epsilon` > 0), finite position coordinates, and the derived density
/// D = |C| / V_sphere(O, R) — LogDensity() must be +infinity exactly for
/// point clusters (R == 0) and agree with log|C| - log V_sphere
/// otherwise. Returns Internal naming the violated invariant.
Status ValidateViTri(const ViTri& vitri, int dimension, double epsilon);

/// Checks a whole summary set: a positive dimension, every ViTri valid
/// per ValidateViTri, every referenced video present in frame_counts
/// with a frame count that covers the cluster, and (opt-in) exact
/// per-video frame accounting.
Status ValidateViTriSet(const ViTriSet& set,
                        const ViTriCheckOptions& options = {});

/// The admission check of one inserted video: every ViTri belongs to
/// `video_id`, summarizes at most `num_frames` frames, and passes
/// ValidateViTri. Unlike the validators above it judges outside input,
/// so a violation is InvalidArgument, not Internal.
Status ValidateInsert(uint32_t video_id, uint32_t num_frames,
                      const std::vector<ViTri>& vitris, int dimension,
                      double epsilon);

/// Proves serialization is lossless for every ViTri in the set:
/// Serialize -> Deserialize -> Serialize must reproduce the identical
/// byte string (the invariant snapshot persistence relies on).
Status ValidateSnapshotRoundTrip(const ViTriSet& set);

}  // namespace vitri::core

#endif  // VITRI_CORE_VALIDATE_H_
