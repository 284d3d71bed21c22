// Shared pieces of the repository benchmark: sample statistics, the
// result line, the in-memory span recorder, and the independent
// brute-force KNN reference every served answer is checked against.

#ifndef VITRI_PERFBENCH_COMMON_H_
#define VITRI_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/index.h"
#include "core/vitri.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Exact percentile (p in [0, 100]) of `samples` by linear interpolation
/// between order statistics; 0 for an empty set.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// p99 of each kSliceSamples consecutive samples (in due order), median
/// over slices, so a stall shorter than a slice moves one slice's figure,
/// not the result; the whole run's p99 when it holds fewer than two
/// slices.
inline constexpr size_t kSliceSamples = 1000;
double SlicedP99(const std::vector<double>& samples);

/// Peak resident memory of what runs after a mark, so that inputs the
/// benchmark generated beforehand do not set or dilute it. MarkMemory()
/// hands freed heap back to the kernel (malloc_trim), resets the kernel's
/// resident high-water mark (/proc/self/clear_refs) and returns the
/// resident size then; PeakRssMb() returns the high-water mark (VmHWM)
/// since. Both in MiB, and negative when the kernel refuses the reset or
/// its status cannot be read.
double MarkMemory();
double PeakRssMb();

/// Deterministic 64-bit mix of a seed and a stream tag.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

/// Named metrics of one run, printed as the benchmark's last line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson(bool correct, uint64_t attempted,
                     uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// In-memory span recorder for traced runs: every span carries a name,
/// start and end (microseconds since the recorder was created), the id
/// of its parent span, and the id of the request it belongs to. Spans
/// are only appended while a run is traced and written out once, when
/// the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);
  bool enabled() const { return enabled_; }
  /// Records a finished span and returns its id (0 when disabled). `id`
  /// is one reserved by NextId(), or 0 to take a fresh one.
  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t parent,
                  uint64_t request_id, uint64_t id = 0);
  /// Reserves an id for a span whose children are recorded before it.
  uint64_t NextId();
  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    uint64_t id;
    const char* name;
    double start_us;
    double end_us;
    uint64_t parent;
    uint64_t request_id;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Top-k computed without the B+-tree, the buffer pool or sharding:
/// every corpus ViTri is evaluated against every query ViTri with
/// EstimatedSharedFrames and ranked by (similarity desc, id asc). The
/// corpus may arrive in parts, as long as all ViTris of a video arrive in
/// one part, so a streamed corpus never has to be held. Each query keeps
/// its best `k + kReferenceSlack` entries, so near-ties at the k-th place
/// can be recognized.
inline constexpr size_t kReferenceSlack = 8;
class ReferenceTopK {
 public:
  /// `queries` and `pool` must outlive the object.
  ReferenceTopK(const std::vector<vitri::core::BatchQuery>& queries, size_t k,
                vitri::ThreadPool* pool);
  /// Adds the videos of `vitris`; `frame_counts` is indexed by video id.
  void Add(const std::vector<vitri::core::ViTri>& vitris,
           const std::vector<uint32_t>& frame_counts);
  /// The reference lists, one per query.
  std::vector<std::vector<vitri::core::VideoMatch>> Take() {
    return std::move(best_);
  }

 private:
  const std::vector<vitri::core::BatchQuery>& queries_;
  size_t keep_;
  vitri::ThreadPool* pool_;
  std::vector<std::vector<vitri::core::VideoMatch>> best_;
};

/// The golden-e2e contract: same length, and at every rank the served
/// similarity equals the reference one at 6 decimals and the served id
/// is the reference id. Two paths sum a video's shared-frame estimates
/// in different orders, so values may differ in the last bits; ids of
/// entries whose similarities agree to 1e-12 may therefore swap ranks,
/// and such a swap is accepted.
bool MatchesReference(const std::vector<vitri::core::VideoMatch>& got,
                      const std::vector<vitri::core::VideoMatch>& reference,
                      size_t k);

/// Returns a copy of `reference` with its top similarity shifted, used
/// by the self-test to prove the check fires.
std::vector<vitri::core::VideoMatch> Perturbed(
    std::vector<vitri::core::VideoMatch> reference);

}  // namespace perfbench

#endif  // VITRI_PERFBENCH_COMMON_H_
