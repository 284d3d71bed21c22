// Per-layer measurements of a traced run. Everything here is measured
// from outside the program: timed calls into each module's public
// functions, the QueryCosts / shard_costs / IoStats counters the index
// already exposes, QueryTrace spans of ViTriIndex::Knn, and a bench-side
// replay of the candidate stream through EstimatedSharedFrames.

#ifndef VITRI_PERFBENCH_LAYERS_H_
#define VITRI_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "storage/io_stats.h"

namespace perfbench {

/// The live shards of a sharded index as mutable pointers, for the
/// per-shard traced Knn calls. ViTriIndex::Knn is read-only (it takes
/// the shared latch) but is not declared const, and the shards are
/// non-const objects owned by the wrapper, so casting away the const of
/// ShardedViTriIndex::shard() is well defined.
std::vector<vitri::core::ViTriIndex*> LiveShards(
    const vitri::core::ShardedViTriIndex& index);

/// Pool counters summed over every pool shard of every index shard.
vitri::storage::IoSnapshot PoolTotals(
    const std::vector<vitri::core::ViTriIndex*>& shards);

/// Replayed KNN calls with the program's own cost counters.
struct KnnReplay {
  std::vector<double> wall_us;
  /// Wall minus the sum of per-shard cpu_seconds, and the slowest
  /// shard's time over the mean shard time.
  std::vector<double> merge_us;
  std::vector<double> straggler;
  vitri::core::QueryCosts total;
  size_t queries = 0;
};
KnnReplay ReplaySharded(vitri::core::ShardedViTriIndex* index,
                        const std::vector<vitri::core::BatchQuery>& queries,
                        size_t k);

/// Median per query of each QueryTrace stage, summed over shards.
struct SpanMedians {
  double transform_us = 0.0;
  double compose_us = 0.0;
  double scan_us = 0.0;
  double refine_us = 0.0;  // The program's sampled estimate.
  double rank_us = 0.0;
};
SpanMedians TraceStages(const std::vector<vitri::core::ViTriIndex*>& shards,
                        const std::vector<vitri::core::BatchQuery>& queries,
                        size_t k);

/// The composed-range candidate stream rebuilt from each shard's
/// transform() and Snapshot(), split into pairs the reach test rejects
/// and pairs that need the full lens geometry, with each kind timed.
struct CandidateReplay {
  double candidates_per_query = 0.0;
  double reach_rejected_per_query = 0.0;
  double lens_per_query = 0.0;
  double reach_ns = 0.0;
  double lens_ns = 0.0;
};
CandidateReplay ReplayCandidates(
    const std::vector<vitri::core::ViTriIndex*>& shards,
    const std::vector<vitri::core::BatchQuery>& queries, double epsilon);

/// Timed Crc32c over 4 KiB buffers, nanoseconds per page.
double CrcNsPerPage();
/// Timed ViTri::Deserialize over serialized `records`, ns per record.
double DecodeNsPerRecord(const std::vector<vitri::core::ViTri>& records,
                         int dimension);

/// Adds the core.index / storage.buffer_pool / crc / decode / similarity
/// metrics shared by every workload. `pool_delta` is the pool traffic of
/// the measured load phase, which served `served_queries` queries.
void AddIndexLayerMetrics(const KnnReplay& replay,
                          const CandidateReplay& candidates,
                          const SpanMedians& spans, size_t total_vitris,
                          double accumulator_slots,
                          const vitri::storage::IoSnapshot& pool_delta,
                          uint64_t served_queries, size_t page_size,
                          double decode_ns, Report* report);

}  // namespace perfbench

#endif  // VITRI_PERFBENCH_LAYERS_H_
