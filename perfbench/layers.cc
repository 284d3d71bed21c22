#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <string>

#include "common/crc32c.h"
#include "common/random.h"
#include "core/query_trace.h"
#include "core/similarity.h"
#include "core/transform.h"
#include "linalg/vec.h"

namespace perfbench {

using vitri::core::BatchQuery;
using vitri::core::QueryCosts;
using vitri::core::ShardedViTriIndex;
using vitri::core::ViTri;
using vitri::core::ViTriIndex;

namespace {

/// Keeps timed loops from being optimized away.
std::atomic<uint64_t> g_sink{0};

template <typename Fn>
double MedianOfThree(Fn&& fn) {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) runs.push_back(fn());
  return Median(runs);
}

}  // namespace

std::vector<ViTriIndex*> LiveShards(const ShardedViTriIndex& index) {
  std::vector<ViTriIndex*> shards;
  for (size_t i = 0; i < index.num_shards(); ++i) {
    const ViTriIndex* shard = index.shard(i);
    if (shard != nullptr) shards.push_back(const_cast<ViTriIndex*>(shard));
  }
  return shards;
}

vitri::storage::IoSnapshot PoolTotals(const std::vector<ViTriIndex*>& shards) {
  vitri::storage::IoSnapshot total;
  for (const ViTriIndex* shard : shards) {
    total = total + shard->io_stats().Snapshot();
  }
  return total;
}

KnnReplay ReplaySharded(ShardedViTriIndex* index,
                        const std::vector<BatchQuery>& queries, size_t k) {
  KnnReplay out;
  std::vector<QueryCosts> shard_costs;
  for (const BatchQuery& q : queries) {
    QueryCosts costs;
    const Clock::time_point start = Clock::now();
    auto result = index->Knn(q.vitris, q.num_frames, k,
                             vitri::core::KnnMethod::kComposed, &costs,
                             &shard_costs);
    const double wall_us = Seconds(start, Clock::now()) * 1e6;
    if (!result.ok()) continue;
    double shard_sum = 0.0;
    double shard_max = 0.0;
    size_t live = 0;
    for (const QueryCosts& sc : shard_costs) {
      if (sc.cpu_seconds <= 0.0) continue;
      shard_sum += sc.cpu_seconds;
      shard_max = std::max(shard_max, sc.cpu_seconds);
      ++live;
    }
    out.wall_us.push_back(wall_us);
    out.merge_us.push_back(std::max(0.0, wall_us - shard_sum * 1e6));
    if (live > 0) {
      out.straggler.push_back(shard_max /
                              (shard_sum / static_cast<double>(live)));
    }
    out.total += costs;
    ++out.queries;
  }
  return out;
}

SpanMedians TraceStages(const std::vector<ViTriIndex*>& shards,
                        const std::vector<BatchQuery>& queries, size_t k) {
  std::map<std::string, std::vector<double>> per_stage;
  for (const BatchQuery& q : queries) {
    std::map<std::string, double> sums = {{"transform", 0.0},
                                          {"compose", 0.0},
                                          {"scan", 0.0},
                                          {"refine", 0.0},
                                          {"rank", 0.0}};
    for (ViTriIndex* shard : shards) {
      vitri::core::QueryTrace trace;
      auto result = shard->Knn(q.vitris, q.num_frames, k,
                               vitri::core::KnnMethod::kComposed, nullptr,
                               &trace);
      if (!result.ok()) continue;
      for (const vitri::core::TraceSpan& span : trace.spans()) {
        sums[span.name] += span.duration_seconds * 1e6;
      }
    }
    for (const auto& [name, us] : sums) per_stage[name].push_back(us);
  }
  SpanMedians out;
  out.transform_us = Median(per_stage["transform"]);
  out.compose_us = Median(per_stage["compose"]);
  out.scan_us = Median(per_stage["scan"]);
  out.refine_us = Median(per_stage["refine"]);
  out.rank_us = Median(per_stage["rank"]);
  return out;
}

CandidateReplay ReplayCandidates(const std::vector<ViTriIndex*>& shards,
                                 const std::vector<BatchQuery>& queries,
                                 double epsilon) {
  uint64_t candidates = 0;
  uint64_t reach_pairs = 0;
  uint64_t lens_pairs = 0;
  double reach_seconds = 0.0;
  double lens_seconds = 0.0;
  double sink = 0.0;
  std::vector<std::pair<const ViTri*, const ViTri*>> reach;
  std::vector<std::pair<const ViTri*, const ViTri*>> lens;
  for (ViTriIndex* shard : shards) {
    const vitri::core::OneDimensionalTransform transform = shard->transform();
    const vitri::core::ViTriSet snapshot = shard->Snapshot();
    // The shard's records in key order, as its leaf level stores them.
    std::vector<std::pair<double, size_t>> keyed;
    keyed.reserve(snapshot.vitris.size());
    for (size_t i = 0; i < snapshot.vitris.size(); ++i) {
      keyed.emplace_back(transform.Key(snapshot.vitris[i].position), i);
    }
    std::sort(keyed.begin(), keyed.end());
    for (const BatchQuery& q : queries) {
      std::vector<vitri::core::KeyRange> ranges;
      for (const ViTri& qv : q.vitris) {
        const double key = transform.Key(qv.position);
        const double gamma = qv.radius + epsilon / 2.0;
        ranges.push_back({key - gamma, key + gamma});
      }
      reach.clear();
      lens.clear();
      for (const vitri::core::KeyRange& m :
           vitri::core::ComposeKeyRanges(ranges)) {
        auto it = std::lower_bound(
            keyed.begin(), keyed.end(), std::make_pair(m.lo, size_t{0}));
        for (; it != keyed.end() && it->first <= m.hi; ++it) {
          ++candidates;
          const ViTri& c = snapshot.vitris[it->second];
          for (size_t qi = 0; qi < q.vitris.size(); ++qi) {
            if (it->first < ranges[qi].lo || it->first > ranges[qi].hi) {
              continue;
            }
            const ViTri& qv = q.vitris[qi];
            const double d2 =
                vitri::linalg::SquaredDistance(qv.position, c.position);
            const double r = qv.radius + c.radius;
            (d2 > r * r ? reach : lens).emplace_back(&qv, &c);
          }
        }
      }
      Clock::time_point t0 = Clock::now();
      for (const auto& [a, b] : reach) {
        sink += vitri::core::EstimatedSharedFrames(*a, *b);
      }
      Clock::time_point t1 = Clock::now();
      for (const auto& [a, b] : lens) {
        sink += vitri::core::EstimatedSharedFrames(*a, *b);
      }
      Clock::time_point t2 = Clock::now();
      reach_seconds += Seconds(t0, t1);
      lens_seconds += Seconds(t1, t2);
      reach_pairs += reach.size();
      lens_pairs += lens.size();
    }
  }
  g_sink.fetch_add(static_cast<uint64_t>(sink), std::memory_order_relaxed);
  const double nq = static_cast<double>(std::max<size_t>(queries.size(), 1));
  CandidateReplay out;
  out.candidates_per_query = static_cast<double>(candidates) / nq;
  out.reach_rejected_per_query = static_cast<double>(reach_pairs) / nq;
  out.lens_per_query = static_cast<double>(lens_pairs) / nq;
  out.reach_ns = reach_pairs == 0 ? 0.0
                                  : reach_seconds * 1e9 /
                                        static_cast<double>(reach_pairs);
  out.lens_ns =
      lens_pairs == 0 ? 0.0
                      : lens_seconds * 1e9 / static_cast<double>(lens_pairs);
  return out;
}

double CrcNsPerPage() {
  constexpr size_t kPage = 4096;
  constexpr size_t kPages = 64;
  constexpr int kPasses = 16;
  std::vector<uint8_t> buffer(kPage * kPages);
  vitri::Rng rng(12345);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextU64());
  return MedianOfThree([&] {
    uint32_t crc = 0;
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (size_t p = 0; p < kPages; ++p) {
        crc ^= vitri::Crc32c(buffer.data() + p * kPage, kPage);
      }
    }
    const double seconds = Seconds(start, Clock::now());
    g_sink.fetch_add(crc, std::memory_order_relaxed);
    return seconds * 1e9 / static_cast<double>(kPages * kPasses);
  });
}

double DecodeNsPerRecord(const std::vector<ViTri>& records, int dimension) {
  const size_t count = std::min<size_t>(records.size(), 20000);
  if (count == 0) return 0.0;
  const size_t size = ViTri::SerializedSize(dimension);
  std::vector<uint8_t> bytes(count * size);
  std::vector<uint8_t> one;
  for (size_t i = 0; i < count; ++i) {
    records[i].Serialize(&one);
    std::memcpy(bytes.data() + i * size, one.data(), size);
  }
  return MedianOfThree([&] {
    uint64_t ok = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      auto v = ViTri::Deserialize(
          std::span<const uint8_t>(bytes.data() + i * size, size), dimension);
      ok += v.ok() ? v->cluster_size : 0;
    }
    const double seconds = Seconds(start, Clock::now());
    g_sink.fetch_add(ok, std::memory_order_relaxed);
    return seconds * 1e9 / static_cast<double>(count);
  });
}

void AddIndexLayerMetrics(const KnnReplay& replay,
                          const CandidateReplay& candidates,
                          const SpanMedians& spans, size_t total_vitris,
                          double accumulator_slots,
                          const vitri::storage::IoSnapshot& pool_delta,
                          uint64_t served_queries, size_t page_size,
                          double decode_ns, Report* report) {
  const double nq = static_cast<double>(std::max<size_t>(replay.queries, 1));
  const QueryCosts& t = replay.total;
  const double candidates_pq = static_cast<double>(t.candidates) / nq;
  const double physical_pq = static_cast<double>(t.physical_reads) / nq;
  report->Add("index.pages_per_query",
              static_cast<double>(t.page_accesses) / nq, "count");
  report->Add("index.physical_reads_per_query", physical_pq, "count");
  report->Add("index.candidates_per_query", candidates_pq, "count");
  report->Add("index.similarity_evals_per_query",
              static_cast<double>(t.similarity_evals) / nq, "count");
  report->Add("index.range_searches_per_query",
              static_cast<double>(t.range_searches) / nq, "count");
  report->Add("index.pruned_frac",
              total_vitris == 0
                  ? 0.0
                  : 1.0 - std::min(1.0, candidates_pq /
                                            static_cast<double>(total_vitris)),
              "fraction");
  report->Add("rank.accumulator_slots_per_query", accumulator_slots, "count");
  report->Add("index.span.transform_us", spans.transform_us, "us");
  report->Add("index.span.compose_us", spans.compose_us, "us");
  report->Add("index.span.scan_us", spans.scan_us, "us");
  report->Add("index.span.refine_us", spans.refine_us, "us_sampled");
  report->Add("index.span.rank_us", spans.rank_us, "us");

  const double served =
      static_cast<double>(std::max<uint64_t>(served_queries, 1));
  const double logical = static_cast<double>(pool_delta.logical_reads);
  const double hits = static_cast<double>(pool_delta.cache_hits);
  report->Add("pool.hit_rate", logical > 0.0 ? hits / logical : 0.0,
              "fraction");
  report->Add("pool.misses_per_query", (logical - hits) / served, "count");
  report->Add("pool.evictions_per_query",
              static_cast<double>(pool_delta.evictions) / served, "count");
  report->Add("pool.prefetch_hit_rate",
              pool_delta.prefetch_issued == 0
                  ? 0.0
                  : static_cast<double>(pool_delta.prefetch_hits) /
                        static_cast<double>(pool_delta.prefetch_issued),
              "fraction");

  report->Add("crc.ns_per_page", CrcNsPerPage(), "ns");
  report->Add("crc.bytes_per_query",
              physical_pq * static_cast<double>(page_size), "B_computed");
  report->Add("decode.ns_per_record", decode_ns, "ns");
  report->Add("decode.records_per_query", candidates_pq, "count");
  report->Add("similarity.reach_rejected_per_query",
              candidates.reach_rejected_per_query, "count");
  report->Add("similarity.lens_per_query", candidates.lens_per_query, "count");
  report->Add("similarity.reach_ns", candidates.reach_ns, "ns");
  report->Add("similarity.lens_ns", candidates.lens_ns, "ns");
  report->Add("bench.replay_candidates_delta",
              candidates.candidates_per_query - candidates_pq, "count");
}

}  // namespace perfbench
