// The per-query trace contract (DESIGN.md §12): spans cover the query's
// stages and sum to (at most) its total latency, span I/O deltas add up
// to the pool's overall delta, traced queries return bit-identical
// results to untraced ones, and a query with no trace attached records
// nothing and perturbs nothing.

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/query_trace.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

struct TraceWorld {
  video::VideoDatabase db;
  ViTriSet set;
  std::vector<BatchQuery> queries;
};

TraceWorld MakeTraceWorld(int num_queries, uint64_t seed = 1205) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  TraceWorld w;
  w.db = synth.GenerateDatabase(0.004);
  ViTriBuilder builder;
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  for (int q = 0; q < num_queries; ++q) {
    const auto src = static_cast<size_t>(q) % w.db.num_videos();
    const video::VideoSequence dup = synth.MakeNearDuplicate(
        w.db.videos[src],
        static_cast<uint32_t>(w.db.num_videos() + static_cast<size_t>(q)));
    auto summary = builder.Build(dup);
    EXPECT_TRUE(summary.ok());
    w.queries.push_back(BatchQuery{
        std::move(*summary), static_cast<uint32_t>(dup.num_frames())});
  }
  return w;
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::set<std::string> SpanNames(const QueryTrace& trace) {
  std::set<std::string> names;
  for (const TraceSpan& s : trace.spans()) names.insert(s.name);
  return names;
}

TEST(QueryTraceTest, SpansCoverTheComposedKnnStages) {
  TraceWorld w = MakeTraceWorld(1);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  QueryTrace trace;
  QueryCosts costs;
  auto result = index->Knn(w.queries[0].vitris, w.queries[0].num_frames, 10,
                           KnnMethod::kComposed, &costs, &trace);
  ASSERT_TRUE(result.ok());

  // Refinement streams inside the scan loop, so it is timed as part of
  // "scan"; only a degraded query records a separate "refine" span.
  EXPECT_EQ(SpanNames(trace),
            (std::set<std::string>{"transform", "compose", "scan", "rank"}));
  EXPECT_GT(trace.total_seconds(), 0.0);
  // Spans are disjoint stages of the same query: their durations sum to
  // at most the total wall time (the slack is untraced glue), and they
  // account for nearly all of it.
  EXPECT_LE(trace.SpanSeconds(), trace.total_seconds());
  EXPECT_GE(trace.SpanSeconds(), trace.total_seconds() * 0.5);
  // Spans are recorded in stage order, with nonnegative offsets that
  // never exceed the total.
  double prev_start = 0.0;
  for (const TraceSpan& s : trace.spans()) {
    EXPECT_GE(s.start_seconds, prev_start);
    EXPECT_GE(s.duration_seconds, 0.0);
    EXPECT_LE(s.start_seconds + s.duration_seconds,
              trace.total_seconds() + 1e-6);
    prev_start = s.start_seconds;
  }
}

TEST(QueryTraceTest, NaiveMethodHasNoComposeSpan) {
  TraceWorld w = MakeTraceWorld(1);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  QueryTrace trace;
  auto result = index->Knn(w.queries[0].vitris, w.queries[0].num_frames, 10,
                           KnnMethod::kNaive, nullptr, &trace);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SpanNames(trace),
            (std::set<std::string>{"transform", "scan", "rank"}));
}

TEST(QueryTraceTest, SpanIoDeltasMatchThePoolsOverallDelta) {
  TraceWorld w = MakeTraceWorld(1);
  ViTriIndexOptions roomy;
  roomy.dimension = w.db.dimension;
  // A pool far smaller than the tree, with readahead on, so the query
  // also evicts and issues prefetches: every IoSnapshot field the pool
  // moves must survive the per-span sum.
  ViTriIndexOptions tight = roomy;
  tight.buffer_pool_pages = 4;
  tight.buffer_pool_options.readahead_pages = 4;
  for (const ViTriIndexOptions& io : {roomy, tight}) {
    auto index = ViTriIndex::Build(w.set, io);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index->DropCaches().ok());

    const storage::IoSnapshot before = index->io_stats().Snapshot();
    QueryTrace trace;
    QueryCosts costs;
    auto result = index->Knn(w.queries[0].vitris, w.queries[0].num_frames,
                             10, KnnMethod::kComposed, &costs, &trace);
    ASSERT_TRUE(result.ok());
    const storage::IoSnapshot pool_delta =
        index->io_stats().Snapshot() - before;

    // Single-threaded query: all pool traffic happens inside some span
    // (the spans tile the query), so the per-span deltas sum to exactly
    // the pool's delta across the query.
    EXPECT_EQ(trace.TotalIo(), pool_delta) << pool_delta.ToString();
    EXPECT_GT(pool_delta.logical_reads, 0u);
    EXPECT_EQ(pool_delta.logical_reads, costs.page_accesses);
    if (io.buffer_pool_pages == tight.buffer_pool_pages) {
      EXPECT_GT(pool_delta.evictions, 0u);
      EXPECT_GT(pool_delta.prefetch_issued, 0u);
    }

    // The tree is only touched during the scan span.
    for (const TraceSpan& s : trace.spans()) {
      if (std::string(s.name) != "scan") {
        EXPECT_EQ(s.io.logical_reads, 0u) << s.name;
      }
    }
  }
}

TEST(QueryTraceTest, TracedResultsAreBitIdenticalToUntraced) {
  TraceWorld w = MakeTraceWorld(4);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  for (const KnnMethod method :
       {KnnMethod::kComposed, KnnMethod::kNaive}) {
    for (const BatchQuery& q : w.queries) {
      QueryCosts untraced_costs;
      auto untraced =
          index->Knn(q.vitris, q.num_frames, 10, method, &untraced_costs);
      ASSERT_TRUE(untraced.ok());
      QueryTrace trace;
      QueryCosts traced_costs;
      auto traced = index->Knn(q.vitris, q.num_frames, 10, method,
                               &traced_costs, &trace);
      ASSERT_TRUE(traced.ok());
      ASSERT_EQ(untraced->size(), traced->size());
      for (size_t i = 0; i < untraced->size(); ++i) {
        EXPECT_EQ((*untraced)[i].video_id, (*traced)[i].video_id);
        EXPECT_TRUE(BitIdentical((*untraced)[i].similarity,
                                 (*traced)[i].similarity));
      }
      // Tracing never changes what the query counts, either.
      EXPECT_EQ(untraced_costs.candidates, traced_costs.candidates);
      EXPECT_EQ(untraced_costs.similarity_evals,
                traced_costs.similarity_evals);
      EXPECT_EQ(untraced_costs.range_searches, traced_costs.range_searches);
    }
  }
}

TEST(QueryTraceTest, UntracedQueryRecordsNothing) {
  TraceWorld w = MakeTraceWorld(1);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  QueryTrace trace;  // Never attached.
  auto result = index->Knn(w.queries[0].vitris, w.queries[0].num_frames, 10,
                           KnnMethod::kComposed);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.total_seconds(), 0.0);
  EXPECT_EQ(trace.SpanSeconds(), 0.0);
}

TEST(QueryTraceTest, TracingNeverPerturbsQueryCosts) {
  TraceWorld w = MakeTraceWorld(1);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->DropCaches().ok());

  // Cold-cache untraced run, then a cold-cache traced run: tracing only
  // *reads* the pool counters, so both report the same page accesses.
  QueryCosts untraced;
  ASSERT_TRUE(index
                  ->Knn(w.queries[0].vitris, w.queries[0].num_frames, 10,
                        KnnMethod::kComposed, &untraced)
                  .ok());
  ASSERT_TRUE(index->DropCaches().ok());
  QueryTrace trace;
  QueryCosts traced;
  ASSERT_TRUE(index
                  ->Knn(w.queries[0].vitris, w.queries[0].num_frames, 10,
                        KnnMethod::kComposed, &traced, &trace)
                  .ok());
  EXPECT_EQ(untraced.page_accesses, traced.page_accesses);
  EXPECT_EQ(untraced.physical_reads, traced.physical_reads);
}

TEST(QueryTraceTest, BatchKnnFillsOneTracePerQuery) {
  TraceWorld w = MakeTraceWorld(6);
  ShardedIndexOptions options;
  options.num_shards = 0;  // VITRI_INDEX_SHARDS, else 1.
  options.shard_options.dimension = w.db.dimension;
  auto index = ShardedViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());

  ThreadPool pool(4);
  std::vector<QueryTrace> traces;
  auto batch = index->BatchKnn(w.queries, 10, KnnMethod::kComposed, &pool,
                               nullptr, &traces);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(traces.size(), w.queries.size());
  for (const QueryTrace& trace : traces) {
    EXPECT_FALSE(trace.spans().empty());
    EXPECT_GT(trace.total_seconds(), 0.0);
    // One shard's spans sum to at most the query's latency. (Spans of
    // different shards may overlap on the pool, so their grand total
    // need not.)
    std::map<uint32_t, double> per_shard;
    for (const TraceSpan& span : trace.spans()) {
      per_shard[span.shard] += span.duration_seconds;
    }
    for (const auto& [shard, seconds] : per_shard) {
      EXPECT_LE(seconds, trace.total_seconds()) << "shard " << shard;
    }
  }
}

TEST(QueryTraceTest, BatchTraceTotalsEndWithTheirOwnQuery) {
  // Eight copies of one query on a one-thread executor run their tasks
  // one after another, query-major: query q's last task ends before
  // query q + 1's first task starts. Each trace's total must end with
  // its own query's last task, not at the end of the whole batch.
  TraceWorld w = MakeTraceWorld(1);
  ShardedIndexOptions options;
  options.num_shards = 4;
  options.shard_options.dimension = w.db.dimension;
  auto index = ShardedViTriIndex::Build(w.set, options);
  ASSERT_TRUE(index.ok());

  const std::vector<BatchQuery> queries(8, w.queries[0]);
  ThreadPool pool(1);
  std::vector<QueryTrace> traces;
  auto batch = index->BatchKnn(queries, 10, KnnMethod::kComposed, &pool,
                               nullptr, &traces);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(traces.size(), queries.size());
  for (size_t q = 0; q < traces.size(); ++q) {
    ASSERT_FALSE(traces[q].spans().empty());
    // The total covers every span of the query it traces...
    for (const TraceSpan& span : traces[q].spans()) {
      EXPECT_LE(span.start_seconds + span.duration_seconds,
                traces[q].total_seconds())
          << "query " << q;
    }
    // ...and ends before the next query's first span starts (all the
    // batch's traces share the call's start as their epoch).
    if (q + 1 < traces.size()) {
      EXPECT_LE(traces[q].total_seconds(),
                traces[q + 1].spans().front().start_seconds)
          << "query " << q;
    }
  }
}

TEST(QueryTraceTest, ToJsonRoundTripsThroughTheParser) {
  TraceWorld w = MakeTraceWorld(1);
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.set, io);
  ASSERT_TRUE(index.ok());

  QueryTrace trace;
  ASSERT_TRUE(index
                  ->Knn(w.queries[0].vitris, w.queries[0].num_frames, 10,
                        KnnMethod::kComposed, nullptr, &trace)
                  .ok());
  auto parsed = json::ParseJson(trace.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::JsonValue* total = parsed->Find("total_seconds");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->number, trace.total_seconds());
  const json::JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  ASSERT_EQ(spans->array.size(), trace.spans().size());
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const json::JsonValue& span = spans->array[i];
    const json::JsonValue* name = span.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string_value, trace.spans()[i].name);
    const json::JsonValue* io_obj = span.Find("io");
    ASSERT_NE(io_obj, nullptr);
    const json::JsonValue* reads = io_obj->Find("logical_reads");
    ASSERT_NE(reads, nullptr);
    EXPECT_EQ(reads->number,
              static_cast<double>(trace.spans()[i].io.logical_reads));
  }
}

TEST(QueryTraceTest, BeginResetsAReusedTrace) {
  QueryTrace trace;
  trace.Begin();
  {
    storage::MemPager pager(256);
    storage::BufferPool pool(&pager, 4);
    TraceSpanScope span(&trace, "scan", &pool);
  }
  trace.End();
  ASSERT_EQ(trace.spans().size(), 1u);
  trace.Begin();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.total_seconds(), 0.0);
}

}  // namespace
}  // namespace vitri::core
