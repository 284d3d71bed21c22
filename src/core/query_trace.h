#ifndef VITRI_CORE_QUERY_TRACE_H_
#define VITRI_CORE_QUERY_TRACE_H_

#include <chrono>
#include <string>
#include <vector>

#include "storage/io_stats.h"

namespace vitri::storage {
class BufferPool;
}  // namespace vitri::storage

namespace vitri::core {

/// One timed stage of a query, with the buffer pool's I/O counter delta
/// observed across it.
struct TraceSpan {
  /// Stage name: "transform", "compose", "scan", "rank", plus "refine"
  /// when a query degrades to in-memory evaluation.
  const char* name = "";
  /// Offset of the span start from QueryTrace::Begin(), seconds.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  /// The index shard that ran the stage (0 on an unsharded index).
  uint32_t shard = 0;
  /// Pool counter delta across the span. For a single-threaded query
  /// this is exactly the span's own traffic; under BatchKnn the pool is
  /// shared, so concurrent tasks' fetches land in whichever spans are
  /// open (see DESIGN.md §12).
  storage::IoSnapshot io;
};

/// Lightweight per-query trace: an append-only list of timed spans for
/// the KNN stages (transform → key-range composition → B+-tree range
/// scan, which refines each candidate as it is read → ranking). Attach
/// one by passing it to ViTriIndex::Knn(), or a vector of them to
/// ShardedViTriIndex::BatchKnn(); a null trace
/// pointer costs nothing on the query path (a pointer test), and span
/// capture itself only reads the pool's atomic counters — it never
/// writes them, so QueryCosts and the paper's I/O figures are
/// unaffected by tracing.
///
/// A QueryTrace is single-owner state: one query (one BatchKnn task)
/// fills one trace. Reuse across queries is fine — Begin() resets it.
class QueryTrace {
 public:
  /// Clears recorded spans and stamps the trace epoch. Called by the
  /// index at query entry; harmless to call directly.
  void Begin();
  /// Stamps the total query duration (wall time since Begin()).
  void End();

  const std::vector<TraceSpan>& spans() const { return spans_; }
  double total_seconds() const { return total_seconds_; }

  /// Sum of the spans' durations; <= total_seconds() (the difference is
  /// untraced glue between stages).
  double SpanSeconds() const;
  /// Appends `other`'s spans tagged with `shard`, their start offsets
  /// moved onto this trace's epoch, and extends total_seconds() to
  /// `other`'s end if that is later. The sharded index assembles one
  /// query's trace from its per-shard traces this way, so the query's
  /// total ends when its last shard finished, however many other
  /// queries shared the batch.
  void AppendShard(const QueryTrace& other, uint32_t shard);
  /// Sum of the spans' I/O deltas.
  storage::IoSnapshot TotalIo() const;

  /// One line per span: shard, name, start offset, duration, pages.
  std::string ToString() const;
  /// JSON: {"total_seconds": ..., "spans": [{"name": ..., "shard": ...,
  /// ...}]}.
  /// Parseable by json::ParseJson (round-trip tested).
  std::string ToJson() const;

 private:
  friend class TraceSpanScope;
  using Clock = std::chrono::steady_clock;

  Clock::time_point epoch_{};
  double total_seconds_ = 0.0;
  std::vector<TraceSpan> spans_;
};

/// RAII span recorder. Null-safe: with trace == nullptr, construction
/// and destruction reduce to a pointer test — the untraced hot path
/// stays untouched. With a trace, construction snapshots the clock and
/// the pool's (shard-folded) counters, destruction appends the finished
/// span. Snapshot bodies live in the .cc so this header needs only a
/// forward declaration of BufferPool.
class TraceSpanScope {
 public:
  TraceSpanScope(QueryTrace* trace, const char* name,
                 const storage::BufferPool* pool);
  ~TraceSpanScope();

  TraceSpanScope(const TraceSpanScope&) = delete;
  TraceSpanScope& operator=(const TraceSpanScope&) = delete;

 private:
  QueryTrace* trace_;
  const char* name_;
  const storage::BufferPool* pool_;
  QueryTrace::Clock::time_point start_{};
  storage::IoSnapshot io_before_;
};

}  // namespace vitri::core

#endif  // VITRI_CORE_QUERY_TRACE_H_
