#include "core/query_trace.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "storage/buffer_pool.h"

namespace vitri::core {

void QueryTrace::Begin() {
  spans_.clear();
  // One allocation up front instead of push_back growth inside the
  // query (a KNN records at most five spans).
  spans_.reserve(6);
  total_seconds_ = 0.0;
  epoch_ = Clock::now();
}

void QueryTrace::End() {
  total_seconds_ =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void QueryTrace::AppendShard(const QueryTrace& other, uint32_t shard) {
  const double offset =
      std::chrono::duration<double>(other.epoch_ - epoch_).count();
  for (TraceSpan span : other.spans_) {
    span.shard = shard;
    span.start_seconds += offset;
    spans_.push_back(span);
  }
  total_seconds_ = std::max(total_seconds_, offset + other.total_seconds_);
}

double QueryTrace::SpanSeconds() const {
  double sum = 0.0;
  for (const TraceSpan& s : spans_) sum += s.duration_seconds;
  return sum;
}

storage::IoSnapshot QueryTrace::TotalIo() const {
  storage::IoSnapshot total;
  for (const TraceSpan& s : spans_) total = total + s.io;
  return total;
}

std::string QueryTrace::ToString() const {
  std::ostringstream os;
  os << "query trace: total " << total_seconds_ * 1e3 << " ms\n";
  for (const TraceSpan& s : spans_) {
    os << "  shard " << s.shard << " " << s.name << ": start +"
       << s.start_seconds * 1e3 << " ms, " << s.duration_seconds * 1e3
       << " ms, " << s.io.logical_reads << " page accesses ("
       << s.io.physical_reads << " physical)\n";
  }
  return os.str();
}

std::string QueryTrace::ToJson() const {
  json::JsonWriter w;
  w.BeginObject();
  w.Key("total_seconds");
  w.Double(total_seconds_);
  w.Key("spans");
  w.BeginArray();
  for (const TraceSpan& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("shard");
    w.Uint(s.shard);
    w.Key("start_seconds");
    w.Double(s.start_seconds);
    w.Key("duration_seconds");
    w.Double(s.duration_seconds);
    w.Key("io");
    w.BeginObject();
    storage::WriteIoSnapshotFields(s.io, &w);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

TraceSpanScope::TraceSpanScope(QueryTrace* trace, const char* name,
                               const storage::BufferPool* pool)
    : trace_(trace), name_(name), pool_(pool) {
  if (trace_ != nullptr) {
    start_ = QueryTrace::Clock::now();
    io_before_ = pool_->StatsSnapshot();
  }
}

TraceSpanScope::~TraceSpanScope() {
  if (trace_ == nullptr) return;
  const QueryTrace::Clock::time_point end = QueryTrace::Clock::now();
  TraceSpan span;
  span.name = name_;
  span.start_seconds =
      std::chrono::duration<double>(start_ - trace_->epoch_).count();
  span.duration_seconds =
      std::chrono::duration<double>(end - start_).count();
  span.io = pool_->StatsSnapshot() - io_before_;
  trace_->spans_.push_back(span);
}

}  // namespace vitri::core
