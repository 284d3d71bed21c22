// serving_load — multi-threaded load driver for the vitrid serving
// layer. Measures throughput, tail latency, and admission-control
// behavior, and writes BENCH_serving.json via the shared bench_report
// plumbing.
//
// Two arrival models, one row each in the artifact:
//   * closed-loop: T client threads issue back-to-back KNN requests —
//     the classic saturation throughput measurement;
//   * open-loop: arrivals follow a fixed global rate R (threads pull
//     arrival slots off a shared counter and sleep until each slot's
//     scheduled time), so queueing delay and Overloaded rejections are
//     visible instead of being absorbed by client back-pressure.
//
// Self-contained by default: builds a synthetic workload, serves it
// in-process on a unix socket under a fresh temp directory, and drives
// load against that. Point it at an external server with --socket PATH
// or --host IP --port N (the synthesized queries assume the server
// indexes the same synthetic world, dimension 64).
//
//   serving_load [--threads 4] [--duration 2.0] [--rate 200]
//                [--k 10] [--deadline-ms 0] [--queue 64] [--workers 2]
//                [--scale 0.004] [--num-queries 8]
//                [--socket PATH | --host IP --port N]

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/sharded_index.h"
#include "harness/bench_common.h"
#include "harness/bench_report.h"
#include "serving/client.h"
#include "serving/server.h"

namespace {

using namespace vitri;
using Clock = std::chrono::steady_clock;

struct Args {
  int argc;
  char** argv;

  const char* Get(const char* name, const char* fallback) const {
    for (int i = 0; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return fallback;
  }
  double GetDouble(const char* name, double fallback) const {
    const char* v = Get(name, nullptr);
    return v != nullptr ? std::atof(v) : fallback;
  }
  long GetLong(const char* name, long fallback) const {
    const char* v = Get(name, nullptr);
    return v != nullptr ? std::atol(v) : fallback;
  }
};

/// Where to connect: unix path or host:port.
struct Endpoint {
  std::string socket_path;
  std::string host;
  int port = -1;

  Result<serving::Client> Connect() const {
    if (!socket_path.empty()) {
      return serving::Client::ConnectUnix(socket_path);
    }
    return serving::Client::ConnectTcp(host, port);
  }
};

/// Shared outcome tally. The histogram is the repo's lock-free metrics
/// type, so every client thread records without coordination.
struct LoadStats {
  metrics::Histogram latency_us;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> other{0};

  uint64_t total() const {
    return ok.load() + rejected.load() + deadline_exceeded.load() +
           transport_errors.load() + other.load();
  }
};

void RecordOutcome(const Result<serving::KnnResponse>& resp,
                   uint64_t latency, LoadStats* stats) {
  if (!resp.ok()) {
    stats->transport_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stats->latency_us.Record(latency);
  switch (resp->head.status) {
    case serving::WireStatus::kOk:
      stats->ok.fetch_add(1, std::memory_order_relaxed);
      break;
    case serving::WireStatus::kOverloaded:
      stats->rejected.fetch_add(1, std::memory_order_relaxed);
      break;
    case serving::WireStatus::kDeadlineExceeded:
      stats->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      stats->other.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

serving::KnnRequest MakeRequest(const std::vector<core::BatchQuery>& queries,
                                size_t index, uint64_t request_id,
                                uint32_t k, uint32_t deadline_ms,
                                int dimension) {
  serving::KnnRequest req;
  req.request_id = request_id;
  req.deadline_ms = deadline_ms;
  req.k = k;
  req.method = core::KnnMethod::kComposed;
  req.dimension = static_cast<uint32_t>(dimension);
  req.queries.push_back(queries[index % queries.size()]);
  return req;
}

/// Closed loop: each thread sends back-to-back until `end`.
void ClosedLoopWorker(const Endpoint& endpoint,
                      const std::vector<core::BatchQuery>& queries,
                      uint32_t k, uint32_t deadline_ms, int dimension,
                      size_t thread_index, Clock::time_point end,
                      LoadStats* stats) {
  Result<serving::Client> client = endpoint.Connect();
  if (!client.ok()) {
    stats->transport_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t seq = 0;
  while (Clock::now() < end) {
    const serving::KnnRequest req =
        MakeRequest(queries, thread_index + seq, (thread_index << 32) | seq,
                    k, deadline_ms, dimension);
    const Clock::time_point start = Clock::now();
    const Result<serving::KnnResponse> resp = client->Knn(req);
    const uint64_t latency =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(Clock::now() -
                                                             start)
                                  .count());
    RecordOutcome(resp, latency, stats);
    if (!resp.ok()) return;  // Connection broken; stop this thread.
    ++seq;
  }
}

/// Open loop: threads claim arrival slots off `arrivals` and honor each
/// slot's scheduled time, so the offered rate is independent of service
/// time.
void OpenLoopWorker(const Endpoint& endpoint,
                    const std::vector<core::BatchQuery>& queries,
                    uint32_t k, uint32_t deadline_ms, int dimension,
                    double rate_per_s, Clock::time_point start_time,
                    Clock::time_point end, std::atomic<uint64_t>* arrivals,
                    LoadStats* stats) {
  Result<serving::Client> client = endpoint.Connect();
  if (!client.ok()) {
    stats->transport_errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (;;) {
    const uint64_t slot = arrivals->fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point scheduled =
        start_time + std::chrono::microseconds(static_cast<uint64_t>(
                         1e6 * static_cast<double>(slot) / rate_per_s));
    if (scheduled >= end) return;
    std::this_thread::sleep_until(scheduled);
    const serving::KnnRequest req =
        MakeRequest(queries, slot, slot, k, deadline_ms, dimension);
    const Clock::time_point start = Clock::now();
    const Result<serving::KnnResponse> resp = client->Knn(req);
    const uint64_t latency =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(Clock::now() -
                                                             start)
                                  .count());
    RecordOutcome(resp, latency, stats);
    if (!resp.ok()) return;
  }
}

void ReportRow(bench::BenchReport* report, const char* mode, size_t threads,
               double duration_s, double rate_per_s,
               const LoadStats& stats) {
  const metrics::Histogram::Snapshot snap = stats.latency_us.TakeSnapshot();
  const uint64_t total = stats.total();
  bench::BenchReport::Row& row = report->AddRow();
  row.Set("mode", mode)
      .Set("threads", threads)
      .Set("duration_s", duration_s)
      .Set("offered_rate_per_s", rate_per_s)
      .Set("requests", total)
      .Set("ok", stats.ok.load())
      .Set("rejected_overloaded", stats.rejected.load())
      .Set("deadline_exceeded", stats.deadline_exceeded.load())
      .Set("transport_errors", stats.transport_errors.load())
      .Set("other_failures", stats.other.load())
      .Set("throughput_per_s",
           duration_s > 0.0 ? static_cast<double>(stats.ok.load()) /
                                  duration_s
                            : 0.0)
      .Set("latency_us_mean", snap.Mean())
      .Set("latency_us_p50", snap.Percentile(50.0))
      .Set("latency_us_p95", snap.Percentile(95.0))
      .Set("latency_us_p99", snap.Percentile(99.0))
      .Set("rejection_rate",
           total > 0 ? static_cast<double>(stats.rejected.load()) /
                           static_cast<double>(total)
                     : 0.0);
  std::printf(
      "%-7s %2zu threads  %6llu reqs  %8.1f req/s  "
      "p50 %7.0fus  p95 %7.0fus  p99 %7.0fus  rej %5.1f%%\n",
      mode, threads, static_cast<unsigned long long>(total),
      duration_s > 0.0 ? static_cast<double>(stats.ok.load()) / duration_s
                       : 0.0,
      snap.Percentile(50.0), snap.Percentile(95.0), snap.Percentile(99.0),
      total > 0 ? 100.0 * static_cast<double>(stats.rejected.load()) /
                      static_cast<double>(total)
                : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args{argc - 1, argv + 1};
  const size_t threads = static_cast<size_t>(args.GetLong("--threads", 4));
  const double duration_s = args.GetDouble("--duration", 2.0);
  const double rate_per_s = args.GetDouble("--rate", 200.0);
  const uint32_t k = static_cast<uint32_t>(args.GetLong("--k", 10));
  const uint32_t deadline_ms =
      static_cast<uint32_t>(args.GetLong("--deadline-ms", 0));
  const double scale = args.GetDouble("--scale", 0.004);
  const int num_queries =
      static_cast<int>(args.GetLong("--num-queries", 8));

  bench::PrintHeader("BENCH_serving",
                     "vitrid load driver (open/closed loop)");

  // Query material: near-duplicates of the synthetic world's videos,
  // summarized at the default epsilon.
  bench::WorkloadOptions wo;
  wo.scale = scale;
  wo.num_queries = num_queries;
  wo.keep_frames = true;
  const bench::Workload workload = bench::BuildWorkload(wo);
  std::vector<core::BatchQuery> queries;
  queries.reserve(workload.queries.size());
  for (const video::VideoSequence& q : workload.queries) {
    queries.push_back(core::BatchQuery{
        bench::Summarize(q, workload.epsilon),
        static_cast<uint32_t>(q.num_frames())});
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries synthesized (scale too small?)\n");
    return 1;
  }

  // Endpoint: external if given, else an in-process server on a unix
  // socket in a fresh temp directory.
  Endpoint endpoint;
  endpoint.socket_path = args.Get("--socket", "");
  endpoint.host = args.Get("--host", "127.0.0.1");
  endpoint.port = static_cast<int>(args.GetLong("--port", -1));
  const bool external = !endpoint.socket_path.empty() || endpoint.port >= 0;

  std::unique_ptr<core::ShardedViTriIndex> index;
  std::unique_ptr<serving::Server> server;
  std::string temp_dir;
  if (!external) {
    core::ShardedIndexOptions io;
    io.shard_options.dimension = workload.db.dimension;
    io.shard_options.epsilon = workload.epsilon;
    Result<core::ShardedViTriIndex> built =
        core::ShardedViTriIndex::Build(workload.set, io);
    if (!built.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    index = std::make_unique<core::ShardedViTriIndex>(std::move(*built));
    char tmpl[] = "/tmp/vitri_serving_load_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    temp_dir = tmpl;
    serving::ServerOptions so;
    so.unix_socket_path = temp_dir + "/vitrid.sock";
    so.queue_capacity = static_cast<size_t>(args.GetLong("--queue", 64));
    so.num_workers = static_cast<size_t>(args.GetLong("--workers", 2));
    server = std::make_unique<serving::Server>(index.get(), so);
    const Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    endpoint.socket_path = so.unix_socket_path;
    std::printf("in-process server: %zu videos, queue %zu, %zu workers\n",
                index->num_videos(), so.queue_capacity, so.num_workers);
  }

  bench::BenchReport report("serving");

  // Phase 1: closed loop.
  {
    LoadStats stats;
    const Clock::time_point end =
        Clock::now() + std::chrono::microseconds(
                           static_cast<uint64_t>(1e6 * duration_s));
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ClosedLoopWorker(endpoint, queries, k, deadline_ms,
                         workload.db.dimension, t, end, &stats);
      });
    }
    for (std::thread& t : pool) t.join();
    ReportRow(&report, "closed", threads, duration_s, 0.0, stats);
  }

  // Phase 2: open loop at the configured rate.
  {
    LoadStats stats;
    std::atomic<uint64_t> arrivals{0};
    const Clock::time_point start_time = Clock::now();
    const Clock::time_point end =
        start_time + std::chrono::microseconds(
                         static_cast<uint64_t>(1e6 * duration_s));
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        OpenLoopWorker(endpoint, queries, k, deadline_ms,
                       workload.db.dimension, rate_per_s, start_time, end,
                       &arrivals, &stats);
      });
    }
    for (std::thread& t : pool) t.join();
    ReportRow(&report, "open", threads, duration_s, rate_per_s, stats);
  }

  if (server != nullptr) {
    const Status st = server->Shutdown();
    if (!st.ok()) {
      std::fprintf(stderr, "server shutdown failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    ::unlink((temp_dir + "/vitrid.sock").c_str());
    ::rmdir(temp_dir.c_str());
  }

  if (!report.WriteArtifact()) return 1;
  return 0;
}
