// Request-lifecycle guarantees of the vitrid server (src/serving/server.h),
// written to run clean under TSan (the tsan-stress CI lane runs this suite
// with halt_on_error=1):
//
//   * admission control — a full bounded queue answers kOverloaded, and
//     requests admitted before the queue filled are still answered kOk;
//   * deadlines — a request whose deadline lapses while queued is answered
//     kDeadlineExceeded at dequeue without touching the index, and the
//     deadline is re-checked before each (query, shard) task starts;
//   * graceful shutdown — Shutdown() stops admission (kShuttingDown) but
//     drains every queued and in-flight request, so no admitted request
//     ever loses its ack, and checkpoints a durable index so inserts
//     acked inside a group-commit window survive;
//   * sampled tracing — trace_every records per-shard spans into the
//     stats document, for requests with a deadline too;
//   * the shared knn executor — with knn_threads > 1 (the default on any
//     multi-core machine) every worker's (query, shard) tasks run on one
//     pool, the answers are those of inline execution, and stats report
//     the pool's size.
//
// Determinism comes from ServerOptions::stage_hook: a Gate parks worker
// threads at a named point ("worker.dequeue" / "worker.execute") so tests
// can fill the queue, lapse a deadline, or start a shutdown while the
// server is pinned in a known state, then release it and observe the
// typed responses.

#include "serving/server.h"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/thread_pool.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "serving/client.h"
#include "video/synthesizer.h"

namespace vitri::serving {
namespace {

using namespace std::chrono_literals;

struct World {
  video::VideoDatabase db;
  core::ViTriSet set;
};

World MakeWorld(double scale = 0.004, double epsilon = 0.15,
                uint64_t seed = 2005) {
  video::SynthesizerOptions so;
  so.seed = seed;
  video::VideoSynthesizer synth(so);
  World w;
  w.db = synth.GenerateDatabase(scale);
  core::ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(w.db);
  EXPECT_TRUE(set.ok());
  w.set = std::move(*set);
  return w;
}

/// The server's index; one shard unless a test asks for more. Round-robin
/// so a test can place videos in a known shard.
core::ShardedIndexOptions DefaultOptions(size_t num_shards = 1) {
  core::ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.assignment = core::ShardAssignment::kRoundRobin;
  options.shard_options.epsilon = 0.15;
  options.shard_options.dimension = 64;
  return options;
}

std::vector<core::ViTri> QuerySummary(const video::VideoSequence& seq,
                                      double epsilon = 0.15) {
  core::ViTriBuilderOptions bo;
  bo.epsilon = epsilon;
  core::ViTriBuilder builder(bo);
  auto result = builder.Build(seq);
  EXPECT_TRUE(result.ok());
  return *result;
}

/// Parks every thread that calls Arrive() until Open(); the test thread
/// uses AwaitWaiting() to know exactly how many workers are pinned.
/// Open() is sticky — late arrivals (after release) pass straight
/// through, so the hook can stay installed for the whole server life.
class Gate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  /// True once `n` threads are parked (or have passed through); false if
  /// that doesn't happen within `timeout`.
  bool AwaitWaiting(int n, std::chrono::milliseconds timeout = 30s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return waiting_ >= n; });
  }

  void Open() {
    std::unique_lock<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  bool open_ = false;
};

/// Temp dir holding the unix socket (and a durable index, if a test
/// puts one there); removed on scope exit.
class ScopedDir {
 public:
  ScopedDir() {
    char tmpl[] = "/tmp/vitri_lifecycle_XXXXXX";
    if (mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~ScopedDir() {
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }
  std::string socket_path() const { return path_ + "/vitrid.sock"; }
  std::string index_dir() const { return path_ + "/index"; }
  bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
};

KnnRequest MakeKnn(const std::vector<core::ViTri>& query,
                   uint32_t query_frames, uint64_t request_id,
                   uint32_t deadline_ms = 0, size_t num_queries = 1) {
  KnnRequest req;
  req.request_id = request_id;
  req.deadline_ms = deadline_ms;
  req.k = 3;
  req.method = core::KnnMethod::kComposed;
  req.dimension = query.empty()
                      ? 0
                      : static_cast<uint32_t>(query.front().dimension());
  core::BatchQuery q;
  q.vitris = query;
  q.num_frames = query_frames;
  req.queries.assign(num_queries, q);
  return req;
}

/// One request issued from its own thread through its own Client; the
/// response (or transport error) is captured for the test to join on.
struct AsyncKnn {
  std::thread thread;
  Status transport = Status::OK();
  KnnResponse response;

  void Start(const std::string& socket, KnnRequest request) {
    thread = std::thread([this, socket, request = std::move(request)] {
      auto client = Client::ConnectUnix(socket);
      if (!client.ok()) {
        transport = client.status();
        return;
      }
      auto resp = client->Knn(request);
      if (!resp.ok()) {
        transport = resp.status();
        return;
      }
      response = std::move(*resp);
    });
  }
  void Join() { thread.join(); }
};

bool PollUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(ServingLifecycleTest, PingAndShutdownRequestRoundTrip) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  auto pong = client->Ping(1);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->head.request_id, 1u);
  EXPECT_EQ(pong->head.status, WireStatus::kOk);

  // An in-band shutdown request is acked, then signals the owner loop —
  // it must not stop the server from inside a session thread.
  EXPECT_FALSE(server.WaitForShutdownRequest(0));
  auto ack = client->Shutdown(2);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->head.status, WireStatus::kOk);
  EXPECT_TRUE(server.WaitForShutdownRequest(10'000));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, AdmissionRejectsWithOverloadedWhenQueueIsFull) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.queue_capacity = 1;
  opts.num_workers = 1;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.dequeue") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // First request: dequeued immediately, worker parks at the gate.
  AsyncKnn held;
  held.Start(dir.socket_path(), MakeKnn(query, frames, 10));
  EXPECT_TRUE(gate.AwaitWaiting(1));

  // Second request: admitted, fills the only queue slot.
  AsyncKnn queued;
  queued.Start(dir.socket_path(), MakeKnn(query, frames, 11));
  EXPECT_TRUE(PollUntil([&] { return server.queue_depth() == 1; }));

  // Third request: typed rejection, answered inline while the worker is
  // still parked — admission control never blocks the session reader.
  {
    auto client = Client::ConnectUnix(dir.socket_path());
    EXPECT_TRUE(client.ok());
    auto resp = client->Knn(MakeKnn(query, frames, 12));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->head.request_id, 12u);
    EXPECT_EQ(resp->head.status, WireStatus::kOverloaded);
    EXPECT_FALSE(resp->error.empty());
  }

  // Releasing the worker answers both admitted requests with kOk.
  gate.Open();
  held.Join();
  queued.Join();
  EXPECT_TRUE(held.transport.ok()) << held.transport.ToString();
  EXPECT_TRUE(queued.transport.ok()) << queued.transport.ToString();
  EXPECT_EQ(held.response.head.status, WireStatus::kOk);
  EXPECT_EQ(queued.response.head.status, WireStatus::kOk);
  EXPECT_FALSE(held.response.results.empty());

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, DeadlineLapsedInQueueIsAnsweredAtDequeue) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.queue_capacity = 4;
  opts.num_workers = 1;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.dequeue") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // Plug request (no deadline) parks the only worker at its dequeue
  // hook, so the deadlined request below must wait in the queue.
  AsyncKnn plug;
  plug.Start(dir.socket_path(), MakeKnn(query, frames, 20));
  EXPECT_TRUE(gate.AwaitWaiting(1));

  AsyncKnn late;
  late.Start(dir.socket_path(), MakeKnn(query, frames, 21,
                                        /*deadline_ms=*/50));
  EXPECT_TRUE(PollUntil([&] { return server.queue_depth() == 1; }));

  // Let the deadline lapse while the request is queued, then release the
  // worker: the dequeue-time check must answer without running the query.
  std::this_thread::sleep_for(150ms);
  gate.Open();

  plug.Join();
  late.Join();
  EXPECT_TRUE(plug.transport.ok()) << plug.transport.ToString();
  EXPECT_TRUE(late.transport.ok()) << late.transport.ToString();
  EXPECT_EQ(plug.response.head.status, WireStatus::kOk);
  EXPECT_EQ(late.response.head.request_id, 21u);
  EXPECT_EQ(late.response.head.status, WireStatus::kDeadlineExceeded);
  EXPECT_NE(late.response.error.find("deadline"), std::string::npos);
  EXPECT_TRUE(late.response.results.empty());

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, DeadlineIsRecheckedBetweenExecutionStages) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.num_workers = 1;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.execute") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // The request passes the dequeue-time check (the deadline is still
  // comfortably in the future), parks at the execute hook, and the
  // deadline lapses there — the between-stages check must catch it.
  AsyncKnn stalled;
  stalled.Start(dir.socket_path(),
                MakeKnn(query, frames, 30, /*deadline_ms=*/300,
                        /*num_queries=*/3));
  // If the scheduler was pathologically slow the dequeue check itself
  // answers DeadlineExceeded and the worker never reaches the gate;
  // either way the client must see the typed status below.
  gate.AwaitWaiting(1, 2s);
  std::this_thread::sleep_for(400ms);
  gate.Open();

  stalled.Join();
  EXPECT_TRUE(stalled.transport.ok()) << stalled.transport.ToString();
  EXPECT_EQ(stalled.response.head.status, WireStatus::kDeadlineExceeded);
  EXPECT_NE(stalled.response.error.find("deadline"), std::string::npos);
  EXPECT_TRUE(stalled.response.results.empty());

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, GracefulShutdownDrainsInFlightWithoutDroppedAcks) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions());
  ASSERT_TRUE(index.ok());
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  Gate gate;
  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.queue_capacity = 4;
  opts.num_workers = 2;
  opts.stage_hook = [&](std::string_view point) {
    if (point == "worker.dequeue") gate.Arrive();
  };
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  // Pin both workers, then fill the queue: 6 admitted requests in
  // flight (2 held by workers, 4 queued), with the queue exactly full so
  // the pre-shutdown state is deterministic.
  std::vector<std::unique_ptr<AsyncKnn>> inflight;
  for (uint64_t i = 0; i < 2; ++i) {
    inflight.push_back(std::make_unique<AsyncKnn>());
    inflight.back()->Start(dir.socket_path(),
                           MakeKnn(query, frames, 40 + i));
  }
  EXPECT_TRUE(gate.AwaitWaiting(2));
  for (uint64_t i = 2; i < 6; ++i) {
    inflight.push_back(std::make_unique<AsyncKnn>());
    inflight.back()->Start(dir.socket_path(),
                           MakeKnn(query, frames, 40 + i));
  }
  EXPECT_TRUE(PollUntil([&] { return server.queue_depth() == 4; }));

  // A connection opened before the shutdown begins, used to probe the
  // admission plane while the drain is in progress. connect() returns
  // once the kernel queues the connection, so round-trip a ping to
  // prove the listener accepted it — Shutdown() stops accepting, and a
  // merely-queued probe would hang below.
  auto probe = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(probe.ok());
  {
    auto pong = probe->Ping(89);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong->head.status, WireStatus::kOk);
  }

  Status shutdown_status = Status::Internal("not run");
  std::thread closer([&] { shutdown_status = server.Shutdown(); });

  // Shutdown() closes admission before draining. With both workers
  // pinned and the queue full, a probe can only see kOverloaded (queue
  // still open, full) and then kShuttingDown (queue closed) — never kOk.
  bool saw_shutting_down = false;
  for (int i = 0; i < 100'000 && !saw_shutting_down; ++i) {
    auto resp = probe->Knn(MakeKnn(query, frames, 90));
    if (!resp.ok()) break;  // Session torn down later in the drain.
    EXPECT_NE(resp->head.status, WireStatus::kOk);
    saw_shutting_down = resp->head.status == WireStatus::kShuttingDown;
  }
  EXPECT_TRUE(saw_shutting_down);

  // Release the workers: the drain must answer all six admitted
  // requests with kOk before the server stops.
  gate.Open();
  closer.join();
  EXPECT_TRUE(shutdown_status.ok()) << shutdown_status.ToString();
  for (auto& req : inflight) {
    req->Join();
    EXPECT_TRUE(req->transport.ok()) << req->transport.ToString();
    EXPECT_EQ(req->response.head.status, WireStatus::kOk);
    EXPECT_FALSE(req->response.results.empty());
  }

  // The drained server rejects late connections outright.
  EXPECT_FALSE(Client::ConnectUnix(dir.socket_path()).ok());
}

/// A video the index has not seen yet: `source`'s summary relabelled as
/// `video_id`.
InsertRequest MakeInsert(const std::vector<core::ViTri>& source,
                         uint32_t frames, uint32_t video_id,
                         uint64_t request_id) {
  InsertRequest req;
  req.request_id = request_id;
  req.video_id = video_id;
  req.num_frames = frames;
  req.dimension = static_cast<uint32_t>(source.front().dimension());
  req.vitris = source;
  for (core::ViTri& v : req.vitris) v.video_id = video_id;
  return req;
}

TEST(ServingLifecycleTest, TraceEveryRecordsSpansOfEveryShard) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(2));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->live_shards(), 2u);
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.trace_every = 1;
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  auto resp = client->Knn(MakeKnn(query, frames, 1));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->head.status, WireStatus::kOk);

  // The traced request's spans come from both shards, each tagged.
  auto stats = json::ParseJson(server.BuildStatsJson());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const json::JsonValue* traces = stats->Find("recent_traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), 1u);
  const json::JsonValue* spans = traces->array[0].Find("spans");
  ASSERT_NE(spans, nullptr);
  std::set<double> shards;
  for (const json::JsonValue& span : spans->array) {
    const json::JsonValue* shard = span.Find("shard");
    ASSERT_NE(shard, nullptr);
    shards.insert(shard->number);
  }
  EXPECT_EQ(shards, (std::set<double>{0.0, 1.0}));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, DeadlinedRequestIsTraced) {
  // A request with a deadline runs the same single BatchKnn as one
  // without, so the trace slot it takes is filled like any other.
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(2));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->live_shards(), 2u);
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.trace_every = 1;
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  auto resp = client->Knn(MakeKnn(query, frames, 1, /*deadline_ms=*/60000,
                                  /*num_queries=*/2));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->head.status, WireStatus::kOk) << resp->error;
  ASSERT_EQ(resp->results.size(), 2u);

  auto stats = json::ParseJson(server.BuildStatsJson());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const json::JsonValue* traces = stats->Find("recent_traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->array.size(), 2u);  // One per query of the request.
  for (const json::JsonValue& trace : traces->array) {
    const json::JsonValue* spans = trace.Find("spans");
    ASSERT_NE(spans, nullptr);
    std::set<double> shards;
    for (const json::JsonValue& span : spans->array) {
      const json::JsonValue* shard = span.Find("shard");
      ASSERT_NE(shard, nullptr);
      shards.insert(shard->number);
    }
    EXPECT_EQ(shards, (std::set<double>{0.0, 1.0}));
  }
  EXPECT_TRUE(server.Shutdown().ok());
}

/// Answers of `requests`, each sent from its own client thread at once.
std::vector<KnnResponse> SendConcurrently(const std::string& socket,
                                          const std::vector<KnnRequest>&
                                              requests) {
  std::vector<AsyncKnn> calls(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    calls[i].Start(socket, requests[i]);
  }
  std::vector<KnnResponse> responses;
  for (AsyncKnn& call : calls) {
    call.Join();
    EXPECT_TRUE(call.transport.ok()) << call.transport.ToString();
    responses.push_back(std::move(call.response));
  }
  return responses;
}

/// Eight concurrent 3-query requests over `w`'s videos.
std::vector<KnnRequest> ThreeQueryRequests(const World& w) {
  std::vector<KnnRequest> requests;
  for (uint64_t r = 0; r < 8; ++r) {
    KnnRequest req;
    req.request_id = 100 + r;
    req.k = 5;
    req.method = core::KnnMethod::kComposed;
    for (size_t q = 0; q < 3; ++q) {
      const video::VideoSequence& seq =
          w.db.videos[(r * 3 + q) % w.db.num_videos()];
      req.queries.push_back(core::BatchQuery{
          QuerySummary(seq), static_cast<uint32_t>(seq.num_frames())});
    }
    req.dimension = static_cast<uint32_t>(
        req.queries.front().vitris.front().dimension());
    requests.push_back(std::move(req));
  }
  return requests;
}

/// Starts a server with `opts` on `index`, sends `requests` concurrently
/// and returns the answers after a clean shutdown.
std::vector<KnnResponse> ServeRequests(
    core::ShardedViTriIndex* index, const ServerOptions& opts,
    const std::vector<KnnRequest>& requests) {
  Server server(index, opts);
  EXPECT_TRUE(server.Start().ok());
  std::vector<KnnResponse> answers =
      SendConcurrently(opts.unix_socket_path, requests);
  EXPECT_TRUE(server.Shutdown().ok());
  return answers;
}

/// `got` answers every request exactly as `want` does: ids and
/// similarities bit for bit.
void ExpectSameAnswers(const std::vector<KnnResponse>& want,
                       const std::vector<KnnResponse>& got,
                       const std::vector<KnnRequest>& requests) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].head.status, WireStatus::kOk) << got[r].error;
    EXPECT_EQ(got[r].head.request_id, requests[r].request_id);
    ASSERT_EQ(got[r].results.size(), requests[r].queries.size())
        << "request " << r;
    ASSERT_EQ(got[r].results.size(), want[r].results.size());
    for (size_t q = 0; q < got[r].results.size(); ++q) {
      const std::vector<core::VideoMatch>& expected = want[r].results[q];
      const std::vector<core::VideoMatch>& actual = got[r].results[q];
      ASSERT_EQ(actual.size(), expected.size())
          << "request " << r << " query " << q;
      EXPECT_FALSE(actual.empty());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].video_id, expected[i].video_id);
        EXPECT_EQ(actual[i].similarity, expected[i].similarity);
      }
    }
  }
}

TEST(ServingLifecycleTest, SharedKnnExecutorAnswersLikeInlineWorkers) {
  // knn_threads = 4: every worker's (query, shard) tasks share the
  // server's one executor. Concurrent multi-query requests must get
  // exactly the answers of a server that runs them inline.
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(4));
  ASSERT_TRUE(index.ok());
  const std::vector<KnnRequest> requests = ThreeQueryRequests(w);

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  opts.num_workers = 4;
  opts.knn_threads = 1;
  const std::vector<KnnResponse> inline_answers =
      ServeRequests(&*index, opts, requests);
  opts.knn_threads = 4;
  ExpectSameAnswers(inline_answers, ServeRequests(&*index, opts, requests),
                    requests);
}

TEST(ServingLifecycleTest, DefaultOptionsAnswerLikeInline) {
  // The default executor (one thread per hardware thread) must not
  // change a single answer against inline execution.
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(4));
  ASSERT_TRUE(index.ok());
  const std::vector<KnnRequest> requests = ThreeQueryRequests(w);

  ServerOptions defaults;
  defaults.unix_socket_path = dir.socket_path();
  EXPECT_EQ(defaults.knn_threads, ThreadPool::HardwareThreads());
  ServerOptions inline_opts = defaults;
  inline_opts.knn_threads = 1;
  ExpectSameAnswers(ServeRequests(&*index, inline_opts, requests),
                    ServeRequests(&*index, defaults, requests), requests);
}

TEST(ServingLifecycleTest, StatsReportTheKnnExecutorSize) {
  // server.knn_threads is the size of the executor Start() built: 0 when
  // tasks run inline (knn_threads 0 or 1).
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(2));
  ASSERT_TRUE(index.ok());
  const size_t hardware = ThreadPool::HardwareThreads();
  const std::vector<std::pair<size_t, size_t>> cases = {
      {0, 0}, {1, 0}, {3, 3}, {hardware, hardware > 1 ? hardware : 0}};
  for (const auto& [configured, built] : cases) {
    ServerOptions opts;
    opts.unix_socket_path = dir.socket_path();
    opts.knn_threads = configured;
    Server server(&*index, opts);
    ASSERT_TRUE(server.Start().ok());
    auto stats = json::ParseJson(server.BuildStatsJson());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const json::JsonValue* srv = stats->Find("server");
    ASSERT_NE(srv, nullptr);
    const json::JsonValue* knn_threads = srv->Find("knn_threads");
    ASSERT_NE(knn_threads, nullptr) << "knn_threads " << configured;
    EXPECT_EQ(knn_threads->number, static_cast<double>(built))
        << "knn_threads " << configured;
    EXPECT_TRUE(server.Shutdown().ok());
  }
}

/// Deep equality of two parsed JSON values.
bool SameJson(const json::JsonValue& a, const json::JsonValue& b) {
  if (a.kind != b.kind || a.bool_value != b.bool_value ||
      a.number != b.number || a.string_value != b.string_value ||
      a.array.size() != b.array.size() ||
      a.object.size() != b.object.size()) {
    return false;
  }
  for (size_t i = 0; i < a.array.size(); ++i) {
    if (!SameJson(a.array[i], b.array[i])) return false;
  }
  for (const auto& [key, value] : a.object) {
    const json::JsonValue* other = b.Find(key);
    if (other == nullptr || !SameJson(value, *other)) return false;
  }
  return true;
}

/// Every IoSnapshot field of `want` appears in `got` with its value.
void ExpectCounters(const json::JsonValue& got,
                    const storage::IoSnapshot& want,
                    const std::string& label) {
  json::JsonWriter w;
  w.BeginObject();
  storage::WriteIoSnapshotFields(want, &w);
  w.EndObject();
  auto expected = json::ParseJson(w.str());
  ASSERT_TRUE(expected.ok());
  for (const auto& [key, value] : expected->object) {
    const json::JsonValue* field = got.Find(key);
    ASSERT_NE(field, nullptr) << label << " " << key;
    EXPECT_EQ(field->number, value.number) << label << " " << key;
  }
}

/// The "index" block of the server's stats document.
json::JsonValue IndexBlock(Server& server) {
  auto stats = json::ParseJson(server.BuildStatsJson());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  const json::JsonValue* srv = stats.ok() ? stats->Find("server") : nullptr;
  const json::JsonValue* index = srv ? srv->Find("index") : nullptr;
  EXPECT_NE(index, nullptr);
  return index ? *index : json::JsonValue{};
}

TEST(ServingLifecycleTest, StatsIndexBlockReadsEveryShardOfItsOwnIndex) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(4));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index->live_shards(), 4u);
  const auto query = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  {
    auto client = Client::ConnectUnix(dir.socket_path());
    ASSERT_TRUE(client.ok());
    auto resp = client->Knn(MakeKnn(query, frames, 1));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->head.status, WireStatus::kOk);
  }

  // The per-shard entries tile the index, and each shard's pool is that
  // shard's own counters: folded, resident, and one per pool shard.
  const json::JsonValue block = IndexBlock(server);
  const json::JsonValue* per_shard = block.Find("per_shard");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_EQ(per_shard->array.size(), 4u);
  double videos = 0.0;
  double vitris = 0.0;
  double fetches = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    const std::string label = "shard " + std::to_string(i);
    const json::JsonValue& entry = per_shard->array[i];
    const core::ViTriIndex* shard = index->shard(i);
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(entry.Find("videos")->number,
              static_cast<double>(shard->stored_videos()));
    videos += entry.Find("videos")->number;
    vitris += entry.Find("vitris")->number;
    const json::JsonValue* pool = entry.Find("pool");
    ASSERT_NE(pool, nullptr) << label;
    ExpectCounters(*pool, shard->io_stats().Snapshot(), label);
    fetches += pool->Find("logical_reads")->number;
    EXPECT_EQ(pool->Find("resident")->number,
              static_cast<double>(shard->pool_resident()));
    const std::vector<storage::IoSnapshot> pool_shards =
        shard->shard_io_stats();
    const json::JsonValue* pool_shards_json = pool->Find("shards");
    ASSERT_NE(pool_shards_json, nullptr) << label;
    ASSERT_EQ(pool_shards_json->array.size(), pool_shards.size()) << label;
    for (size_t j = 0; j < pool_shards.size(); ++j) {
      ExpectCounters(pool_shards_json->array[j], pool_shards[j],
                     label + " pool shard " + std::to_string(j));
    }
  }
  EXPECT_EQ(videos, block.Find("videos")->number);
  EXPECT_EQ(videos, static_cast<double>(index->num_videos()));
  EXPECT_EQ(vitris, block.Find("vitris")->number);
  EXPECT_GT(fetches, 0.0);

  // A second index in the same process, built, queried and grown, owns
  // its own pools: the first server's block does not move.
  World other_world = MakeWorld(0.004, 0.15, 7);
  auto other =
      core::ShardedViTriIndex::Build(other_world.set, DefaultOptions(4));
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other->Knn(query, frames, 3, core::KnnMethod::kComposed).ok());
  auto other_query = query;
  const auto new_id =
      static_cast<uint32_t>(other_world.set.frame_counts.size());
  for (core::ViTri& v : other_query) v.video_id = new_id;
  ASSERT_TRUE(other->Insert(new_id, frames, other_query).ok());
  EXPECT_TRUE(SameJson(block, IndexBlock(server)));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServingLifecycleTest, ShutdownCheckpointsADurableShardedIndex) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(2));
  ASSERT_TRUE(index.ok());
  // Group commit with a window wider than the test's inserts: without
  // the shutdown checkpoint none of them would be durable.
  core::DurabilityOptions durability;
  durability.wal.sync_mode = storage::WalSyncMode::kGrouped;
  durability.wal.group_commits = 1000;
  durability.wal.group_bytes = 1 << 30;
  ASSERT_TRUE(index->EnableDurability(dir.index_dir(), durability).ok());
  const uint64_t generation = index->generation();
  const size_t videos = index->num_videos();

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  ASSERT_TRUE(opts.checkpoint_on_shutdown);
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  const auto summary = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  const auto first_new = static_cast<uint32_t>(w.set.frame_counts.size());
  {
    auto client = Client::ConnectUnix(dir.socket_path());
    ASSERT_TRUE(client.ok());
    for (uint32_t i = 0; i < 4; ++i) {  // Two inserts per shard.
      auto ack = client->Insert(MakeInsert(summary, frames, first_new + i, i));
      ASSERT_TRUE(ack.ok());
      EXPECT_EQ(ack->head.status, WireStatus::kOk) << ack->error;
    }
  }
  EXPECT_EQ(index->wal_durable_commits(), 0u);
  EXPECT_TRUE(server.Shutdown().ok());
  EXPECT_GT(index->generation(), generation);

  auto reopened = core::ShardedViTriIndex::Open(dir.index_dir(), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_shards(), 2u);
  EXPECT_EQ(reopened->num_videos(), videos + 4);
  auto matches = reopened->Knn(summary, frames, 10, core::KnnMethod::kComposed);
  ASSERT_TRUE(matches.ok());
  std::set<uint32_t> ids;
  for (const core::VideoMatch& m : *matches) ids.insert(m.video_id);
  for (uint32_t i = 0; i < 4; ++i) EXPECT_TRUE(ids.count(first_new + i)) << i;
}

TEST(ServingLifecycleTest, InsertOfAForeignViTriIsAnInvalidRequest) {
  ScopedDir dir;
  ASSERT_TRUE(dir.ok());
  World w = MakeWorld();
  auto index = core::ShardedViTriIndex::Build(w.set, DefaultOptions(2));
  ASSERT_TRUE(index.ok());
  const size_t vitris = index->num_vitris();

  ServerOptions opts;
  opts.unix_socket_path = dir.socket_path();
  Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(dir.socket_path());
  ASSERT_TRUE(client.ok());
  const auto summary = QuerySummary(w.db.videos[0]);
  const auto frames = static_cast<uint32_t>(w.db.videos[0].num_frames());
  const auto fresh = static_cast<uint32_t>(w.set.frame_counts.size());
  // A ViTri labelled with another video's id, and one whose radius lies
  // beyond epsilon/2, each sent to both shards.
  for (const uint32_t id : {fresh, fresh + 1}) {
    InsertRequest foreign = MakeInsert(summary, frames, id, 1);
    foreign.vitris.back().video_id = id - 1;
    InsertRequest wide = MakeInsert(summary, frames, id, 2);
    wide.vitris.back().radius = 0.9;
    for (const InsertRequest& req : {foreign, wide}) {
      auto resp = client->Insert(req);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->head.status, WireStatus::kInvalidRequest);
    }
  }
  EXPECT_EQ(index->num_vitris(), vitris);
  EXPECT_TRUE(index->ValidateInvariants().ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

}  // namespace
}  // namespace vitri::serving
