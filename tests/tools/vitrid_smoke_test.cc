// End-to-end contract of the `vitrid` binary's client plane, following
// the cli_stats_test pattern: a real Server runs in this test process
// (so its stats document serializes *this* process's metrics registry,
// which the test pre-populates with WAL and query activity), and the
// real vitrid binary (path baked in via VITRID_PATH) talks to it over a
// unix socket. Asserts the stats JSON parses and carries the documented
// shape: server block, wal.* counters, query latency histograms. The
// last tests drive `vitrid serve` itself, including a durable sharded
// index that a second `serve --dir` and `vitri recover` (VITRI_CLI_PATH)
// read back.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "serving/client.h"
#include "serving/server.h"
#include "video/synthesizer.h"

namespace vitri {
namespace {

std::string RunAndCapture(const std::string& command, int* exit_code) {
  // The server threads in this process never touch the environment, so
  // popen's mt-unsafety is moot.
  FILE* pipe = popen(command.c_str(), "r");  // NOLINT(concurrency-mt-unsafe)
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  *exit_code = pclose(pipe);
  return out;
}

TEST(VitridSmokeTest, HelpDocumentsEverySubcommand) {
  int rc = -1;
  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " --help", &rc);
  EXPECT_EQ(rc, 0) << out;
  for (const char* token : {"serve", "ping", "stats", "shutdown",
                            "--socket", "Overloaded", "deadline"}) {
    EXPECT_NE(out.find(token), std::string::npos) << token << "\n" << out;
  }
}

TEST(VitridSmokeTest, ServeRejectsOutOfRangeCountFlags) {
  // A negative count would wrap to a huge size_t and size the server's
  // threads or queue with it; serve must refuse it as a usage error
  // before it builds or starts anything.
  char tmpl[] = "/tmp/vitrid_badflags_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string socket = dir + "/vitrid.sock";
  for (const char* flags :
       {"--knn-threads -1", "--workers -1", "--queue -1",
        "--knn-threads 1025", "--trace-every -1"}) {
    int rc = -1;
    const std::string out = RunAndCapture(
        std::string(VITRID_PATH) + " serve --synthetic --socket " + socket +
            " " + flags + " 2>&1",
        &rc);
    EXPECT_NE(rc, 0) << flags << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << flags << "\n" << out;
    const std::string flag(flags, std::string(flags).find(' '));
    EXPECT_NE(out.find(flag + " must be in [0, 1024]"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("listening"), std::string::npos) << out;
    EXPECT_NE(access(socket.c_str(), F_OK), 0) << flags;
  }
  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

TEST(VitridSmokeTest, StatsSubcommandReportsWalAndQueryMetrics) {
  // Build a small durable index and run one insert + one query so the
  // process registry holds wal.* counters and query histograms before
  // the stats document is rendered.
  char tmpl[] = "/tmp/vitrid_smoke_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string db_dir = dir + "/db";
  const std::string socket = dir + "/vitrid.sock";

  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  core::ViTriBuilderOptions bo;
  bo.epsilon = 0.15;
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(db);
  ASSERT_TRUE(set.ok());
  core::ShardedIndexOptions sio;
  sio.num_shards = 2;
  sio.shard_options.dimension = db.dimension;
  sio.shard_options.epsilon = 0.15;
  auto index = core::ShardedViTriIndex::Build(*set, sio);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->EnableDurability(db_dir).ok());

  auto query = builder.Build(db.videos[0]);
  ASSERT_TRUE(query.ok());
  const auto frames = static_cast<uint32_t>(db.videos[0].num_frames());
  ASSERT_TRUE(index->Knn(*query, frames, 3, core::KnnMethod::kComposed).ok());
  const auto next_id = static_cast<uint32_t>(set->frame_counts.size());
  for (core::ViTri& v : *query) v.video_id = next_id;
  ASSERT_TRUE(index->Insert(next_id, frames, *query).ok());

  serving::ServerOptions opts;
  opts.unix_socket_path = socket;
  opts.checkpoint_on_shutdown = false;
  serving::Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  int rc = -1;
  const std::string pong =
      RunAndCapture(std::string(VITRID_PATH) + " ping --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << pong;
  EXPECT_NE(pong.find("pong"), std::string::npos) << pong;

  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " stats --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
  ASSERT_TRUE(parsed->is_object());

  // Server block: admission/drain counters plus the index's shape.
  const json::JsonValue* srv = parsed->Find("server");
  ASSERT_NE(srv, nullptr) << out;
  ASSERT_TRUE(srv->is_object());
  for (const char* key :
       {"state", "queue_depth", "queue_capacity", "connections", "admitted",
        "rejected_overloaded", "deadline_exceeded"}) {
    EXPECT_NE(srv->Find(key), nullptr) << key << "\n" << out;
  }
  const json::JsonValue* idx = srv->Find("index");
  ASSERT_NE(idx, nullptr) << out;
  const json::JsonValue* durable = idx->Find("durable");
  ASSERT_NE(durable, nullptr);
  EXPECT_EQ(durable->kind, json::JsonValue::Kind::kBool);
  EXPECT_TRUE(durable->bool_value);

  // Metrics registry: the durable insert left wal.* counters behind.
  const json::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr) << out;
  const json::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name : {"wal.appends", "wal.commits", "wal.append_bytes"}) {
    const json::JsonValue* c = counters->Find(name);
    ASSERT_NE(c, nullptr) << name << "\n" << out;
    EXPECT_GT(c->number, 0.0) << name;
  }

  // The index block reads each shard's pool: every pool shard of index
  // shard 0 reports its counters, and the query bumped shard 0's fetch
  // count (whatever the shard count, shard 0 always exists and holds
  // videos on this corpus).
  const json::JsonValue* per_shard = idx->Find("per_shard");
  ASSERT_NE(per_shard, nullptr) << out;
  ASSERT_EQ(per_shard->array.size(), 2u) << out;
  const json::JsonValue* pool = per_shard->array[0].Find("pool");
  ASSERT_NE(pool, nullptr) << out;
  const json::JsonValue* pool_shards = pool->Find("shards");
  ASSERT_NE(pool_shards, nullptr) << out;
  ASSERT_FALSE(pool_shards->array.empty()) << out;
  double shard_fetch_sum = 0.0;
  for (const json::JsonValue& pool_shard : pool_shards->array) {
    for (const char* name : {"logical_reads", "cache_hits", "evictions",
                             "prefetch_issued", "prefetch_hits"}) {
      EXPECT_NE(pool_shard.Find(name), nullptr) << name << "\n" << out;
    }
    shard_fetch_sum += pool_shard.Find("logical_reads")->number;
  }
  const json::JsonValue* fetches = pool->Find("logical_reads");
  ASSERT_NE(fetches, nullptr) << out;
  EXPECT_GT(fetches->number, 0.0) << out;
  // The folded count is the sum of the pool shards' counts.
  EXPECT_EQ(fetches->number, shard_fetch_sum) << out;

  // ... and the query ran through the histograms.
  const json::JsonValue* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::JsonValue* latency = histograms->Find("query.knn.latency_us");
  ASSERT_NE(latency, nullptr) << out;
  for (const char* field : {"count", "p50", "p95", "p99"}) {
    EXPECT_NE(latency->Find(field), nullptr) << field;
  }

  // In-band shutdown through the binary signals the owner loop.
  const std::string ack = RunAndCapture(
      std::string(VITRID_PATH) + " shutdown --socket " + socket, &rc);
  EXPECT_EQ(rc, 0) << ack;
  EXPECT_NE(ack.find("shutdown requested"), std::string::npos) << ack;
  EXPECT_TRUE(server.WaitForShutdownRequest(10'000));
  EXPECT_TRUE(server.Shutdown().ok());

  // Best-effort cleanup of the temp tree (db dir contents + socket).
  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

TEST(VitridSmokeTest, StatsReportsShardedIndexBlock) {
  // An in-process Server over a 4-shard scatter-gather index: the stats
  // document must carry the sharded index block (shards, live_shards,
  // assignment, durable=false) and its per_shard entries, which tile
  // the corpus (DESIGN.md §17).
  char tmpl[] = "/tmp/vitrid_sharded_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string socket = dir + "/vitrid.sock";

  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  core::ViTriBuilderOptions bo;
  bo.epsilon = 0.15;
  core::ViTriBuilder builder(bo);
  auto set = builder.BuildDatabase(db);
  ASSERT_TRUE(set.ok());
  core::ShardedIndexOptions sio;
  sio.num_shards = 4;
  sio.shard_options.dimension = db.dimension;
  sio.shard_options.epsilon = 0.15;
  auto index = core::ShardedViTriIndex::Build(*set, sio);
  ASSERT_TRUE(index.ok());

  serving::ServerOptions opts;
  opts.unix_socket_path = socket;
  serving::Server server(&*index, opts);
  ASSERT_TRUE(server.Start().ok());

  int rc = -1;
  const std::string pong =
      RunAndCapture(std::string(VITRID_PATH) + " ping --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << pong;
  EXPECT_NE(pong.find("pong"), std::string::npos) << pong;

  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " stats --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;

  const json::JsonValue* srv = parsed->Find("server");
  ASSERT_NE(srv, nullptr) << out;
  const json::JsonValue* idx = srv->Find("index");
  ASSERT_NE(idx, nullptr) << out;
  const json::JsonValue* shards = idx->Find("shards");
  ASSERT_NE(shards, nullptr) << out;
  EXPECT_EQ(shards->number, 4.0) << out;
  const json::JsonValue* live = idx->Find("live_shards");
  ASSERT_NE(live, nullptr) << out;
  EXPECT_GE(live->number, 1.0) << out;
  EXPECT_LE(live->number, 4.0) << out;
  const json::JsonValue* assignment = idx->Find("assignment");
  ASSERT_NE(assignment, nullptr) << out;
  ASSERT_TRUE(assignment->is_string()) << out;
  EXPECT_EQ(assignment->string_value, "hash") << out;
  const json::JsonValue* durable = idx->Find("durable");
  ASSERT_NE(durable, nullptr) << out;
  EXPECT_FALSE(durable->bool_value) << out;
  const json::JsonValue* videos = idx->Find("videos");
  ASSERT_NE(videos, nullptr) << out;
  EXPECT_EQ(videos->number, static_cast<double>(index->num_videos())) << out;

  const json::JsonValue* per_shard = idx->Find("per_shard");
  ASSERT_NE(per_shard, nullptr) << out;
  ASSERT_EQ(per_shard->array.size(), 4u) << out;
  double shard_videos = 0.0;
  for (const json::JsonValue& shard : per_shard->array) {
    for (const char* key : {"videos", "vitris", "tree_height", "pool"}) {
      ASSERT_NE(shard.Find(key), nullptr) << key << "\n" << out;
    }
    shard_videos += shard.Find("videos")->number;
  }
  // The per-shard entries tile the corpus exactly.
  EXPECT_EQ(shard_videos, static_cast<double>(index->num_videos())) << out;

  const std::string ack = RunAndCapture(
      std::string(VITRID_PATH) + " shutdown --socket " + socket, &rc);
  EXPECT_EQ(rc, 0) << ack;
  EXPECT_TRUE(server.WaitForShutdownRequest(10'000));
  EXPECT_TRUE(server.Shutdown().ok());

  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

/// `vitrid serve <flags> --socket <socket>`, started in the background;
/// returns once the listening socket exists (the synthetic build takes a
/// moment), or null after 30 s (the process is left alone: pclose would
/// wait for it).
FILE* StartServe(const std::string& flags, const std::string& socket) {
  unlink(socket.c_str());
  FILE* serve = popen((std::string(VITRID_PATH) +  // NOLINT
                       " serve " + flags + " --socket " + socket + " 2>&1")
                          .c_str(),
                      "r");
  if (serve == nullptr) return nullptr;
  for (int i = 0; i < 300; ++i) {
    if (access(socket.c_str(), F_OK) == 0) return serve;
    usleep(100 * 1000);
  }
  return nullptr;
}

/// Asks the server on `socket` to stop and returns the serve process's
/// transcript once it exits; `rc` is its exit status.
std::string StopServe(FILE* serve, const std::string& socket, int* rc) {
  int ack_rc = -1;
  const std::string ack = RunAndCapture(
      std::string(VITRID_PATH) + " shutdown --socket " + socket, &ack_rc);
  EXPECT_EQ(ack_rc, 0) << ack;
  std::string transcript;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), serve)) > 0) transcript.append(buf, n);
  *rc = pclose(serve);
  return transcript;
}

/// The server block's "index" object from `vitrid stats`.
json::JsonValue IndexStats(const std::string& socket) {
  int rc = -1;
  const std::string out =
      RunAndCapture(std::string(VITRID_PATH) + " stats --socket " + socket,
                    &rc);
  EXPECT_EQ(rc, 0) << out;
  auto parsed = json::ParseJson(out);
  EXPECT_TRUE(parsed.ok()) << out;
  if (!parsed.ok()) return {};
  const json::JsonValue* srv = parsed->Find("server");
  const json::JsonValue* idx = srv == nullptr ? nullptr : srv->Find("index");
  EXPECT_NE(idx, nullptr) << out;
  return idx == nullptr ? json::JsonValue{} : *idx;
}

double NumberOf(const json::JsonValue& object, const char* key) {
  const json::JsonValue* v = object.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v == nullptr ? -1.0 : v->number;
}

TEST(VitridSmokeTest, ServeIndexShardsFlagRoundTrip) {
  // The full binary surface: `vitrid serve --synthetic --index-shards 4`
  // must come up, report a 4-shard index over the wire, and drain on an
  // in-band shutdown.
  char tmpl[] = "/tmp/vitrid_shardserve_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string socket = dir + "/vitrid.sock";

  FILE* serve = StartServe("--synthetic --index-shards 4", socket);
  ASSERT_NE(serve, nullptr) << "server socket never appeared";
  EXPECT_EQ(NumberOf(IndexStats(socket), "shards"), 4.0);

  // The serve process drains and exits 0; its transcript carries the
  // announce line with the shard count.
  int serve_rc = -1;
  const std::string transcript = StopServe(serve, socket, &serve_rc);
  EXPECT_EQ(serve_rc, 0) << transcript;
  EXPECT_NE(transcript.find("listening on"), std::string::npos) << transcript;
  EXPECT_NE(transcript.find("4 shards"), std::string::npos) << transcript;

  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

TEST(VitridSmokeTest, DurableShardedServeRecoversAcrossRestarts) {
  // serve --synthetic --index-shards 4 --dir D, one client insert, and a
  // shutdown (which checkpoints every shard); then serve --dir D alone
  // and vitri recover --dir D must both see 4 shards and the insert.
  char tmpl[] = "/tmp/vitrid_durable_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string socket = dir + "/vitrid.sock";
  const std::string db_dir = dir + "/db";

  // The same synthetic world `serve --synthetic` indexes (seed 2005,
  // scale 0.004, epsilon 0.15), for the insert's summary and the count.
  video::SynthesizerOptions so;
  so.seed = 2005;
  video::VideoSynthesizer synth(so);
  const video::VideoDatabase db = synth.GenerateDatabase(0.004);
  core::ViTriBuilder builder;
  auto set = builder.BuildDatabase(db);
  ASSERT_TRUE(set.ok());
  const size_t videos = static_cast<size_t>(
      std::count_if(set->frame_counts.begin(), set->frame_counts.end(),
                    [](uint32_t frames) { return frames > 0; }));
  const auto new_id = static_cast<uint32_t>(set->frame_counts.size());

  FILE* serve =
      StartServe("--synthetic --index-shards 4 --dir " + db_dir, socket);
  ASSERT_NE(serve, nullptr) << "server socket never appeared";
  {
    const json::JsonValue idx = IndexStats(socket);
    EXPECT_EQ(NumberOf(idx, "videos"), static_cast<double>(videos));
    const json::JsonValue* durable = idx.Find("durable");
    ASSERT_NE(durable, nullptr);
    EXPECT_TRUE(durable->bool_value);
  }
  {
    auto client = serving::Client::ConnectUnix(socket);
    ASSERT_TRUE(client.ok());
    serving::InsertRequest insert;
    insert.request_id = 1;
    insert.video_id = new_id;
    insert.num_frames = static_cast<uint32_t>(db.videos[0].num_frames());
    insert.dimension = static_cast<uint32_t>(db.dimension);
    for (core::ViTri v : set->vitris) {
      if (v.video_id != 0) continue;
      v.video_id = new_id;
      insert.vitris.push_back(v);
    }
    auto ack = client->Insert(insert);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->head.status, serving::WireStatus::kOk) << ack->error;
  }
  int serve_rc = -1;
  std::string transcript = StopServe(serve, socket, &serve_rc);
  EXPECT_EQ(serve_rc, 0) << transcript;

  // --dir alone: the manifest decides the shard count.
  serve = StartServe("--dir " + db_dir, socket);
  ASSERT_NE(serve, nullptr) << "recovered server socket never appeared";
  {
    const json::JsonValue idx = IndexStats(socket);
    EXPECT_EQ(NumberOf(idx, "shards"), 4.0);
    EXPECT_EQ(NumberOf(idx, "videos"), static_cast<double>(videos + 1));
  }
  transcript = StopServe(serve, socket, &serve_rc);
  EXPECT_EQ(serve_rc, 0) << transcript;
  EXPECT_NE(transcript.find(std::to_string(videos + 1) + " videos, 4 shards"),
            std::string::npos)
      << transcript;

  int rc = -1;
  const std::string recovered = RunAndCapture(
      std::string(VITRI_CLI_PATH) + " recover --dir " + db_dir + " --json",
      &rc);
  EXPECT_EQ(rc, 0) << recovered;
  auto parsed = json::ParseJson(recovered);
  ASSERT_TRUE(parsed.ok()) << recovered;
  EXPECT_EQ(NumberOf(*parsed, "shards"), 4.0);
  EXPECT_EQ(NumberOf(*parsed, "snapshot_videos"),
            static_cast<double>(videos + 1));
  EXPECT_EQ(NumberOf(*parsed, "recovered_videos"),
            static_cast<double>(videos + 1));

  [[maybe_unused]] int ignored =
      std::system(("rm -rf " + dir).c_str());  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace
}  // namespace vitri
