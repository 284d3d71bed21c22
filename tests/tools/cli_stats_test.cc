// End-to-end contract of `vitri stats --json`: the real binary's output
// must parse with json::ParseJson and carry the documented shape
// (snapshot block, the exercise index's stats block, metrics registry
// with counters/gauges/histograms). The binary path is baked in by
// CMake (VITRI_CLI_PATH).

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace vitri {
namespace {

std::string RunAndCapture(const std::string& command) {
  // Single-threaded test binary: popen's mt-unsafety is moot here.
  FILE* pipe = popen(command.c_str(), "r");  // NOLINT(concurrency-mt-unsafe)
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int rc = pclose(pipe);
  EXPECT_EQ(rc, 0) << command << "\n" << out;
  return out;
}

/// Entry 0 of the index block's `per_shard` array. Index shard 0
/// always exists and, on the exercise corpus, always holds videos.
const json::JsonValue* FirstShard(const json::JsonValue& index) {
  const json::JsonValue* per_shard = index.Find("per_shard");
  if (per_shard == nullptr || !per_shard->is_array() ||
      per_shard->array.empty()) {
    return nullptr;
  }
  return &per_shard->array[0];
}

/// Index shard 0's pool fetch count, or -1 when the block lacks it.
double FirstShardFetches(const json::JsonValue& index) {
  const json::JsonValue* shard = FirstShard(index);
  if (shard == nullptr) return -1.0;
  const json::JsonValue* pool = shard->Find("pool");
  if (pool == nullptr) return -1.0;
  const json::JsonValue* fetches = pool->Find("logical_reads");
  return fetches == nullptr ? -1.0 : fetches->number;
}

TEST(CliStatsTest, JsonOutputRoundTripsThroughTheParser) {
  const std::string out =
      RunAndCapture(std::string(VITRI_CLI_PATH) + " stats --exercise --json");
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
  ASSERT_TRUE(parsed->is_object());

  // No snapshot was passed, so the snapshot block is null.
  const json::JsonValue* snapshot = parsed->Find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->kind, json::JsonValue::Kind::kNull);

  const json::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  const json::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // The exercise workload ran queries through the pool and the index,
  // so the index block's pool counters and the core registry counters
  // exist and counted.
  const json::JsonValue* index = parsed->Find("index");
  ASSERT_NE(index, nullptr) << out;
  ASSERT_TRUE(index->is_object()) << out;
  EXPECT_GT(FirstShardFetches(*index), 0.0) << out;
  for (const char* name : {"btree.range_scans", "query.knn.count"}) {
    const json::JsonValue* c = counters->Find(name);
    ASSERT_NE(c, nullptr) << name << "\n" << out;
    EXPECT_TRUE(c->is_number()) << name;
    EXPECT_GT(c->number, 0.0) << name;
  }
  const json::JsonValue* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::JsonValue* latency = histograms->Find("query.knn.latency_us");
  ASSERT_NE(latency, nullptr) << out;
  const json::JsonValue* count = latency->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_GT(count->number, 0.0);
  for (const char* field : {"sum", "mean", "min", "max", "p50", "p95",
                            "p99"}) {
    EXPECT_NE(latency->Find(field), nullptr) << field;
  }
}

TEST(CliStatsTest, TextOutputListsTheRegistry) {
  const std::string out =
      RunAndCapture(std::string(VITRI_CLI_PATH) + " stats --exercise");
  EXPECT_NE(out.find("query.knn.latency_us"), std::string::npos) << out;
  // The index block is one "index: <json>" line, the same document the
  // JSON output nests under "index".
  const size_t begin = out.find("index: {");
  ASSERT_NE(begin, std::string::npos) << out;
  const size_t json_begin = begin + std::string("index: ").size();
  const size_t end = out.find('\n', json_begin);
  auto index = json::ParseJson(out.substr(json_begin, end - json_begin));
  ASSERT_TRUE(index.ok()) << index.status().ToString() << "\n" << out;
  EXPECT_GT(FirstShardFetches(*index), 0.0) << out;
}

TEST(CliStatsTest, ExerciseReportsShardGauges) {
  // The exercise workload runs its corpus through a sharded index
  // (shard count via VITRI_INDEX_SHARDS, >= 1), so the index block
  // carries one live per_shard entry per shard (DESIGN.md §17) whose
  // contents tile the corpus, each with its pool's counters.
  const std::string out =
      RunAndCapture(std::string(VITRI_CLI_PATH) + " stats --exercise --json");
  auto parsed = json::ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
  const json::JsonValue* index = parsed->Find("index");
  ASSERT_NE(index, nullptr) << out;
  const json::JsonValue* first = FirstShard(*index);
  ASSERT_NE(first, nullptr) << out;
  for (const char* name : {"videos", "vitris", "tree_height"}) {
    const json::JsonValue* g = first->Find(name);
    ASSERT_NE(g, nullptr) << name << "\n" << out;
    EXPECT_TRUE(g->is_number()) << name;
    EXPECT_GT(g->number, 0.0) << name;
  }
  const json::JsonValue* shards = index->Find("shards");
  ASSERT_NE(shards, nullptr) << out;
  const json::JsonValue* per_shard = index->Find("per_shard");
  ASSERT_NE(per_shard, nullptr) << out;
  ASSERT_EQ(per_shard->array.size(), static_cast<size_t>(shards->number));
  double videos = 0.0;
  double vitris = 0.0;
  for (const json::JsonValue& shard : per_shard->array) {
    videos += shard.Find("videos")->number;
    vitris += shard.Find("vitris")->number;
    const json::JsonValue* pool = shard.Find("pool");
    ASSERT_NE(pool, nullptr) << out;
    EXPECT_NE(pool->Find("resident"), nullptr) << out;
    EXPECT_NE(pool->Find("shards"), nullptr) << out;
  }
  EXPECT_EQ(videos, index->Find("videos")->number) << out;
  EXPECT_EQ(vitris, index->Find("vitris")->number) << out;
}

/// Keeps only the result lines ("  video N  similarity S") of a `vitri
/// query` transcript, so shard-dependent preamble and cost lines don't
/// enter the comparison.
std::string ResultLines(const std::string& out) {
  std::string kept;
  size_t pos = 0;
  while (pos < out.size()) {
    size_t end = out.find('\n', pos);
    if (end == std::string::npos) end = out.size();
    const std::string line = out.substr(pos, end - pos);
    if (line.rfind("  video ", 0) == 0) kept += line + "\n";
    pos = end + 1;
  }
  return kept;
}

TEST(CliStatsTest, ShardedQueryRoundTripMatchesSingleShard) {
  // generate -> summarize --index-shards -> query --index-shards: the
  // whole CLI surface of the sharded path, pinned against the
  // single-shard answer (merge determinism, DESIGN.md §17).
  const std::string dir = ::testing::TempDir();
  const std::string db = dir + "/cli_sharded.vvdb";
  const std::string snap = dir + "/cli_sharded.vsnp";
  RunAndCapture(std::string(VITRI_CLI_PATH) + " generate --out " + db +
                " --scale 0.004");

  const std::string summarize =
      RunAndCapture(std::string(VITRI_CLI_PATH) + " summarize --db " + db +
                    " --out " + snap + " --index-shards 4");
  EXPECT_NE(summarize.find("index shards: 4 (hash assignment)"),
            std::string::npos)
      << summarize;
  EXPECT_NE(summarize.find("shard 3:"), std::string::npos) << summarize;

  const std::string query_base = std::string(VITRI_CLI_PATH) +
                                 " query --db " + db + " --summary " +
                                 snap + " --video 0 --k 10";
  const std::string sharded =
      RunAndCapture(query_base + " --index-shards 4");
  // Pin the control run to one shard explicitly so the comparison holds
  // even under the VITRI_INDEX_SHARDS CI leg (the flag beats the env).
  const std::string single = RunAndCapture(query_base + " --index-shards 1");
  EXPECT_NE(sharded.find("index shards: 4 (4 live, hash assignment)"),
            std::string::npos)
      << sharded;
  EXPECT_EQ(single.find("index shards:"), std::string::npos) << single;
  const std::string sharded_results = ResultLines(sharded);
  EXPECT_FALSE(sharded_results.empty()) << sharded;
  EXPECT_EQ(sharded_results, ResultLines(single));
}

}  // namespace
}  // namespace vitri
