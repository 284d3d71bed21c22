// vitri_perfbench — the repository benchmark program. One process per
// run: it generates a workload from --seed (generation is never timed),
// drives the real library and an in-process vitrid Server/Client,
// checks every answer against an independent brute-force reference,
// and prints one JSON result line last. See perfbench/README.md.
//
//   vitri_perfbench --workload read_large|ingest_sharded
//                   --seed N --seconds S --trace 0|1
//                   [--workdir DIR] [--tiny] [--perturb-reference]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "core/sharded_index.h"
#include "core/vitri_builder.h"
#include "harness/bench_common.h"
#include "layers.h"
#include "load.h"
#include "serving/client.h"
#include "serving/server.h"
#include "storage/wal.h"
#include "video/synthesizer.h"

namespace perfbench {
namespace {

using vitri::Status;
using vitri::core::BatchQuery;
using vitri::core::ShardedIndexBuilder;
using vitri::core::ShardedIndexOptions;
using vitri::core::ShardedViTriIndex;
using vitri::core::ViTri;
using vitri::core::ViTriIndex;
using vitri::core::ViTriSet;
using vitri::serving::Server;
using vitri::video::VideoSequence;

constexpr size_t kK = 10;
constexpr double kEpsilon = vitri::bench::kDefaultEpsilon;
/// Set-up repeats at least kMinSetupReps times and then until about a
/// second has been spent (at most kMaxSetupReps); the median counts, so
/// fast set-ups get as steady a figure as slow ones.
constexpr size_t kMinSetupReps = 5;
constexpr size_t kMaxSetupReps = 25;
/// Server shape shared by every workload: two workers, two closed-loop
/// connections, and enough open-loop senders that the generator itself
/// is never the bottleneck at the fixed rates below.
constexpr size_t kServerWorkers = 2;
constexpr size_t kClosedConnections = 2;
constexpr size_t kOpenSenders = 8;
/// Fixed absolute open-loop rate of read_large, set on the 4-vCPU x86 VM
/// the benchmark was defined on: about half its closed-loop KNN
/// throughput.
constexpr double kReadLargeRate = 50.0;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool perturb = false;
  std::string workdir = ".bench_build/perfbench-run";
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Resident size when set-up began (see MarkSetupMemory), MiB.
  double rss_base_mb = 0.0;
  Report e2e;
  Report layer;
  SpanRecorder* spans = nullptr;

  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    correct = false;
  }
  void Count(const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
};

vitri::metrics::Registry& Registry() {
  return vitri::metrics::Registry::Instance();
}
double HistPercentile(const char* name, double p) {
  return Registry().GetHistogram(name)->TakeSnapshot().Percentile(p);
}
double CounterValue(const char* name) {
  return static_cast<double>(Registry().GetCounter(name)->Value());
}

/// Bench-side corpus generator: four synthesizer lanes, lane l owning
/// every video id with id % 4 == l, run in parallel on `pool`. The lane
/// count is fixed, so the corpus depends only on the seed, never on the
/// machine.
class ClipStream {
 public:
  ClipStream(uint64_t seed, int dimension, double clip_seconds,
             vitri::ThreadPool* pool)
      : clip_seconds_(clip_seconds), pool_(pool) {
    for (uint64_t lane = 0; lane < kLanes; ++lane) {
      vitri::video::SynthesizerOptions so;
      so.dimension = dimension;
      so.seed = MixSeed(seed, 100 + lane);
      lanes_.emplace_back(so);
    }
  }

  std::vector<VideoSequence> Generate(uint32_t first, size_t count) {
    std::vector<VideoSequence> clips(count);
    pool_->ParallelFor(kLanes, [&](size_t lane) {
      for (size_t i = 0; i < count; ++i) {
        const uint32_t id = first + static_cast<uint32_t>(i);
        if (id % kLanes == lane) {
          clips[i] = lanes_[lane].GenerateClip(id, clip_seconds_);
        }
      }
    });
    return clips;
  }

 private:
  static constexpr size_t kLanes = 4;
  double clip_seconds_;
  vitri::ThreadPool* pool_;
  std::vector<vitri::video::VideoSynthesizer> lanes_;
};

/// Summarizes clips across the pool (the timed, program-side step).
bool SummarizeAll(const vitri::core::ViTriBuilder& builder,
                  vitri::ThreadPool* pool,
                  const std::vector<VideoSequence>& clips,
                  std::vector<std::vector<ViTri>>* out) {
  out->assign(clips.size(), {});
  std::vector<char> ok(clips.size(), 0);
  pool->ParallelFor(clips.size(), [&](size_t i) {
    auto vitris = builder.Build(clips[i]);
    if (vitris.ok() && !vitris->empty()) {
      (*out)[i] = std::move(*vitris);
      ok[i] = 1;
    }
  });
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

/// `count` distinct corpus ids in [0, n), ascending.
std::vector<uint32_t> PickSources(uint64_t seed, size_t n, size_t count) {
  vitri::Rng rng(MixSeed(seed, 7));
  std::set<uint32_t> picked;
  while (picked.size() < std::min(count, n)) {
    picked.insert(static_cast<uint32_t>(rng.UniformU64(n)));
  }
  return {picked.begin(), picked.end()};
}

vitri::serving::ServerOptions ServeOptions(const std::string& socket) {
  vitri::serving::ServerOptions so;
  so.unix_socket_path = socket;
  so.num_workers = kServerWorkers;
  so.queue_capacity = 256;
  so.checkpoint_on_shutdown = false;
  return so;
}

ShardedIndexOptions ShardedOptions(size_t shards) {
  ShardedIndexOptions opts;
  opts.num_shards = shards;
  opts.assignment = vitri::core::ShardAssignment::kHash;
  opts.local_reference_points = true;
  opts.shard_options.dimension = 16;
  opts.shard_options.epsilon = kEpsilon;
  return opts;
}

void AddFrames(ViTriSet* set, uint32_t id, uint32_t frames,
               const std::vector<ViTri>& vitris) {
  if (set->frame_counts.size() <= id) set->frame_counts.resize(id + 1, 0);
  set->frame_counts[id] = frames;
  set->vitris.insert(set->vitris.end(), vitris.begin(), vitris.end());
}

/// The reference lists of `reference`, each perturbed when the run is
/// to prove that the correctness check fires.
std::vector<std::vector<vitri::core::VideoMatch>> References(
    ReferenceTopK* reference, const Config& cfg) {
  auto refs = reference->Take();
  if (cfg.perturb) {
    for (auto& r : refs) r = Perturbed(std::move(r));
  }
  return refs;
}

/// Held-out near-duplicates of `num_queries` random sources among the
/// first `n` clips of the seed's 16-dim corpus stream. The stream is
/// generated once more for them, a chunk at a time, so no clip is held
/// and every query is known before the corpus is.
std::vector<BatchQuery> NearDuplicateQueries(
    uint64_t seed, size_t n, size_t num_queries,
    const vitri::core::ViTriBuilder& builder, vitri::ThreadPool* pool) {
  constexpr size_t kChunk = 1024;
  const std::vector<uint32_t> sources = PickSources(seed, n, num_queries);
  ClipStream stream(seed, 16, 2.0, pool);
  vitri::video::SynthesizerOptions qso;
  qso.dimension = 16;
  qso.seed = MixSeed(seed, 1);
  vitri::video::VideoSynthesizer query_synth(qso);
  std::vector<VideoSequence> dups;
  for (size_t base = 0; dups.size() < sources.size(); base += kChunk) {
    const std::vector<VideoSequence> clips = stream.Generate(
        static_cast<uint32_t>(base), std::min(kChunk, n - base));
    for (size_t i = dups.size();
         i < sources.size() && sources[i] < base + clips.size(); ++i) {
      dups.push_back(query_synth.MakeNearDuplicate(
          clips[sources[i] - base], static_cast<uint32_t>(0x40000000u + i)));
    }
  }
  std::vector<std::vector<ViTri>> summaries;
  if (!SummarizeAll(builder, pool, dups, &summaries)) return {};
  std::vector<BatchQuery> queries;
  for (size_t i = 0; i < dups.size(); ++i) {
    queries.push_back(BatchQuery{std::move(summaries[i]),
                                 static_cast<uint32_t>(dups[i].num_frames())});
  }
  return queries;
}

/// Marks where peak_rss_mb starts: call once the inputs are generated,
/// right before set-up.
bool MarkSetupMemory(RunResult* run) {
  run->rss_base_mb = MarkMemory();
  if (run->rss_base_mb >= 0.0) return true;
  run->Fail("cannot reset the resident high-water mark");
  return false;
}

/// Decile rate ratio: rate over the last 10% of `per_video_seconds`
/// divided by the rate over the first 10% (1.0 when ingest is flat).
double TailRatio(const std::vector<double>& per_video_seconds) {
  const size_t n = per_video_seconds.size();
  const size_t d = std::max<size_t>(n / 10, 1);
  if (n < 2 * d) return 0.0;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < d; ++i) {
    first += per_video_seconds[i];
    last += per_video_seconds[n - d + i];
  }
  return last > 0.0 ? first / last : 0.0;
}

/// Videos per second of summarize + insert time.
double IngestRate(const std::vector<double>& per_video_s) {
  double total = 0.0;
  for (const double s : per_video_s) total += s;
  return total > 0.0 ? static_cast<double>(per_video_s.size()) / total : 0.0;
}

/// Last-decile mean over first-decile mean of a latency series.
double TimeTailRatio(const std::vector<double>& times) {
  const double r = TailRatio(times);
  return r > 0.0 ? 1.0 / r : 0.0;
}

/// `closed` is the closed-loop phase whose completions give knn_qps.
void AddEndToEnd(RunResult* run, double setup_s, const PhaseResult& knn_phase,
                 const PhaseResult& closed,
                 const std::vector<double>& insert_ms,
                 double ingest_videos_per_s) {
  run->e2e.Add("setup_s", setup_s, "s");
  run->e2e.Add("knn_p50_ms", Percentile(knn_phase.knn_ms, 50.0), "ms");
  run->e2e.Add("knn_qps",
               closed.seconds > 0.0
                   ? static_cast<double>(closed.knn_ms.size()) / closed.seconds
                   : 0.0,
               "1/s");
  run->e2e.Add("ingest_videos_per_s", ingest_videos_per_s, "1/s");
  run->e2e.Add("peak_rss_mb", PeakRssMb() - run->rss_base_mb, "MB");
  // Tail and insert latencies go to the traced run's block: a p99 of
  // read_large's thousand open-loop requests rests on its ten slowest,
  // too few for a figure steady within an end-to-end bound, and insert
  // latency is no workload's main figure (see README.md).
  run->layer.Add("latency.knn_p99_ms", SlicedP99(knn_phase.knn_ms), "ms");
  run->layer.Add("latency.insert_p50_ms", Percentile(insert_ms, 50.0), "ms");
  run->layer.Add("latency.insert_p99_ms", SlicedP99(insert_ms), "ms");
}

/// Registry readings of the two load phases (traced runs reset the
/// registry at each phase start), and the wire cost of a request.
struct ServingLayers {
  double wire_us = 0.0;
  double queue_wait_p50 = 0.0;
  double queue_wait_p99 = 0.0;
  double request_p50_open = 0.0;
};

/// Median client round trip of in-band pings, microseconds: what the
/// transport and framing cost a request, without queue or index work.
/// Subtracting the server's request time from a KNN round trip cannot
/// resolve this: the registry's histogram buckets are 10 ms wide at a
/// read_large request's 20 ms.
double PingRoundTripUs(const std::string& socket, RunResult* run) {
  auto client = vitri::serving::Client::ConnectUnix(socket);
  std::vector<double> us;
  for (uint64_t i = 0; client.ok() && i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto resp = client->Ping(i);
    if (!resp.ok()) break;
    us.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  if (us.size() < 200) run->Fail("ping round trips failed");
  return Median(us);
}

void AddServingMetrics(const ServingLayers& s, const PhaseResult& open,
                       RunResult* run) {
  run->layer.Add("serving.queue_wait_us.p50", s.queue_wait_p50, "us");
  run->layer.Add("serving.queue_wait_us.p99", s.queue_wait_p99, "us");
  run->layer.Add("serving.request_us.p50", s.request_p50_open, "us");
  run->layer.Add("serving.wire_us.p50", s.wire_us, "us");
  run->layer.Add("bench.gen_lag_us.p99", Percentile(open.lag_us, 99.0), "us");
  const double plain = Percentile(open.knn_plain_ms, 50.0);
  run->layer.Add("bench.trace_overhead_frac",
                 plain > 0.0 ? Percentile(open.knn_traced_ms, 50.0) / plain
                             : 0.0,
                 "ratio");
}

void AddBuilderMetrics(double summarize_s, size_t videos, size_t vitris,
                       size_t frames, RunResult* run) {
  const double v = static_cast<double>(std::max<size_t>(videos, 1));
  run->layer.Add("builder.summarize_ms_per_video", summarize_s * 1e3 / v,
                 "ms");
  run->layer.Add("builder.vitris_per_video", static_cast<double>(vitris) / v,
                 "count");
  run->layer.Add("builder.frames_per_s",
                 summarize_s > 0.0 ? static_cast<double>(frames) / summarize_s
                                   : 0.0,
                 "1/s");
}

/// The wal.* registry readings over `inserts` logged inserts.
void AddWalMetrics(RunResult* run, double inserts) {
  const double syncs = CounterValue("wal.syncs");
  run->layer.Add("wal.append_us.p50",
                 HistPercentile("wal.append_latency_us", 50), "us");
  run->layer.Add("wal.append_us.p99",
                 HistPercentile("wal.append_latency_us", 99), "us");
  run->layer.Add("wal.fsync_us.p99",
                 HistPercentile("wal.fsync_latency_us", 99), "us");
  run->layer.Add(
      "wal.bytes_per_insert",
      inserts > 0.0 ? CounterValue("wal.append_bytes") / inserts : 0.0, "B");
  run->layer.Add("wal.commits_per_sync",
                 syncs > 0.0 ? CounterValue("wal.commits") / syncs : 0.0,
                 "ratio");
}

void AddBtreeMetrics(RunResult* run, uint32_t height, double leaf_splits,
                     double record_inserts) {
  run->layer.Add("btree.height", height, "count");
  run->layer.Add("btree.leaf_splits_per_insert",
                 record_inserts > 0.0 ? leaf_splits / record_inserts : 0.0,
                 "ratio");
}

/// The per-layer block of a sharded workload's traced run.
void AddShardedIndexLayers(ShardedViTriIndex* index,
                           const std::vector<BatchQuery>& replay_queries,
                           const vitri::storage::IoSnapshot& pool_delta,
                           uint64_t served, const std::vector<ViTri>& records,
                           RunResult* run) {
  const KnnReplay replay = ReplaySharded(index, replay_queries, kK);
  const std::vector<ViTriIndex*> shards = LiveShards(*index);
  double slots = 0.0;
  for (const ViTriIndex* shard : shards) {
    slots += static_cast<double>(shard->num_videos());
  }
  run->layer.Add("sharded.knn_us.p50", Median(replay.wall_us), "us");
  run->layer.Add("sharded.merge_us.p50", Median(replay.merge_us), "us");
  run->layer.Add("sharded.straggler_ratio", Median(replay.straggler),
                 "ratio");
  AddIndexLayerMetrics(replay,
                       ReplayCandidates(shards, replay_queries, kEpsilon),
                       TraceStages(shards, replay_queries, kK),
                       index->num_vitris(), slots, pool_delta, served,
                       shards.front()->options().page_size,
                       DecodeNsPerRecord(records, 16), &run->layer);
}

/// The WAL layer, measured from outside on whole videos of `chunk`. The
/// first half of them is bulk-built into a single ViTriIndex, durability
/// is enabled in `dir` under the flush policy of vitrid's durable route
/// (WalSyncMode::kGrouped at its default group sizes, with fdatasync),
/// and the second half is inserted video by video, each insert logged;
/// then the wal.* registry metrics are read. Sharded indexes have no WAL
/// yet, so this is the only place the benchmark exercises one.
void AddWalLayer(const ViTriSet& chunk, const std::string& dir,
                 RunResult* run) {
  std::map<uint32_t, std::vector<ViTri>> videos;
  for (const ViTri& v : chunk.vitris) videos[v.video_id].push_back(v);
  if (videos.size() < 2) return run->Fail("WAL probe needs two videos");
  const uint32_t first = videos.begin()->first;
  const size_t half = videos.size() / 2;
  ViTriSet base;
  base.dimension = chunk.dimension;
  std::vector<std::pair<uint32_t, std::vector<ViTri>>> logged;
  for (auto& [id, vitris] : videos) {
    const uint32_t local = id - first;
    for (ViTri& v : vitris) v.video_id = local;
    if (local < half) {
      AddFrames(&base, local, chunk.frame_counts[id], vitris);
    } else {
      logged.emplace_back(id, std::move(vitris));
    }
  }
  std::filesystem::remove_all(dir);
  auto built = ViTriIndex::Build(base, ShardedOptions(1).shard_options);
  if (!built.ok()) {
    return run->Fail("WAL probe build: " + built.status().ToString());
  }
  vitri::core::DurabilityOptions durability;
  durability.wal.sync_mode = vitri::storage::WalSyncMode::kGrouped;
  durability.wal.file_sync = vitri::storage::FileSyncMode::kFdatasync;
  Status st = built->EnableDurability(dir, durability);
  if (!st.ok()) return run->Fail("WAL probe durability: " + st.ToString());
  Registry().ResetAllForTest();
  for (const auto& [id, vitris] : logged) {
    st = built->Insert(vitris.front().video_id, chunk.frame_counts[id], vitris);
    if (!st.ok()) return run->Fail("WAL probe insert: " + st.ToString());
  }
  AddWalMetrics(run, static_cast<double>(logged.size()));
  std::filesystem::remove_all(dir);
}

std::vector<BatchQuery> ReplaySubset(const std::vector<BatchQuery>& queries,
                                     bool tiny) {
  const size_t n = std::min<size_t>(queries.size(), tiny ? 8 : 64);
  return {queries.begin(), queries.begin() + static_cast<long>(n)};
}

bool MoreSetupReps(const std::vector<double>& reps) {
  double spent = 0.0;
  for (const double r : reps) spent += r;
  return reps.size() < kMinSetupReps ||
         (spent < 1.0 && reps.size() < kMaxSetupReps);
}

double Ratio(double pages, double frames) {
  return frames > 0.0 ? pages / frames : 0.0;
}

// ---------------------------------------------------------------------
// read_large: read-only KNN over a 100k-video out-of-core corpus whose
// four trees are several times larger than their pools, so every query
// runs the page path (range scan, pool miss, pager read, CRC verify,
// decode, per-shard rank, top-k merge). A 10k-video online catch-up tail is
// inserted through vitrid before the read phases.
// ---------------------------------------------------------------------
void RunReadLarge(const Config& cfg, RunResult* run) {
  const size_t n = cfg.tiny ? 3000 : 100000;
  const size_t chunk = 1024;
  const size_t catchup = cfg.tiny ? 100 : 10000;
  const size_t tail_chunk = 500;
  const size_t num_queries = cfg.tiny ? 16 : 512;
  const std::string socket = cfg.workdir + "/vitrid.sock";
  SpanRecorder& spans = *run->spans;

  vitri::core::ViTriBuilderOptions bo;
  bo.epsilon = kEpsilon;
  const vitri::core::ViTriBuilder builder(bo);
  vitri::ThreadPool pool(vitri::ThreadPool::HardwareThreads());
  const std::vector<BatchQuery> queries =
      NearDuplicateQueries(cfg.seed, n, num_queries, builder, &pool);
  if (queries.size() != num_queries) {
    return run->Fail("query summarize failed");
  }

  ClipStream stream(cfg.seed, 16, 2.0, &pool);
  ViTriSet set;
  set.dimension = 16;
  double summarize_s = 0.0;
  size_t frames_summarized = 0;
  std::vector<std::vector<ViTri>> summaries;
  for (size_t base = 0; base < n; base += chunk) {
    const size_t count = std::min(chunk, n - base);
    const std::vector<VideoSequence> clips =
        stream.Generate(static_cast<uint32_t>(base), count);
    const Clock::time_point t0 = Clock::now();
    if (!SummarizeAll(builder, &pool, clips, &summaries)) {
      return run->Fail("corpus summarize failed");
    }
    const Clock::time_point t1 = Clock::now();
    summarize_s += Seconds(t0, t1);
    spans.Record("summarize_chunk", t0, t1, 0, 0);
    for (size_t i = 0; i < count; ++i) {
      frames_summarized += clips[i].num_frames();
      AddFrames(&set, clips[i].id, static_cast<uint32_t>(clips[i].num_frames()),
                summaries[i]);
    }
  }
  const std::vector<VideoSequence> tail_clips =
      stream.Generate(static_cast<uint32_t>(n), catchup);
  if (!MarkSetupMemory(run)) return;

  // Set-up: bulk build plus server start, repeated; the median counts.
  std::vector<double> setup_reps;
  std::unique_ptr<ShardedViTriIndex> index;
  std::unique_ptr<Server> server;
  while (MoreSetupReps(setup_reps)) {
    if (server != nullptr) (void)server->Shutdown();
    server.reset();
    index.reset();
    const Clock::time_point t0 = Clock::now();
    auto built = ShardedViTriIndex::Build(set, ShardedOptions(4));
    if (!built.ok()) return run->Fail("build: " + built.status().ToString());
    index = std::make_unique<ShardedViTriIndex>(std::move(*built));
    server = std::make_unique<Server>(index.get(), ServeOptions(socket));
    const Status st = server->Start();
    if (!st.ok()) return run->Fail("server start: " + st.ToString());
    const Clock::time_point t1 = Clock::now();
    setup_reps.push_back(Seconds(t0, t1));
    spans.Record("build_and_start", t0, t1, 0, 0);
  }
  const std::vector<ViTriIndex*> shards = LiveShards(*index);
  const double tree_pages = static_cast<double>(PoolTotals(shards).allocations);
  const double pool_frames =
      static_cast<double>(shards.size() *
                          shards.front()->options().buffer_pool_pages);
  const double setup_s = summarize_s + Median(setup_reps);
  // The workload is only valid while the trees dwarf the pools.
  if (!cfg.tiny && tree_pages < 4.0 * pool_frames) {
    run->Fail("tree pages are only " +
              std::to_string(Ratio(tree_pages, pool_frames)) +
              "x the pool frames, not >= 4x");
  }
  ReferenceTopK reference(queries, kK, &pool);
  reference.Add(set.vitris, set.frame_counts);

  // Online catch-up: each chunk is summarized, then inserted video by
  // video with ShardedViTriIndex::Insert beside the live server, as an
  // in-process loader would. Through vitrid the rate was set by thread
  // wake-ups and halved in about one run in five on a shared host. Each
  // chunk's videos then join the reference.
  Registry().ResetAllForTest();
  std::vector<double> insert_ms;
  std::vector<double> per_video_s;
  size_t catchup_vitris = 0;
  ViTriSet part;
  part.frame_counts = set.frame_counts;
  for (size_t base = 0; base < catchup; base += tail_chunk) {
    const size_t count = std::min(tail_chunk, catchup - base);
    const std::vector<VideoSequence> clips(
        tail_clips.begin() + static_cast<long>(base),
        tail_clips.begin() + static_cast<long>(base + count));
    const Clock::time_point t0 = Clock::now();
    if (!SummarizeAll(builder, &pool, clips, &summaries)) {
      return run->Fail("catch-up summarize failed");
    }
    const double chunk_s = Seconds(t0, Clock::now());
    summarize_s += chunk_s;
    part.vitris.clear();
    for (size_t i = 0; i < count; ++i) {
      frames_summarized += clips[i].num_frames();
      const auto frames = static_cast<uint32_t>(clips[i].num_frames());
      ++run->attempted;
      const Clock::time_point s0 = Clock::now();
      const Status st = index->Insert(clips[i].id, frames, summaries[i]);
      const Clock::time_point s1 = Clock::now();
      spans.Record("catchup_insert", s0, s1, 0, clips[i].id);
      if (!st.ok()) {
        ++run->failed;
        continue;
      }
      const double s = Seconds(s0, s1);
      insert_ms.push_back(s * 1e3);
      per_video_s.push_back(s + chunk_s / static_cast<double>(count));
      catchup_vitris += summaries[i].size();
      AddFrames(&part, clips[i].id, frames, summaries[i]);
    }
    reference.Add(part.vitris, part.frame_counts);
  }
  const double leaf_splits = CounterValue("btree.leaf_splits");
  const double record_inserts = CounterValue("btree.inserts");

  LoadPlan plan;
  plan.socket_path = socket;
  plan.k = kK;
  plan.dimension = 16;
  plan.queries = queries;
  plan.references = References(&reference, cfg);
  plan.seed = cfg.seed;
  plan.spans = run->spans;

  ServingLayers serving;
  Registry().ResetAllForTest();
  const PhaseResult closed =
      RunClosedLoop(&plan, kClosedConnections, cfg.seconds * 0.2);
  serving.wire_us = PingRoundTripUs(plan.socket_path, run);
  Registry().ResetAllForTest();
  const vitri::storage::IoSnapshot pool_before = PoolTotals(shards);
  const double rate = cfg.tiny ? 40.0 : kReadLargeRate;
  const PhaseResult open =
      RunOpenLoop(&plan, kOpenSenders, rate, cfg.seconds * 0.8);
  const vitri::storage::IoSnapshot pool_delta =
      PoolTotals(shards) - pool_before;
  serving.queue_wait_p50 = HistPercentile("serving.queue.wait_us", 50);
  serving.queue_wait_p99 = HistPercentile("serving.queue.wait_us", 99);
  serving.request_p50_open = HistPercentile("serving.request.latency_us", 50);
  run->Count(closed);
  run->Count(open);
  (void)server->Shutdown();

  if (index->num_videos() != n + catchup) {
    run->Fail("index holds " + std::to_string(index->num_videos()) +
              " videos, expected " + std::to_string(n + catchup));
  }
  const Status valid = index->ValidateInvariants();
  if (!valid.ok()) run->Fail("invariants: " + valid.ToString());
  std::fprintf(stderr,
               "read_large: %zu videos, %zu ViTris, tree pages %.0f = %.2fx "
               "pool frames\n",
               index->num_videos(), index->num_vitris(), tree_pages,
               Ratio(tree_pages, pool_frames));

  AddEndToEnd(run, setup_s, open, closed, insert_ms, IngestRate(per_video_s));
  if (!cfg.trace) return;
  AddServingMetrics(serving, open, run);
  std::vector<double> insert_us;
  for (const double ms : insert_ms) insert_us.push_back(ms * 1e3);
  run->layer.Add("sharded.insert_us.p50", Percentile(insert_us, 50.0), "us");
  run->layer.Add("sharded.insert_us.p99", Percentile(insert_us, 99.0), "us");
  run->layer.Add("sharded.insert_us.tail_ratio", TimeTailRatio(insert_ms),
                 "ratio");
  AddShardedIndexLayers(index.get(), ReplaySubset(queries, cfg.tiny),
                        pool_delta, open.knn_ms.size() + open.failed,
                        set.vitris, run);
  run->layer.Add("pool.tree_pages_per_frame", Ratio(tree_pages, pool_frames),
                 "ratio");
  AddBuilderMetrics(summarize_s, n + catchup, set.vitris.size() + catchup_vitris,
                    frames_summarized, run);
  // The sharded route has no WAL; the WAL layer is measured on
  // ingest_sharded.
  AddWalMetrics(run, 0.0);
  AddBtreeMetrics(run, index->tree_height(), leaf_splits, record_inserts);
  run->layer.Add("ingest_tail_ratio", TailRatio(per_video_s), "ratio");
}

// ---------------------------------------------------------------------
// ingest_sharded: streaming ingest of ~100k videos into the same 4-shard
// layout — untimed generation, timed summarize across the pool, then
// ShardedIndexBuilder::Add video by video (a seed bulk build, then
// ShardedViTriIndex::Insert). The insert-built index is then queried
// through vitrid (closed loop) to check that it answers correctly.
// ---------------------------------------------------------------------
void RunIngestSharded(const Config& cfg, RunResult* run) {
  const size_t n = cfg.tiny ? 6000 : 100000;
  const size_t chunk = cfg.tiny ? 512 : 1024;
  const size_t seed_videos = cfg.tiny ? 1024 : 4096;
  const size_t num_queries = cfg.tiny ? 16 : 512;
  const std::string socket = cfg.workdir + "/vitrid.sock";
  SpanRecorder& spans = *run->spans;

  vitri::core::ViTriBuilderOptions bo;
  bo.epsilon = kEpsilon;
  const vitri::core::ViTriBuilder builder(bo);
  vitri::ThreadPool pool(vitri::ThreadPool::HardwareThreads());
  const std::vector<BatchQuery> queries =
      NearDuplicateQueries(cfg.seed, n, num_queries, builder, &pool);
  if (queries.size() != num_queries) {
    return run->Fail("query summarize failed");
  }
  ClipStream stream(cfg.seed, 16, 2.0, &pool);
  const std::vector<VideoSequence> seed_clips = stream.Generate(0, seed_videos);
  if (!MarkSetupMemory(run)) return;

  // The corpus is never held: each chunk's ViTris are copied into `part`
  // (untimed) and fed to the reference once the chunk is in.
  ReferenceTopK reference(queries, kK, &pool);
  ViTriSet part;
  part.dimension = 16;
  size_t total_vitris = 0;

  // Set-up is the time to go live: summarize the seed sample and feed it
  // to a fresh builder, whose last Add bulk-builds the four shards.
  // Repeated; the median counts and the last builder streams on.
  std::optional<ShardedIndexBuilder> ingest;
  std::vector<std::vector<ViTri>> summaries;
  std::vector<double> setup_reps;
  double summarize_s = 0.0;
  while (MoreSetupReps(setup_reps)) {
    Registry().ResetAllForTest();
    ingest.emplace(ShardedOptions(4), seed_videos);
    const Clock::time_point t0 = Clock::now();
    if (!SummarizeAll(builder, &pool, seed_clips, &summaries)) {
      return run->Fail("summarize failed");
    }
    const Clock::time_point t1 = Clock::now();
    if (setup_reps.empty()) {
      for (size_t i = 0; i < seed_clips.size(); ++i) {
        total_vitris += summaries[i].size();
        AddFrames(&part, seed_clips[i].id,
                  static_cast<uint32_t>(seed_clips[i].num_frames()),
                  summaries[i]);
      }
    }
    const Clock::time_point t2 = Clock::now();
    for (size_t i = 0; i < seed_clips.size(); ++i) {
      const Status st =
          ingest->Add(seed_clips[i].id,
                      static_cast<uint32_t>(seed_clips[i].num_frames()),
                      std::move(summaries[i]));
      if (!st.ok()) return run->Fail("add: " + st.ToString());
    }
    const Clock::time_point t3 = Clock::now();
    if (!ingest->live()) return run->Fail("seed build did not go live");
    spans.Record("go_live", t0, t3, 0, 0);
    setup_reps.push_back(Seconds(t0, t1) + Seconds(t2, t3));
    summarize_s = Seconds(t0, t1);
  }
  const double setup_s = Median(setup_reps);
  reference.Add(part.vitris, part.frame_counts);
  size_t frames_summarized = 0;
  for (const VideoSequence& clip : seed_clips) {
    frames_summarized += clip.num_frames();
  }

  // Streaming ingest: every further video is a ShardedViTriIndex::Insert.
  double live_s = 0.0;
  std::vector<double> add_us;
  std::vector<double> per_video_s;
  for (size_t base = seed_videos; base < n; base += chunk) {
    const size_t count = std::min(chunk, n - base);
    const std::vector<VideoSequence> clips =
        stream.Generate(static_cast<uint32_t>(base), count);
    const Clock::time_point t0 = Clock::now();
    if (!SummarizeAll(builder, &pool, clips, &summaries)) {
      return run->Fail("summarize failed");
    }
    const Clock::time_point t1 = Clock::now();
    const double chunk_s = Seconds(t0, t1);
    spans.Record("summarize_chunk", t0, t1, 0, 0);
    summarize_s += chunk_s;
    live_s += chunk_s;
    part.vitris.clear();
    for (size_t i = 0; i < count; ++i) {
      const auto frames = static_cast<uint32_t>(clips[i].num_frames());
      frames_summarized += frames;
      total_vitris += summaries[i].size();
      AddFrames(&part, clips[i].id, frames, summaries[i]);
      const Clock::time_point a0 = Clock::now();
      const Status st =
          ingest->Add(clips[i].id, frames, std::move(summaries[i]));
      const Clock::time_point a1 = Clock::now();
      ++run->attempted;
      if (!st.ok()) {
        ++run->failed;
        run->Fail("add: " + st.ToString());
        continue;
      }
      const double s = Seconds(a0, a1);
      live_s += s;
      add_us.push_back(s * 1e6);
      per_video_s.push_back(s + chunk_s / static_cast<double>(count));
    }
    reference.Add(part.vitris, part.frame_counts);
  }
  const double leaf_splits = CounterValue("btree.leaf_splits");
  const double record_inserts = CounterValue("btree.inserts");
  auto finished = std::move(*ingest).Finish();
  if (!finished.ok()) {
    return run->Fail("finish: " + finished.status().ToString());
  }
  auto index = std::make_unique<ShardedViTriIndex>(std::move(*finished));

  auto server = std::make_unique<Server>(index.get(), ServeOptions(socket));
  const Status st = server->Start();
  if (!st.ok()) return run->Fail("server start: " + st.ToString());
  LoadPlan plan;
  plan.socket_path = socket;
  plan.k = kK;
  plan.dimension = 16;
  plan.queries = queries;
  plan.references = References(&reference, cfg);
  plan.seed = cfg.seed;
  plan.spans = run->spans;
  ServingLayers serving;
  Registry().ResetAllForTest();
  const std::vector<ViTriIndex*> shards = LiveShards(*index);
  const vitri::storage::IoSnapshot pool_before = PoolTotals(shards);
  // The query phase fills the rest of the measured time.
  const PhaseResult closed =
      RunClosedLoop(&plan, kClosedConnections,
                    std::max(cfg.seconds * 0.2, cfg.seconds - live_s));
  const vitri::storage::IoSnapshot pool_delta =
      PoolTotals(shards) - pool_before;
  serving.request_p50_open = HistPercentile("serving.request.latency_us", 50);
  serving.wire_us = PingRoundTripUs(plan.socket_path, run);
  serving.queue_wait_p50 = HistPercentile("serving.queue.wait_us", 50);
  serving.queue_wait_p99 = HistPercentile("serving.queue.wait_us", 99);
  run->Count(closed);
  (void)server->Shutdown();

  if (index->num_videos() != n) {
    run->Fail("index holds " + std::to_string(index->num_videos()) +
              " videos, expected " + std::to_string(n));
  }
  const Status valid = index->ValidateInvariants();
  if (!valid.ok()) run->Fail("invariants: " + valid.ToString());

  std::vector<double> add_ms;
  for (const double us : add_us) add_ms.push_back(us / 1e3);
  AddEndToEnd(run, setup_s, closed, closed, add_ms, IngestRate(per_video_s));
  if (!cfg.trace) return;
  AddServingMetrics(serving, closed, run);
  run->layer.Add("sharded.insert_us.p50", Percentile(add_us, 50.0), "us");
  run->layer.Add("sharded.insert_us.p99", Percentile(add_us, 99.0), "us");
  run->layer.Add("sharded.insert_us.tail_ratio", TimeTailRatio(add_us),
                 "ratio");
  AddShardedIndexLayers(index.get(), ReplaySubset(queries, cfg.tiny),
                        pool_delta, closed.knn_ms.size() + closed.failed,
                        shards.front()->Snapshot().vitris, run);
  const double pool_frames =
      static_cast<double>(shards.size() *
                          shards.front()->options().buffer_pool_pages);
  run->layer.Add(
      "pool.tree_pages_per_frame",
      Ratio(static_cast<double>(PoolTotals(shards).allocations), pool_frames),
      "ratio");
  AddBuilderMetrics(summarize_s, n, total_vitris, frames_summarized, run);
  AddBtreeMetrics(run, index->tree_height(), leaf_splits, record_inserts);
  run->layer.Add("ingest_tail_ratio", TailRatio(per_video_s), "ratio");
  AddWalLayer(part, cfg.workdir + "/wal", run);
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      cfg->tiny = true;
    } else if (arg == "--perturb-reference") {
      cfg->perturb = true;
    } else if (arg == "--workload" && has_value) {
      cfg->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      cfg->trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--workdir" && has_value) {
      cfg->workdir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return cfg->seconds > 0.0 &&
         (cfg->workload == "read_large" || cfg->workload == "ingest_sharded");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: vitri_perfbench --workload "
                 "read_large|ingest_sharded --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR] [--tiny] "
                 "[--perturb-reference]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", cfg.workdir.c_str());
    return 2;
  }
  SpanRecorder spans(cfg.trace);
  RunResult run;
  run.spans = &spans;
  if (cfg.workload == "read_large") {
    RunReadLarge(cfg, &run);
  } else {
    RunIngestSharded(cfg, &run);
  }
  if (run.failed > 0) {
    run.Fail(std::to_string(run.failed) + " failed operations");
  }
  if (cfg.trace) {
    run.layer.Add("fail_frac",
                  run.attempted == 0 ? 0.0
                                     : static_cast<double>(run.failed) /
                                           static_cast<double>(run.attempted),
                  "fraction");
    const std::string path = cfg.workdir + "/trace-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".jsonl";
    if (!spans.WriteJsonLines(path)) run.Fail("cannot write " + path);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
                 path.c_str());
  }
  std::filesystem::remove(cfg.workdir + "/vitrid.sock", ec);
  const Report& metrics = cfg.trace ? run.layer : run.e2e;
  std::printf("%s\n", metrics.ToJson(run.correct, std::max<uint64_t>(
                                                      run.attempted, 1),
                                     run.failed)
                          .c_str());
  return run.correct ? 0 : 1;
}
