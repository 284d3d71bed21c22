// Reproduces Figure 19: effect of dynamic insertion. The index is
// initialized with the first batch of videos, further batches are
// inserted through standard B+-tree insertions (keeping the original
// reference point), and 50NN cost is measured after each batch — also
// compared against an index rebuilt from scratch (one-off construction)
// and against sequential scan.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/index.h"
#include "core/vitri_builder.h"
#include "harness/bench_common.h"
#include "harness/bench_report.h"
#include "storage/wal.h"

int main() {
  using namespace vitri;
  using namespace vitri::core;
  const double scale = bench::EnvDouble("VITRI_SCALE", 0.08);
  const int num_queries = bench::EnvInt("VITRI_QUERIES", 15);

  bench::PrintHeader("Figure 19", "Effect of dynamic insertion");
  bench::BenchReport report("fig19_dynamic_insertion");

  bench::WorkloadOptions wo;
  wo.scale = scale;
  wo.num_queries = num_queries;
  wo.keep_frames = false;
  bench::Workload w = bench::BuildWorkload(wo);

  // Partition the summaries into 4 batches by video id, mirroring the
  // paper's 20k/20k/20k/9.5k ViTri batches.
  const size_t num_videos = w.db.num_videos();
  const size_t batch_videos = (num_videos + 3) / 4;

  std::vector<std::vector<ViTri>> per_video(num_videos);
  for (const ViTri& v : w.set.vitris) {
    per_video[v.video_id].push_back(v);
  }

  // Initial index over batch 0.
  ViTriSet first;
  first.dimension = w.set.dimension;
  first.frame_counts = w.set.frame_counts;
  for (size_t vid = 0; vid < std::min(batch_videos, num_videos); ++vid) {
    for (const ViTri& v : per_video[vid]) first.vitris.push_back(v);
  }
  ViTriIndexOptions io_opts;
  io_opts.epsilon = w.epsilon;
  auto dynamic_index = ViTriIndex::Build(first, io_opts);
  if (!dynamic_index.ok()) return 1;

  std::vector<std::vector<ViTri>> summaries;
  std::vector<uint32_t> frames;
  for (const video::VideoSequence& query : w.queries) {
    summaries.push_back(bench::Summarize(query, w.epsilon));
    frames.push_back(static_cast<uint32_t>(query.num_frames()));
  }

  auto measure = [&](ViTriIndex& index, double* io_out, double* cpu_out,
                     double* scan_io_out) -> bool {
    double io = 0.0, cpu = 0.0, scan_io = 0.0;
    for (size_t q = 0; q < summaries.size(); ++q) {
      QueryCosts costs;
      if (!index.Knn(summaries[q], frames[q], 50, KnnMethod::kComposed,
                     &costs)
               .ok()) {
        return false;
      }
      io += static_cast<double>(costs.page_accesses);
      cpu += costs.cpu_seconds * 1e3;
      QueryCosts scan_costs;
      if (!index.SequentialScan(summaries[q], frames[q], 50, &scan_costs)
               .ok()) {
        return false;
      }
      scan_io += static_cast<double>(scan_costs.page_accesses);
    }
    const double nq = static_cast<double>(summaries.size());
    *io_out = io / nq;
    *cpu_out = cpu / nq;
    *scan_io_out = scan_io / nq;
    return true;
  };

  std::printf("%-8s %-10s | %-12s %-12s %-12s | %-12s %-10s\n", "batch",
              "vitris", "dynamic I/O", "rebuilt I/O", "seqscan I/O",
              "dyn CPU ms", "drift(rad)");

  size_t next_video = std::min(batch_videos, num_videos);
  for (int batch = 0; batch < 4; ++batch) {
    if (batch > 0) {
      const size_t end =
          std::min(next_video + batch_videos, num_videos);
      for (size_t vid = next_video; vid < end; ++vid) {
        if (per_video[vid].empty()) continue;
        if (!dynamic_index
                 ->Insert(static_cast<uint32_t>(vid),
                          w.set.frame_counts[vid], per_video[vid])
                 .ok()) {
          return 1;
        }
      }
      next_video = end;
    }

    double dyn_io = 0, dyn_cpu = 0, scan_io = 0;
    if (!measure(*dynamic_index, &dyn_io, &dyn_cpu, &scan_io)) return 1;

    // One-off construction over the same contents.
    ViTriSet upto;
    upto.dimension = w.set.dimension;
    upto.frame_counts = w.set.frame_counts;
    for (size_t vid = 0; vid < next_video; ++vid) {
      for (const ViTri& v : per_video[vid]) upto.vitris.push_back(v);
    }
    auto rebuilt = ViTriIndex::Build(upto, io_opts);
    if (!rebuilt.ok()) return 1;
    double reb_io = 0, reb_cpu = 0, reb_scan = 0;
    if (!measure(*rebuilt, &reb_io, &reb_cpu, &reb_scan)) return 1;

    auto drift = dynamic_index->DriftAngle();
    if (!drift.ok()) return 1;

    std::printf("%-8d %-10zu | %-12.1f %-12.1f %-12.1f | %-12.2f %-10.3f\n",
                batch, dynamic_index->num_vitris(), dyn_io, reb_io,
                scan_io, dyn_cpu, *drift);
    report.AddRow()
        .Set("batch", batch)
        .Set("num_vitris", dynamic_index->num_vitris())
        .Set("dynamic_page_accesses", dyn_io)
        .Set("rebuilt_page_accesses", reb_io)
        .Set("seqscan_page_accesses", scan_io)
        .Set("dynamic_cpu_ms", dyn_cpu)
        .Set("drift_radians", *drift);
  }
  std::printf("\n# expected shape (paper): indexed costs grow sub-linearly "
              "vs seq-scan's linear growth; dynamic slightly above "
              "one-off rebuild, degrading as PC drift accumulates\n");

  // --- Durable online ingest: the same batch-1..3 insert stream, now
  // WAL-logged (group commit) while a reader loops 50NN batches against
  // the index. Measures ingest throughput with durability on plus the
  // WAL's append/fsync latency distributions, then proves the loop:
  // checkpoint, reopen from disk, same contents.
  char dir_template[] = "/tmp/vitri_fig19_wal_XXXXXX";
  const char* wal_dir = ::mkdtemp(dir_template);
  if (wal_dir == nullptr) return 1;

  auto durable_index = ViTriIndex::Build(first, io_opts);
  if (!durable_index.ok()) return 1;
  DurabilityOptions dur;
  dur.wal.sync_mode = storage::WalSyncMode::kGrouped;
  if (!durable_index->EnableDurability(std::string(wal_dir) + "/index", dur)
           .ok()) {
    return 1;
  }

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> inserted_videos{0};
  vitri::Stopwatch ingest_clock;
  std::thread writer([&] {
    for (size_t vid = std::min(batch_videos, num_videos); vid < num_videos;
         ++vid) {
      if (per_video[vid].empty()) continue;
      if (!durable_index
               ->Insert(static_cast<uint32_t>(vid),
                        w.set.frame_counts[vid], per_video[vid])
               .ok()) {
        break;
      }
      inserted_videos.fetch_add(1, std::memory_order_relaxed);
    }
    writer_done.store(true, std::memory_order_release);
  });
  uint64_t query_rounds = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    bool ok = true;
    for (size_t q = 0; ok && q < summaries.size(); ++q) {
      ok = durable_index->Knn(summaries[q], frames[q], 50,
                              KnnMethod::kComposed)
               .ok();
    }
    if (!ok) break;
    ++query_rounds;
  }
  writer.join();
  const double ingest_seconds = ingest_clock.ElapsedMicros() * 1e-6;
  if (!durable_index->SyncWal().ok()) return 1;
  const uint64_t acked = durable_index->wal_commits();
  const uint64_t durable = durable_index->wal_durable_commits();

  const auto append_hist =
      VITRI_METRIC_HISTOGRAM("wal.append_latency_us")->TakeSnapshot();
  const auto fsync_hist =
      VITRI_METRIC_HISTOGRAM("wal.fsync_latency_us")->TakeSnapshot();
  const uint64_t wal_bytes =
      VITRI_METRIC_COUNTER("wal.append_bytes")->Value();
  const uint64_t wal_syncs = VITRI_METRIC_COUNTER("wal.syncs")->Value();

  std::printf("\ndurable ingest (group commit): %llu videos in %.2fs "
              "(%.0f videos/s), %llu WAL commits (%llu synced durable), "
              "%llu syncs, %.1f MB logged, %llu concurrent 50NN rounds\n",
              static_cast<unsigned long long>(inserted_videos.load()),
              ingest_seconds,
              static_cast<double>(inserted_videos.load()) / ingest_seconds,
              static_cast<unsigned long long>(acked),
              static_cast<unsigned long long>(durable),
              static_cast<unsigned long long>(wal_syncs),
              static_cast<double>(wal_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(query_rounds));
  std::printf("WAL append us: p50 %.1f p90 %.1f p99 %.1f mean %.1f "
              "(n=%llu)\n",
              append_hist.Percentile(50), append_hist.Percentile(90),
              append_hist.Percentile(99), append_hist.Mean(),
              static_cast<unsigned long long>(append_hist.count));
  std::printf("WAL fsync  us: p50 %.1f p90 %.1f p99 %.1f mean %.1f "
              "(n=%llu)\n",
              fsync_hist.Percentile(50), fsync_hist.Percentile(90),
              fsync_hist.Percentile(99), fsync_hist.Mean(),
              static_cast<unsigned long long>(fsync_hist.count));

  // Close the loop: checkpoint, reopen from disk, same contents.
  const size_t live_vitris = durable_index->num_vitris();
  if (!durable_index->Checkpoint().ok()) return 1;
  RecoveryStats rstats;
  auto reopened = ViTriIndex::Open(std::string(wal_dir) + "/index", io_opts,
                                   {}, &rstats);
  if (!reopened.ok() || reopened->num_vitris() != live_vitris) {
    std::fprintf(stderr, "fig19: durable reopen mismatch\n");
    return 1;
  }
  std::printf("reopen after checkpoint: generation %llu, %zu ViTris "
              "(match)\n",
              static_cast<unsigned long long>(rstats.generation),
              reopened->num_vitris());

  report.AddRow()
      .Set("phase", "durable_ingest")
      .Set("inserted_videos", inserted_videos.load())
      .Set("ingest_seconds", ingest_seconds)
      .Set("wal_commits", acked)
      .Set("wal_durable_commits", durable)
      .Set("wal_syncs", wal_syncs)
      .Set("wal_append_bytes", wal_bytes)
      .Set("concurrent_query_rounds", query_rounds)
      .Set("wal_append_us_p50", append_hist.Percentile(50))
      .Set("wal_append_us_p90", append_hist.Percentile(90))
      .Set("wal_append_us_p95", append_hist.Percentile(95))
      .Set("wal_append_us_p99", append_hist.Percentile(99))
      .Set("wal_append_us_mean", append_hist.Mean())
      .Set("wal_append_count", append_hist.count)
      .Set("wal_fsync_us_p50", fsync_hist.Percentile(50))
      .Set("wal_fsync_us_p90", fsync_hist.Percentile(90))
      .Set("wal_fsync_us_p95", fsync_hist.Percentile(95))
      .Set("wal_fsync_us_p99", fsync_hist.Percentile(99))
      .Set("wal_fsync_us_mean", fsync_hist.Mean())
      .Set("wal_fsync_count", fsync_hist.count)
      .Set("reopen_generation", rstats.generation)
      .Set("reopen_vitris", reopened->num_vitris());

  if (!report.WriteArtifact()) return 1;
  return 0;
}
