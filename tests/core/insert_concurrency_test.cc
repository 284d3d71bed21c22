// Mixed reader/writer concurrency for online ingest, at both the
// B+-tree and the index level. Run under the tsan preset (the CI
// tsan-stress regex includes InsertConcurrency); the assertions prove
// writers never corrupt what readers observe:
//   * tree readers see strictly ordered range scans and find every key
//     published before their scan started,
//   * index readers get well-formed KNN answers while Insert() runs,
//   * a durable index keeps the WAL consistent under the same mix,
//   * afterwards the contents equal the insert stream exactly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "btree/bplus_tree.h"
#include "core/index.h"
#include "core/vitri_builder.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "video/synthesizer.h"

namespace vitri::core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// --- B+-tree level ---------------------------------------------------

// One writer inserts keys 0, 1, 2, ... while readers loop lookups and
// range scans. A reader that has seen the published watermark W must
// find every key <= W, and every scan must come back strictly ordered.
TEST(InsertConcurrencyTest, TreeReadersSeeOrderedPrefixesDuringInserts) {
  storage::MemPager pager(4096);
  storage::BufferPool pool(&pager, 256);
  auto created = btree::BPlusTree::Create(&pool, sizeof(uint64_t));
  ASSERT_TRUE(created.ok());
  btree::BPlusTree& tree = *created;

  constexpr uint64_t kKeys = 600;
  constexpr int kReaders = 4;
  std::atomic<uint64_t> watermark{0};  // Keys published so far.
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    std::vector<uint8_t> value(sizeof(uint64_t));
    for (uint64_t i = 0; i < kKeys; ++i) {
      std::memcpy(value.data(), &i, sizeof(uint64_t));
      if (!tree.Insert(static_cast<double>(i), i, value).ok()) {
        failed.store(true);
        return;
      }
      watermark.store(i + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<uint8_t> value;
      while (watermark.load(std::memory_order_acquire) < kKeys &&
             !failed.load()) {
        const uint64_t seen = watermark.load(std::memory_order_acquire);
        // Point lookups: everything published must be found.
        for (uint64_t i = r; i < seen; i += kReaders) {
          auto found =
              tree.Lookup(static_cast<double>(i), i, &value);
          if (!found.ok() || !*found) {
            failed.store(true);
            return;
          }
        }
        // Full scan: strictly increasing keys, at least `seen` of them.
        double last = -1.0;
        bool ordered = true;
        auto scanned = tree.RangeScan(
            0.0, static_cast<double>(kKeys),
            [&](double key, uint64_t, std::span<const uint8_t>) {
              if (key <= last) ordered = false;
              last = key;
              return true;
            });
        if (!scanned.ok() || !ordered || *scanned < seen) {
          failed.store(true);
          return;
        }
        // Yield: glibc shared_mutex is reader-preferring, and four
        // tight-loop scanners starve the writer (minutes under tsan).
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(tree.num_entries(), kKeys);
  ASSERT_TRUE(tree.ValidateInvariants({}).ok());
}

// --- index level -----------------------------------------------------

struct World {
  video::VideoDatabase db;
  std::vector<std::vector<ViTri>> per_video;
  std::vector<uint32_t> frame_counts;
  std::vector<BatchQuery> queries;
  size_t initial = 0;

  ViTriSet InitialSet() const {
    ViTriSet set;
    set.dimension = db.dimension;
    for (size_t vid = 0; vid < initial; ++vid) {
      set.frame_counts.push_back(frame_counts[vid]);
      for (const ViTri& v : per_video[vid]) set.vitris.push_back(v);
    }
    return set;
  }
};

const World& SharedWorld() {
  static const World* world = [] {
    video::SynthesizerOptions so;
    so.seed = 2005;
    video::VideoSynthesizer synth(so);
    auto* w = new World;
    w->db = synth.GenerateDatabase(0.004);
    ViTriBuilder builder;
    w->per_video.resize(w->db.num_videos());
    for (size_t vid = 0; vid < w->db.num_videos(); ++vid) {
      auto vitris = builder.Build(w->db.videos[vid]);
      EXPECT_TRUE(vitris.ok());
      w->per_video[vid] = std::move(*vitris);
      w->frame_counts.push_back(
          static_cast<uint32_t>(w->db.videos[vid].num_frames()));
    }
    w->initial = w->db.num_videos() / 2;
    for (size_t q = 0; q < 4; ++q) {
      w->queries.push_back(
          BatchQuery{w->per_video[q], w->frame_counts[q]});
    }
    return w;
  }();
  return *world;
}

/// Inserts videos [initial, num_videos) on a writer thread while
/// reader threads hammer Knn, then checks final contents.
void RunMixedWorkload(ViTriIndex* index) {
  const World& w = SharedWorld();
  std::atomic<bool> writer_done{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (size_t vid = w.initial; vid < w.db.num_videos(); ++vid) {
      if (!index
               ->Insert(static_cast<uint32_t>(vid), w.frame_counts[vid],
                        w.per_video[vid])
               .ok()) {
        failed.store(true);
        break;
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!writer_done.load(std::memory_order_acquire) &&
             !failed.load()) {
        if (r == 0) {
          // A sweep over every query, back to back.
          for (const BatchQuery& q : w.queries) {
            if (!index->Knn(q.vitris, q.num_frames, 5, KnnMethod::kComposed)
                     .ok()) {
              failed.store(true);
              return;
            }
          }
        } else {
          const BatchQuery& q = w.queries[r % w.queries.size()];
          auto matches =
              index->Knn(q.vitris, q.num_frames, 5, KnnMethod::kComposed);
          if (!matches.ok()) {
            failed.store(true);
            return;
          }
          // Well-formed: similarities sorted non-increasing.
          for (size_t i = 1; i < matches->size(); ++i) {
            if ((*matches)[i].similarity >
                (*matches)[i - 1].similarity) {
              failed.store(true);
              return;
            }
          }
        }
        // Latched counters stay readable mid-insert.
        (void)index->num_vitris();
        (void)index->tree_height();
        // Yield between rounds: std::shared_mutex is reader-preferring
        // on glibc, and back-to-back shared acquisitions starve the
        // writer for minutes otherwise.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  size_t expected_vitris = 0;
  for (const auto& vitris : w.per_video) expected_vitris += vitris.size();
  EXPECT_EQ(index->num_vitris(), expected_vitris);
  EXPECT_EQ(index->num_videos(), w.db.num_videos());
  ASSERT_TRUE(index->ValidateInvariants().ok());
}

TEST(InsertConcurrencyTest, IndexQueriesRunSafelyDuringInserts) {
  const World& w = SharedWorld();
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  RunMixedWorkload(&*index);
}

TEST(InsertConcurrencyTest, DurableIndexStaysConsistentUnderMixedLoad) {
  const World& w = SharedWorld();
  const std::string dir = TempPath("insert_concurrency_durable");
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());
  DurabilityOptions dur;
  dur.wal.sync_mode = storage::WalSyncMode::kGrouped;
  ASSERT_TRUE(index->EnableDurability(dir, dur).ok());

  RunMixedWorkload(&*index);
  EXPECT_EQ(index->wal_commits(), w.db.num_videos() - w.initial);

  // Everything the mixed run acked survives a reopen.
  ASSERT_TRUE(index->SyncWal().ok());
  auto reopened = ViTriIndex::Open(dir, io);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_vitris(), index->num_vitris());
  EXPECT_EQ(reopened->num_videos(), index->num_videos());
  ASSERT_TRUE(reopened->ValidateInvariants().ok());
}

// Rebuild (exclusive) racing readers: the drift-triggered one-off
// reconstruction must also be writer-safe.
TEST(InsertConcurrencyTest, RebuildExcludesReadersSafely) {
  const World& w = SharedWorld();
  ViTriIndexOptions io;
  io.dimension = w.db.dimension;
  auto index = ViTriIndex::Build(w.InitialSet(), io);
  ASSERT_TRUE(index.ok());

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread churn([&] {
    for (size_t vid = w.initial; vid < w.db.num_videos(); ++vid) {
      if (!index
               ->Insert(static_cast<uint32_t>(vid), w.frame_counts[vid],
                        w.per_video[vid])
               .ok()) {
        failed.store(true);
        break;
      }
      if ((vid - w.initial) % 8 == 7 && !index->Rebuild().ok()) {
        failed.store(true);
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    const BatchQuery& q = w.queries[0];
    while (!done.load(std::memory_order_acquire) && !failed.load()) {
      if (!index->Knn(q.vitris, q.num_frames, 5, KnnMethod::kComposed)
               .ok()) {
        failed.store(true);
        return;
      }
      // See RunMixedWorkload: don't starve the exclusive-locking churn.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  churn.join();
  reader.join();
  ASSERT_FALSE(failed.load());
  ASSERT_TRUE(index->ValidateInvariants().ok());
}

}  // namespace
}  // namespace vitri::core
