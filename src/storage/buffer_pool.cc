#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "storage/page_footer.h"

namespace vitri::storage {

void PageRef::MarkDirty() {
  VITRI_DCHECK(valid()) << "MarkDirty on a released PageRef";
  // Dirtiness is latched at unpin time; remember it locally.
  dirty_latch_ = true;
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_, dirty_latch_);
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPageId;
  }
}

namespace {

size_t ResolveShardCount(size_t capacity, const BufferPoolOptions& options) {
  size_t n = options.shards;
  if (n == 0) {
    // Env override applies to *auto* only: code that pins an explicit
    // count did so for a reason (tests proving shard-local properties).
    if (const char* env = std::getenv("VITRI_POOL_SHARDS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && v > 0) n = static_cast<size_t>(v);
    }
  }
  if (n == 0) n = std::clamp<size_t>(capacity / 8, 1, 8);
  return std::clamp<size_t>(n, 1, capacity);
}

Status PoolInvariantViolation(const std::string& what) {
  return Status::Internal("buffer pool invariant violated: " + what);
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : BufferPool(pager, capacity, BufferPoolOptions{}) {}

BufferPool::BufferPool(Pager* pager, size_t capacity,
                       const BufferPoolOptions& options)
    : pager_(pager),
      capacity_(capacity == 0 ? 1 : capacity),
      options_(options) {
  VITRI_CHECK(pager->page_size() > kPageFooterSize)
      << "page size must leave room for the integrity footer";
  const size_t num_shards = ResolveShardCount(capacity_, options_);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    // Spread the frames as evenly as integer division allows.
    const size_t frames =
        capacity_ / num_shards + (i < capacity_ % num_shards ? 1 : 0);
    shard->frames.resize(frames);
    for (Frame& f : shard->frames) f.data.resize(pager_->page_size());
    shard->free_list.reserve(frames);
    // Reversed so pop_back hands out slot 0 first.
    for (size_t slot = frames; slot > 0; --slot) {
      shard->free_list.push_back(slot - 1);
    }
    shard->replacer = ClockReplacer(frames);
    shards_.push_back(std::move(shard));
  }
  if (options_.prefetch_threads > 0) {
    prefetch_pool_ = std::make_unique<ThreadPool>(options_.prefetch_threads);
  }
}

BufferPool::~BufferPool() {
  DrainPrefetches();
  prefetch_pool_.reset();  // Joins the workers; no loads in flight after.
  const Status s = FlushAll();
  if (!s.ok()) {
    VITRI_LOG(kError) << "BufferPool flush on destruction failed: "
                      << s.ToString();
  }
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  Shard& s = ShardFor(id);
  ++s.stats.logical_reads;
  VITRI_ASSIGN_OR_RETURN(uint8_t * data, LoadPage(s, id, /*demand=*/true));
  return PageRef(this, id, data);
}

Result<PageRef> BufferPool::New() {
  // The pager is thread-safe; no pool latch is needed around Allocate.
  VITRI_ASSIGN_OR_RETURN(const PageId id, pager_->Allocate());
  Shard& s = ShardFor(id);
  ++s.stats.allocations;
  VITRI_ASSIGN_OR_RETURN(const size_t slot, ClaimSlot(s));
  Frame& f = s.frames[slot];
  MutexLock lock(s.latch);
  // Freshly allocated ids are unpublished: no concurrent fetch, load, or
  // eviction can name this page yet.
  VITRI_DCHECK(s.table.find(id) == s.table.end())
      << "freshly allocated page " << id << " already had a frame";
  f.id = id;
  f.pin_count = 1;
  f.dirty = true;
  f.loading = false;
  f.prefetched = false;
  std::fill(f.data.begin(), f.data.end(), 0);
  s.table.emplace(id, slot);
  VITRI_DCHECK_OK(ValidateShardLocked(s));
  return PageRef(this, id, f.data.data());
}

void BufferPool::Prefetch(PageId id) {
  if (options_.readahead_pages == 0 || id == kInvalidPageId) return;
  Shard& s = ShardFor(id);
  {
    MutexLock lock(s.latch);
    if (s.table.find(id) != s.table.end()) return;  // Already resident.
  }
  pager_->WillNeed(id, options_.readahead_pages);
  ++s.stats.prefetch_issued;
  if (prefetch_pool_ == nullptr) return;
  {
    MutexLock lock(prefetch_mu_);
    ++prefetch_outstanding_;
  }
  prefetch_pool_->Submit([this, id] {
    PrefetchLoad(id);
    MutexLock lock(prefetch_mu_);
    if (--prefetch_outstanding_ == 0) prefetch_cv_.NotifyAll();
  });
}

void BufferPool::PrefetchLoad(PageId id) {
  // Best-effort by design: a full shard, an I/O error, or a checksum
  // mismatch just means the demand fetch does the work (and surfaces
  // the error, if it persists) — a prefetch must never fail a query.
  (void)LoadPage(ShardFor(id), id, /*demand=*/false);
}

void BufferPool::DrainPrefetches() {
  if (prefetch_pool_ == nullptr) return;
  MutexLock lock(prefetch_mu_);
  while (prefetch_outstanding_ > 0) prefetch_cv_.Wait(lock);
}

Result<uint8_t*> BufferPool::LoadPage(Shard& s, PageId id, bool demand) {
  for (;;) {
    {
      MutexLock lock(s.latch);
      for (;;) {
        auto it = s.table.find(id);
        if (it != s.table.end() && s.frames[it->second].loading) {
          // Another thread is filling the frame; its bytes are not
          // ours to look at yet.
          s.cv.Wait(lock);
          continue;
        }
        if (it == s.table.end() && s.evicting.count(id) > 0) {
          // Mid-writeback: re-reading now would resurrect the stale
          // on-disk version of the page. Wait for the write to land.
          s.cv.Wait(lock);
          continue;
        }
        break;
      }
      auto it = s.table.find(id);
      if (it != s.table.end()) {
        Frame& f = s.frames[it->second];
        if (!demand) return f.data.data();  // Resident; prefetch is done.
        ++s.stats.cache_hits;
        if (f.prefetched) {
          f.prefetched = false;
          ++s.stats.prefetch_hits;
        }
        if (f.pin_count == 0) s.replacer.Pin(it->second);
        ++f.pin_count;
        return f.data.data();
      }
    }

    // Miss. Claim a slot (ClaimSlot may drop into write-back I/O).
    VITRI_ASSIGN_OR_RETURN(const size_t slot, ClaimSlot(s));
    Frame& f = s.frames[slot];
    {
      MutexLock lock(s.latch);
      if (s.table.count(id) > 0 || s.evicting.count(id) > 0) {
        // Raced with another loader (or a fresh evictor) of the same
        // page while unlatched; hand the slot back and resolve via the
        // hit/wait path above.
        s.free_list.push_back(slot);
        continue;
      }
      f.id = id;
      f.pin_count = 1;  // The load itself holds a pin, demand or not.
      f.dirty = false;
      f.loading = true;
      f.prefetched = false;
      s.table.emplace(id, slot);
      ++s.stats.physical_reads;
    }

    // The transfer runs unlatched; `loading` marks the bytes as ours.
    const Status read = pager_->Read(id, f.data.data());
    const Status status =
        read.ok() ? VerifyPageFooter(f.data.data(), pager_->page_size(), id)
                  : read;

    MutexLock lock(s.latch);
    f.loading = false;
    if (!status.ok()) {
      if (read.ok()) {
        ++s.stats.checksum_failures;
        s.corrupt.insert(id);
      }
      s.table.erase(id);
      f.id = kInvalidPageId;
      f.pin_count = 0;
      s.free_list.push_back(slot);
      s.cv.NotifyAll();
      return status;
    }
    if (!demand) {
      f.pin_count = 0;
      f.prefetched = true;
      s.replacer.Unpin(slot);
    }
    s.cv.NotifyAll();
    VITRI_DCHECK_OK(ValidateShardLocked(s));
    return f.data.data();
  }
}

Result<size_t> BufferPool::ClaimSlot(Shard& s) {
  size_t victim = 0;
  PageId victim_id = kInvalidPageId;
  {
    MutexLock lock(s.latch);
    if (!s.free_list.empty()) {
      const size_t slot = s.free_list.back();
      s.free_list.pop_back();
      return slot;
    }
    if (!s.replacer.Victim(&victim)) {
      return Status::ResourceExhausted(
          "buffer pool full and every frame is pinned");
    }
    Frame& vf = s.frames[victim];
    victim_id = vf.id;
    s.table.erase(victim_id);
    if (!vf.dirty) {
      vf.id = kInvalidPageId;
      vf.prefetched = false;
      ++s.stats.evictions;
      return victim;
    }
    s.evicting.insert(victim_id);
  }

  // Dirty victim: stamp and write outside the latch. The frame is in no
  // structure and the page id is parked in `evicting`, so this thread
  // owns both until the relatch below.
  Frame& vf = s.frames[victim];
  StampPageFooter(vf.data.data(), pager_->page_size(), victim_id);
  ++s.stats.physical_writes;
  const Status written = pager_->Write(victim_id, vf.data.data());

  MutexLock lock(s.latch);
  s.evicting.erase(victim_id);
  s.cv.NotifyAll();
  if (!written.ok()) {
    // The frame holds the only up-to-date copy of the page; reinstall
    // it unpinned-dirty rather than lose the write.
    s.table.emplace(victim_id, victim);
    s.replacer.Unpin(victim);
    return written;
  }
  vf.dirty = false;
  vf.id = kInvalidPageId;
  vf.prefetched = false;
  ++s.stats.evictions;
  return victim;
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.latch);
    for (auto& [id, slot] : s.table) {
      VITRI_RETURN_IF_ERROR(WriteBackLocked(s, s.frames[slot]));
    }
  }
  if (!options_.sync_on_flush) return Status::OK();
  VITRI_METRIC_COUNTER("storage.pool.syncs")->Increment();
  return pager_->Sync();
}

Status BufferPool::EvictAll() {
  DrainPrefetches();
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.latch);
    for (auto it = s.table.begin(); it != s.table.end();) {
      const size_t slot = it->second;
      Frame& f = s.frames[slot];
      if (f.pin_count > 0) {
        ++it;
        continue;
      }
      VITRI_RETURN_IF_ERROR(WriteBackLocked(s, f));
      s.replacer.Pin(slot);
      f.id = kInvalidPageId;
      f.prefetched = false;
      s.free_list.push_back(slot);
      it = s.table.erase(it);
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(PageId id, bool dirty) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.latch);
  auto it = s.table.find(id);
  VITRI_CHECK(it != s.table.end()) << "unpin of unknown page " << id;
  Frame& f = s.frames[it->second];
  VITRI_CHECK(f.pin_count > 0) << "unpin of unpinned page " << id;
  if (dirty) f.dirty = true;
  if (--f.pin_count == 0) s.replacer.Unpin(it->second);
  VITRI_DCHECK_OK(ValidateShardLocked(s));
}

Status BufferPool::WriteBackLocked(Shard& s, Frame& frame) {
  if (!frame.dirty) return Status::OK();
  ++s.stats.physical_writes;
  StampPageFooter(frame.data.data(), pager_->page_size(), frame.id);
  VITRI_RETURN_IF_ERROR(pager_->Write(frame.id, frame.data.data()));
  frame.dirty = false;
  return Status::OK();
}

IoSnapshot BufferPool::StatsSnapshot() const {
  IoSnapshot total = external_stats_.Snapshot();
  for (const auto& shard : shards_) total = total + shard->stats.Snapshot();
  return total;
}

IoStats BufferPool::stats() const {
  IoStats out;
  RestoreIoStats(&out, StatsSnapshot());
  return out;
}

std::vector<IoSnapshot> BufferPool::ShardSnapshots() const {
  std::vector<IoSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats.Snapshot());
  return out;
}

BufferPool::StatsSave BufferPool::SaveStats() const {
  StatsSave save;
  save.shards = ShardSnapshots();
  save.external = external_stats_.Snapshot();
  return save;
}

void BufferPool::RestoreStats(const StatsSave& saved) {
  VITRI_CHECK(saved.shards.size() == shards_.size())
      << "stats save from a pool with a different shard count";
  for (size_t i = 0; i < shards_.size(); ++i) {
    RestoreIoStats(&shards_[i]->stats, saved.shards[i]);
  }
  RestoreIoStats(&external_stats_, saved.external);
}

std::set<PageId> BufferPool::corrupt_pages() const {
  std::set<PageId> out;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    MutexLock lock(s.latch);
    out.insert(s.corrupt.begin(), s.corrupt.end());
  }
  return out;
}

void BufferPool::ClearCorruptPages() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.latch);
    s.corrupt.clear();
  }
}

size_t BufferPool::resident() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    MutexLock lock(s.latch);
    total += s.table.size();
  }
  return total;
}

Status BufferPool::ValidateInvariants() const {
  if (capacity_ < 1) {
    return PoolInvariantViolation("capacity must be >= 1");
  }
  size_t frames_total = 0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    frames_total += s.frames.size();
    MutexLock lock(s.latch);
    VITRI_RETURN_IF_ERROR(ValidateShardLocked(s));
  }
  if (frames_total != capacity_) {
    return PoolInvariantViolation(
        "shard frame counts sum to " + std::to_string(frames_total) +
        ", not the capacity " + std::to_string(capacity_));
  }
  const IoSnapshot totals = StatsSnapshot();
  if (totals.cache_hits > totals.logical_reads) {
    return PoolInvariantViolation("more cache hits than logical reads");
  }
  return Status::OK();
}

Status BufferPool::ValidateShardLocked(const Shard& s) const {
  const std::string where = "shard " + std::to_string(s.index) + ": ";
  if (s.frames.empty()) {
    return PoolInvariantViolation(where + "owns no frames");
  }
  if (s.table.size() > s.frames.size()) {
    return PoolInvariantViolation(
        where + "resident pages (" + std::to_string(s.table.size()) +
        ") exceed the shard's frames (" + std::to_string(s.frames.size()) +
        ")");
  }

  // Each slot sits in at most one structure. (A slot in neither is a
  // frame mid-claim by an in-flight operation; exactly zero of those
  // exist under the validator's exclusive-access contract, but the
  // DCHECK validations that run inside concurrent operations must
  // tolerate them.)
  std::vector<char> seen(s.frames.size(), 0);
  size_t unpinned_resident = 0;
  for (const auto& [id, slot] : s.table) {
    if (slot >= s.frames.size()) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " maps to slot " + std::to_string(slot) +
                                    " beyond the frame array");
    }
    if (seen[slot]++) {
      return PoolInvariantViolation(where + "slot " + std::to_string(slot) +
                                    " is mapped by two pages");
    }
    const Frame& f = s.frames[slot];
    if (f.id != id) {
      return PoolInvariantViolation(
          where + "frame keyed " + std::to_string(id) +
          " believes it is page " + std::to_string(f.id));
    }
    if (id % shards_.size() != s.index) {
      return PoolInvariantViolation(
          "page " + std::to_string(id) + " is resident in shard " +
          std::to_string(s.index) + " but its home shard is " +
          std::to_string(id % shards_.size()));
    }
    if (f.data.size() != pager_->page_size()) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " buffer size mismatch");
    }
    if (id >= pager_->num_pages()) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " is beyond the pager's extent");
    }
    if (f.pin_count < 0) {
      return PoolInvariantViolation(where + "page " + std::to_string(id) +
                                    " has a negative pin count");
    }
    if (f.pin_count == 0) {
      ++unpinned_resident;
      if (!s.replacer.Contains(slot)) {
        return PoolInvariantViolation(
            where + "unpinned page " + std::to_string(id) +
            " is missing from the replacer");
      }
    } else if (s.replacer.Contains(slot)) {
      return PoolInvariantViolation(
          "replacer holds a candidate entry for pinned page " +
          std::to_string(id) + " in shard " + std::to_string(s.index));
    }
  }

  for (const size_t slot : s.free_list) {
    if (slot >= s.frames.size()) {
      return PoolInvariantViolation(where + "free slot " +
                                    std::to_string(slot) +
                                    " beyond the frame array");
    }
    if (seen[slot]++) {
      return PoolInvariantViolation(where + "slot " + std::to_string(slot) +
                                    " is both free and mapped");
    }
    const Frame& f = s.frames[slot];
    if (f.id != kInvalidPageId || f.pin_count != 0 || f.dirty) {
      return PoolInvariantViolation(where + "free slot " +
                                    std::to_string(slot) +
                                    " holds a live frame");
    }
    if (s.replacer.Contains(slot)) {
      return PoolInvariantViolation(where + "free slot " +
                                    std::to_string(slot) +
                                    " is a replacer candidate");
    }
  }

  if (s.replacer.size() != unpinned_resident) {
    return PoolInvariantViolation(
        where + "replacer tracks " + std::to_string(s.replacer.size()) +
        " candidates but " + std::to_string(unpinned_resident) +
        " resident frames are unpinned");
  }

  if (s.stats.cache_hits.load(std::memory_order_relaxed) >
      s.stats.logical_reads.load(std::memory_order_relaxed)) {
    return PoolInvariantViolation(where +
                                  "more cache hits than logical reads");
  }
  return Status::OK();
}

}  // namespace vitri::storage
