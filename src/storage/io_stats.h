#ifndef VITRI_STORAGE_IO_STATS_H_
#define VITRI_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace vitri::json {
class JsonWriter;
}  // namespace vitri::json

namespace vitri::storage {

/// Counters describing page traffic. "Logical" events are buffer-pool
/// fetches (what the paper's I/O-cost figures count as page accesses);
/// "physical" events are transfers that actually hit the backing pager.
///
/// Every counter is an atomic: increments from concurrent queries
/// (BatchKnn fan-out, parallel ingest) never race, so the save/restore
/// trick the ValidateInvariants() implementations use stays clean under
/// ThreadSanitizer. Copying or subtracting an IoStats reads each counter
/// with relaxed ordering — the copy is a per-field snapshot, not a
/// globally consistent one, which is all cost reporting needs. Restoring
/// saved counters (operator=) while *other* threads are mid-query would
/// silently drop their increments; callers that save/restore (the
/// invariant validators) therefore require exclusive access — see
/// DESIGN.md "Threading model".
struct IoStats {
  std::atomic<uint64_t> logical_reads{0};   // Buffer-pool fetches.
  std::atomic<uint64_t> cache_hits{0};      // Served without pager I/O.
  std::atomic<uint64_t> physical_reads{0};  // Pager reads.
  std::atomic<uint64_t> physical_writes{0};  // Pager writes.
  std::atomic<uint64_t> allocations{0};      // Newly allocated pages.
  std::atomic<uint64_t> checksum_failures{0};  // Footer-rejected reads.
  std::atomic<uint64_t> retries{0};  // Transient-IoError retries (see
                                     // storage/retry_pager.h).
  std::atomic<uint64_t> evictions{0};  // Frames recycled by the replacer.
  std::atomic<uint64_t> prefetch_issued{0};  // Readahead hints acted on.
  std::atomic<uint64_t> prefetch_hits{0};  // Fetches served by a frame a
                                           // prefetch loaded.

  IoStats() = default;
  IoStats(const IoStats& rhs) { *this = rhs; }
  IoStats& operator=(const IoStats& rhs) {
    logical_reads.store(rhs.logical_reads.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    cache_hits.store(rhs.cache_hits.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    physical_reads.store(rhs.physical_reads.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    physical_writes.store(
        rhs.physical_writes.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    allocations.store(rhs.allocations.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    checksum_failures.store(
        rhs.checksum_failures.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    retries.store(rhs.retries.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    evictions.store(rhs.evictions.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    prefetch_issued.store(
        rhs.prefetch_issued.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    prefetch_hits.store(rhs.prefetch_hits.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  void Reset() { *this = IoStats{}; }

  /// Per-field relaxed snapshot as plain integers (see IoSnapshot).
  /// All delta arithmetic and save/restore goes through snapshots, so
  /// there is exactly one audited load site for every counter.
  struct IoSnapshot Snapshot() const;

  IoStats operator-(const IoStats& rhs) const;

  std::string ToString() const;
};

/// Plain-integer copy of an IoStats: the value type for deltas, query
/// traces, and the validators' save/restore. Field-wise arithmetic on
/// snapshots cannot race (no atomics), which is why every derived
/// quantity is computed here rather than on live counters.
struct IoSnapshot {
  uint64_t logical_reads = 0;
  uint64_t cache_hits = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t allocations = 0;
  uint64_t checksum_failures = 0;
  uint64_t retries = 0;
  uint64_t evictions = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;

  /// Field-wise sum: how a sharded pool's per-shard snapshots fold into
  /// one total (each addend is a plain integer, so totals never tear).
  IoSnapshot operator+(const IoSnapshot& rhs) const {
    IoSnapshot out;
    out.logical_reads = logical_reads + rhs.logical_reads;
    out.cache_hits = cache_hits + rhs.cache_hits;
    out.physical_reads = physical_reads + rhs.physical_reads;
    out.physical_writes = physical_writes + rhs.physical_writes;
    out.allocations = allocations + rhs.allocations;
    out.checksum_failures = checksum_failures + rhs.checksum_failures;
    out.retries = retries + rhs.retries;
    out.evictions = evictions + rhs.evictions;
    out.prefetch_issued = prefetch_issued + rhs.prefetch_issued;
    out.prefetch_hits = prefetch_hits + rhs.prefetch_hits;
    return out;
  }

  IoSnapshot operator-(const IoSnapshot& rhs) const {
    IoSnapshot out;
    out.logical_reads = logical_reads - rhs.logical_reads;
    out.cache_hits = cache_hits - rhs.cache_hits;
    out.physical_reads = physical_reads - rhs.physical_reads;
    out.physical_writes = physical_writes - rhs.physical_writes;
    out.allocations = allocations - rhs.allocations;
    out.checksum_failures = checksum_failures - rhs.checksum_failures;
    out.retries = retries - rhs.retries;
    out.evictions = evictions - rhs.evictions;
    out.prefetch_issued = prefetch_issued - rhs.prefetch_issued;
    out.prefetch_hits = prefetch_hits - rhs.prefetch_hits;
    return out;
  }
  bool operator==(const IoSnapshot&) const = default;

  std::string ToString() const;
};

/// Writes every field of `s` as a key/value pair into the JSON object
/// `w` has open: the one encoding of pool counters in traces and stats.
void WriteIoSnapshotFields(const IoSnapshot& s, json::JsonWriter* w);

/// Writes a snapshot's values back into live counters. Like IoStats
/// assignment, this silently drops increments from concurrently running
/// threads — callers require exclusive access to the pool.
void RestoreIoStats(IoStats* stats, const IoSnapshot& saved);

/// The audited save/restore helper: captures `stats` on construction
/// and restores it on destruction, making the enclosed scope invisible
/// to I/O cost accounting. This is the ONLY sanctioned way to run
/// bookkeeping reads (invariant validation, tracing probes) without
/// skewing the page-access counts the experiments report. Requires
/// exclusive access to the pool for the scope's lifetime (see the
/// IoStats restore caveat above).
class ScopedIoStatsRestore {
 public:
  explicit ScopedIoStatsRestore(IoStats* stats);
  ~ScopedIoStatsRestore();

  ScopedIoStatsRestore(const ScopedIoStatsRestore&) = delete;
  ScopedIoStatsRestore& operator=(const ScopedIoStatsRestore&) = delete;

  /// The counter values at construction time.
  const IoSnapshot& saved() const { return saved_; }

 private:
  IoStats* stats_;
  IoSnapshot saved_;
};

}  // namespace vitri::storage

#endif  // VITRI_STORAGE_IO_STATS_H_
