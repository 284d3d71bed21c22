#include "storage/io_stats.h"

#include <sstream>

#include "common/json.h"

namespace vitri::storage {

IoSnapshot IoStats::Snapshot() const {
  IoSnapshot s;
  s.logical_reads = logical_reads.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits.load(std::memory_order_relaxed);
  s.physical_reads = physical_reads.load(std::memory_order_relaxed);
  s.physical_writes = physical_writes.load(std::memory_order_relaxed);
  s.allocations = allocations.load(std::memory_order_relaxed);
  s.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
  s.retries = retries.load(std::memory_order_relaxed);
  s.evictions = evictions.load(std::memory_order_relaxed);
  s.prefetch_issued = prefetch_issued.load(std::memory_order_relaxed);
  s.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
  return s;
}

IoStats IoStats::operator-(const IoStats& rhs) const {
  // Delta arithmetic happens on plain snapshots; only the result is
  // rematerialized as atomics (for callers that still expect IoStats).
  const IoSnapshot delta = Snapshot() - rhs.Snapshot();
  IoStats out;
  RestoreIoStats(&out, delta);
  return out;
}

void RestoreIoStats(IoStats* stats, const IoSnapshot& saved) {
  stats->logical_reads.store(saved.logical_reads,
                             std::memory_order_relaxed);
  stats->cache_hits.store(saved.cache_hits, std::memory_order_relaxed);
  stats->physical_reads.store(saved.physical_reads,
                              std::memory_order_relaxed);
  stats->physical_writes.store(saved.physical_writes,
                               std::memory_order_relaxed);
  stats->allocations.store(saved.allocations, std::memory_order_relaxed);
  stats->checksum_failures.store(saved.checksum_failures,
                                 std::memory_order_relaxed);
  stats->retries.store(saved.retries, std::memory_order_relaxed);
  stats->evictions.store(saved.evictions, std::memory_order_relaxed);
  stats->prefetch_issued.store(saved.prefetch_issued,
                               std::memory_order_relaxed);
  stats->prefetch_hits.store(saved.prefetch_hits,
                             std::memory_order_relaxed);
}

void WriteIoSnapshotFields(const IoSnapshot& s, json::JsonWriter* w) {
  w->Key("logical_reads");
  w->Uint(s.logical_reads);
  w->Key("cache_hits");
  w->Uint(s.cache_hits);
  w->Key("physical_reads");
  w->Uint(s.physical_reads);
  w->Key("physical_writes");
  w->Uint(s.physical_writes);
  w->Key("allocations");
  w->Uint(s.allocations);
  w->Key("checksum_failures");
  w->Uint(s.checksum_failures);
  w->Key("retries");
  w->Uint(s.retries);
  w->Key("evictions");
  w->Uint(s.evictions);
  w->Key("prefetch_issued");
  w->Uint(s.prefetch_issued);
  w->Key("prefetch_hits");
  w->Uint(s.prefetch_hits);
}

ScopedIoStatsRestore::ScopedIoStatsRestore(IoStats* stats)
    : stats_(stats), saved_(stats->Snapshot()) {}

ScopedIoStatsRestore::~ScopedIoStatsRestore() {
  RestoreIoStats(stats_, saved_);
}

namespace {

std::string CountersToString(const IoSnapshot& s) {
  std::ostringstream os;
  os << "logical_reads=" << s.logical_reads
     << " cache_hits=" << s.cache_hits
     << " physical_reads=" << s.physical_reads
     << " physical_writes=" << s.physical_writes
     << " allocations=" << s.allocations
     << " checksum_failures=" << s.checksum_failures
     << " retries=" << s.retries
     << " evictions=" << s.evictions
     << " prefetch_issued=" << s.prefetch_issued
     << " prefetch_hits=" << s.prefetch_hits;
  return os.str();
}

}  // namespace

std::string IoStats::ToString() const { return CountersToString(Snapshot()); }

std::string IoSnapshot::ToString() const { return CountersToString(*this); }

}  // namespace vitri::storage
