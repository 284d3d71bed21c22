#include "core/recovery.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "common/annotated_lock.h"
#include "common/os.h"

#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/index.h"
#include "core/snapshot.h"
#include "storage/posix_io.h"
#include "storage/wal.h"

namespace vitri::core {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Opens the WalFile backing generation `gen`, through the test factory
/// when one is configured.
Result<std::unique_ptr<storage::WalFile>> OpenWalFileFor(
    const DurabilityOptions& dur, const std::string& dir, uint64_t gen) {
  const std::string path = dir + "/" + WalFileName(gen);
  if (dur.wal_file_factory) {
    return dur.wal_file_factory(path);
  }
  VITRI_ASSIGN_OR_RETURN(std::unique_ptr<storage::PosixWalFile> file,
                         storage::PosixWalFile::Open(path, dur.wal.file_sync));
  return std::unique_ptr<storage::WalFile>(std::move(file));
}

}  // namespace

std::string SnapshotFileName(uint64_t generation) {
  return "snapshot-" + std::to_string(generation) + ".vsnp";
}

std::string WalFileName(uint64_t generation) {
  return "wal-" + std::to_string(generation) + ".vlog";
}

Result<uint64_t> ReadCurrentFile(const std::string& dir) {
  const std::string path = dir + "/" + kCurrentFileName;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no durable index at " + dir +
                            " (missing CURRENT)");
  }
  char buf[64];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buf, &end, 10);
  if (end == buf || errno != 0 || value == 0) {
    return Status::Corruption("unparsable CURRENT file in " + dir);
  }
  return static_cast<uint64_t>(value);
}

Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           const std::string& body) {
  const std::string path = dir + "/" + name;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + tmp + " for writing");
  }
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
      std::fflush(f) == 0;
  Status synced = wrote ? storage::SyncFd(::fileno(f),
                                          storage::FileSyncMode::kFsync)
                        : Status::IoError("short write to " + tmp);
  std::fclose(f);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename to " + path + " failed");
  }
  return storage::SyncDir(dir);
}

Status WriteCurrentFile(const std::string& dir, uint64_t generation) {
  return WriteFileAtomically(dir, kCurrentFileName,
                             std::to_string(generation) + "\n");
}

Status RemoveStaleDurableFiles(const std::string& dir, uint64_t keep) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot list " + dir + ": " + ErrnoString(errno));
  }
  const std::string keep_snapshot = SnapshotFileName(keep);
  const std::string keep_wal = WalFileName(keep);
  // readdir is safe here: POSIX only forbids sharing one DIR* across
  // threads, and this stream is local to the call.
  while (struct dirent* entry = ::readdir(d)) {  // NOLINT(concurrency-mt-unsafe)
    const std::string name = entry->d_name;
    if (name == "." || name == ".." || name == kCurrentFileName ||
        name == keep_snapshot || name == keep_wal) {
      continue;
    }
    const bool intermediate =
        EndsWith(name, ".tmp") || EndsWith(name, ".pending");
    const bool other_generation =
        (StartsWith(name, "snapshot-") && EndsWith(name, ".vsnp")) ||
        (StartsWith(name, "wal-") && EndsWith(name, ".vlog"));
    if (!intermediate && !other_generation) continue;
    // Best-effort: a stale file that survives is re-collected next time.
    if (::unlink((dir + "/" + name).c_str()) != 0 && errno != ENOENT) {
      VITRI_LOG(kWarn) << "could not remove stale durable file " << dir
                       << "/" << name << ": " << ErrnoString(errno);
    }
  }
  ::closedir(d);
  return Status::OK();
}

void EncodeInsertWalRecord(uint32_t video_id, uint32_t num_frames,
                           const std::vector<ViTri>& vitris,
                           std::vector<uint8_t>* out) {
  out->assign(12, 0);
  EncodeU32(out->data(), video_id);
  EncodeU32(out->data() + 4, num_frames);
  EncodeU32(out->data() + 8, static_cast<uint32_t>(vitris.size()));
  std::vector<uint8_t> buffer;
  for (const ViTri& v : vitris) {
    v.Serialize(&buffer);
    out->insert(out->end(), buffer.begin(), buffer.end());
  }
}

Result<InsertWalRecord> DecodeInsertWalRecord(
    std::span<const uint8_t> payload, int dimension) {
  if (payload.size() < 12) {
    return Status::Corruption("insert WAL record too short");
  }
  InsertWalRecord record;
  record.video_id = DecodeU32(payload.data());
  record.num_frames = DecodeU32(payload.data() + 4);
  const uint32_t count = DecodeU32(payload.data() + 8);
  const size_t each = ViTri::SerializedSize(dimension);
  if (count > payload.size() ||
      payload.size() != 12 + static_cast<size_t>(count) * each) {
    return Status::Corruption("insert WAL record size mismatch");
  }
  record.vitris.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    VITRI_ASSIGN_OR_RETURN(
        ViTri v,
        ViTri::Deserialize(payload.subspan(12 + i * each, each), dimension));
    record.vitris.push_back(std::move(v));
  }
  return record;
}

// --- ViTriIndex durable-ingest methods ------------------------------

Status ViTriIndex::MaybeCrash(std::string_view point) {
  if (dur_.crash_hook && dur_.crash_hook(point)) {
    VITRI_METRIC_COUNTER("index.simulated_crashes")->Increment();
    return Status::IoError("simulated power failure at " +
                           std::string(point));
  }
  return Status::OK();
}

Status ViTriIndex::WalLogInsert(const std::vector<uint8_t>& payload) {
  VITRI_RETURN_IF_ERROR(MaybeCrash("insert.wal.append"));
  VITRI_RETURN_IF_ERROR(wal_->Append(payload));
  VITRI_RETURN_IF_ERROR(MaybeCrash("insert.wal.commit"));
  return wal_->Commit();
}

Status ViTriIndex::RotateGenerationLocked() {
  const uint64_t next = generation_ + 1;
  VITRI_RETURN_IF_ERROR(MaybeCrash("checkpoint.begin"));

  // 1. Write the new snapshot under a .pending name (itself built
  //    crash-atomically via tmp + fsync + rename), then publish it.
  //    The two-step keeps "bytes durable" and "name visible" as
  //    distinct crash points.
  const std::string snapshot = dur_dir_ + "/" + SnapshotFileName(next);
  const std::string pending = snapshot + ".pending";
  VITRI_RETURN_IF_ERROR(SaveViTriSet(SnapshotLocked(), pending));
  VITRI_RETURN_IF_ERROR(MaybeCrash("checkpoint.snapshot.rename"));
  if (std::rename(pending.c_str(), snapshot.c_str()) != 0) {
    std::remove(pending.c_str());
    return Status::IoError("rename to " + snapshot + " failed");
  }
  VITRI_RETURN_IF_ERROR(storage::SyncDir(dur_dir_));

  // 2. Create the generation's empty WAL. An orphan left by an earlier
  //    interrupted checkpoint is truncated: its contents were never
  //    reachable through CURRENT.
  VITRI_RETURN_IF_ERROR(MaybeCrash("checkpoint.wal.create"));
  VITRI_ASSIGN_OR_RETURN(std::unique_ptr<storage::WalFile> file,
                         OpenWalFileFor(dur_, dur_dir_, next));
  if (file->size() != 0) {
    VITRI_RETURN_IF_ERROR(file->Truncate(0));
  }
  VITRI_RETURN_IF_ERROR(storage::SyncDir(dur_dir_));

  // 3. Flip CURRENT — the atomic commit point of the checkpoint. Before
  //    it, recovery sees the old (snapshot, wal) pair; after, the new.
  VITRI_RETURN_IF_ERROR(MaybeCrash("checkpoint.current"));
  VITRI_RETURN_IF_ERROR(WriteCurrentFile(dur_dir_, next));
  generation_ = next;
  wal_ = std::make_unique<storage::WalWriter>(std::move(file), dur_.wal,
                                              /*base_seqno=*/0);

  // 4. Collect the previous generation. Failure here is harmless: the
  //    stale files are unreachable and the next open re-collects them.
  VITRI_RETURN_IF_ERROR(MaybeCrash("checkpoint.gc"));
  return RemoveStaleDurableFiles(dur_dir_, next);
}

Status ViTriIndex::EnableDurability(const std::string& dir,
                                    DurabilityOptions durability) {
  WriterLock lock(*latch_);
  if (wal_ != nullptr) {
    return Status::InvalidArgument("index is already durable");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + dir + "): " + ErrnoString(errno));
  }
  dur_dir_ = dir;
  dur_ = std::move(durability);
  generation_ = 0;
  return RotateGenerationLocked();
}

Status ViTriIndex::Checkpoint() {
  WriterLock lock(*latch_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument("index is not durable");
  }
  VITRI_METRIC_COUNTER("index.checkpoints")->Increment();
  return RotateGenerationLocked();
}

Status ViTriIndex::SyncWal() {
  WriterLock lock(*latch_);
  if (wal_ == nullptr) return Status::OK();
  return wal_->Sync();
}

uint64_t ViTriIndex::wal_commits() const {
  ReaderLock lock(*latch_);
  return wal_ == nullptr ? 0 : wal_->commits();
}

uint64_t ViTriIndex::wal_durable_commits() const {
  ReaderLock lock(*latch_);
  return wal_ == nullptr ? 0 : wal_->durable_commits();
}

Result<ViTriIndex> ViTriIndex::Open(const std::string& dir,
                                    ViTriIndexOptions options,
                                    DurabilityOptions durability,
                                    RecoveryStats* stats) {
  VITRI_ASSIGN_OR_RETURN(uint64_t generation, ReadCurrentFile(dir));
  VITRI_ASSIGN_OR_RETURN(
      ViTriSet set, LoadViTriSet(dir + "/" + SnapshotFileName(generation)));
  // The snapshot is authoritative about the data's dimensionality.
  options.dimension = set.dimension;
  VITRI_ASSIGN_OR_RETURN(ViTriIndex index, Build(set, options));

  RecoveryStats recovered;
  recovered.generation = generation;
  recovered.snapshot_vitris = set.vitris.size();
  recovered.snapshot_videos = index.stored_videos();

  // The index is private to this thread until Open returns, so every
  // latch acquisition below is uncontended; the blocks exist to honor
  // the guarded-member contracts, not for mutual exclusion. The latch
  // is NOT held across ReplayWal — the apply lambda re-acquires it per
  // record, and shared_mutex does not nest on one thread.
  std::unique_ptr<storage::WalFile> file;
  {
    WriterLock lock(*index.latch_);
    index.dur_dir_ = dir;
    index.dur_ = std::move(durability);
    index.generation_ = generation;
    VITRI_ASSIGN_OR_RETURN(std::unique_ptr<storage::WalFile> opened,
                           OpenWalFileFor(index.dur_, dir, generation));
    file = std::move(opened);
  }
  const int dimension = index.options_.dimension;
  const auto apply = [&index, dimension](
                         uint64_t, std::span<const uint8_t> payload) {
    VITRI_ASSIGN_OR_RETURN(InsertWalRecord record,
                           DecodeInsertWalRecord(payload, dimension));
    WriterLock lock(*index.latch_);
    return index.ApplyInsert(record.video_id, record.num_frames,
                             record.vitris);
  };
  VITRI_ASSIGN_OR_RETURN(
      storage::WalReplayResult replay,
      storage::ReplayWal(file.get(), apply, /*repair=*/true));

  recovered.wal_commits_replayed = replay.commits;
  recovered.wal_records_applied = replay.records_applied;
  recovered.wal_records_discarded = replay.records_discarded;
  recovered.wal_bytes_discarded = replay.bytes_discarded;
  recovered.wal_torn_tail = replay.torn_tail;
  {
    WriterLock lock(*index.latch_);
    index.wal_ = std::make_unique<storage::WalWriter>(
        std::move(file), index.dur_.wal, /*base_seqno=*/replay.commits);
    recovered.recovered_vitris = index.vitris_.size();
    recovered.recovered_videos = index.stored_videos_;
  }

  // Orphans of checkpoints the crashed run never completed.
  VITRI_RETURN_IF_ERROR(RemoveStaleDurableFiles(dir, generation));
  if (stats != nullptr) *stats = recovered;
  VITRI_METRIC_COUNTER("index.recoveries")->Increment();
  VITRI_LOG(kInfo) << "recovered durable index at " << dir
                   << ": generation " << generation << ", "
                   << replay.commits << " WAL commits replayed"
                   << (replay.torn_tail ? " (torn tail repaired)" : "");
  return index;
}

}  // namespace vitri::core
