#ifndef VITRI_CORE_RECOVERY_H_
#define VITRI_CORE_RECOVERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/vitri.h"

namespace vitri::core {

// On-disk layout of a durable index directory (DESIGN.md §13):
//
//   CURRENT            names the active generation G (atomic pointer:
//                      written via tmp + rename + dir fsync)
//   snapshot-<G>.vsnp  checkpoint snapshot of generation G's contents
//   wal-<G>.vlog       inserts committed since that checkpoint
//
// A checkpoint creates generation G+1's files first and flips CURRENT
// last, so a crash at any point leaves CURRENT naming a complete
// (snapshot, wal) pair; orphaned files of unfinished generations are
// garbage-collected on the next open. The pairing also makes replay
// idempotent across checkpoints without snapshot-format changes: a WAL
// is only ever replayed onto the snapshot it was created against.

inline constexpr char kCurrentFileName[] = "CURRENT";

std::string SnapshotFileName(uint64_t generation);
std::string WalFileName(uint64_t generation);

/// Reads the generation named by `dir`/CURRENT. NotFound when the file
/// does not exist (no durable index there), Corruption when unparsable.
Result<uint64_t> ReadCurrentFile(const std::string& dir);

/// Atomically replaces `dir`/`name` with `body`: tmp file + fsync +
/// rename + directory fsync, so a crash leaves the old or the new file,
/// never a torn one. CURRENT and the sharded index's SHARDS manifest
/// are both written this way.
Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           const std::string& body);

/// Atomically points `dir`/CURRENT at `generation`.
Status WriteCurrentFile(const std::string& dir, uint64_t generation);

/// Removes snapshot/wal files of every generation other than `keep`,
/// plus stray .tmp/.pending intermediates. Best-effort on individual
/// unlinks; returns the first directory-level error.
Status RemoveStaleDurableFiles(const std::string& dir, uint64_t keep);

/// One decoded insert WAL record.
struct InsertWalRecord {
  uint32_t video_id = 0;
  uint32_t num_frames = 0;
  std::vector<ViTri> vitris;
};

/// Payload codec for insert records: u32 video_id, u32 num_frames,
/// u32 count, then `count` serialized ViTris (fixed size given the
/// dimension). Exposed for tests that build or dissect logs by hand.
void EncodeInsertWalRecord(uint32_t video_id, uint32_t num_frames,
                           const std::vector<ViTri>& vitris,
                           std::vector<uint8_t>* out);
Result<InsertWalRecord> DecodeInsertWalRecord(
    std::span<const uint8_t> payload, int dimension);

}  // namespace vitri::core

#endif  // VITRI_CORE_RECOVERY_H_
