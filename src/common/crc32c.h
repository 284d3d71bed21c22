#ifndef VITRI_COMMON_CRC32C_H_
#define VITRI_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace vitri {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected). The same
/// checksum iSCSI, ext4 and LevelDB/RocksDB use for on-disk integrity;
/// chosen over CRC-32 for its better error-detection properties on
/// storage-sized blocks.

/// Extends `crc` (a previous return value of Crc32c/Crc32cExtend, or 0
/// for a fresh stream) with `n` more bytes. Streaming-composable:
/// Crc32cExtend(Crc32c(a, n), b, m) == Crc32c(concat(a, b), n + m).
/// Runs on the SSE4.2 `crc32` instruction where the CPU has it and on a
/// slicing-by-4 table otherwise, chosen once per process; both compute
/// the same function bit for bit.
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n);

/// The implementation Crc32cExtend runs on: "sse4.2" or "portable".
const char* Crc32cBackendName();

/// One-shot checksum of a byte buffer.
inline uint32_t Crc32c(const uint8_t* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace vitri

#endif  // VITRI_COMMON_CRC32C_H_
