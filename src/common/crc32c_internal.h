#ifndef VITRI_COMMON_CRC32C_INTERNAL_H_
#define VITRI_COMMON_CRC32C_INTERNAL_H_

// The two CRC-32C implementations behind Crc32cExtend, exposed so tests
// and benchmarks can hold them against each other. Production code calls
// Crc32cExtend/Crc32c (common/crc32c.h), which dispatches once per
// process.

#include <cstddef>
#include <cstdint>

namespace vitri {

/// Bytes per stream in one round of the hardware path: three streams of
/// this many bytes run interleaved, then combine. Inputs shorter than
/// three blocks, and the tail after the last full round, run serially.
inline constexpr size_t kCrc32cHardwareBlock = 680;

/// Slicing-by-4 table implementation; runs on any CPU.
uint32_t Crc32cExtendPortable(uint32_t crc, const uint8_t* data, size_t n);

/// True if this CPU can run Crc32cExtendHardware (x86-64 with SSE4.2).
bool Crc32cHardwareAvailable();

/// SSE4.2 `crc32` implementation. Call only when
/// Crc32cHardwareAvailable(); on other targets it is the portable path.
uint32_t Crc32cExtendHardware(uint32_t crc, const uint8_t* data, size_t n);

}  // namespace vitri

#endif  // VITRI_COMMON_CRC32C_INTERNAL_H_
