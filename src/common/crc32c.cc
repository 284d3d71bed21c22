#include "common/crc32c.h"

#include <array>
#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define VITRI_CRC32C_X86 1
#include <immintrin.h>
#endif

namespace vitri {
namespace {

// Slicing-by-4: four 256-entry tables; table[0] is the classic
// byte-at-a-time table, table[k] advances a byte that sits k positions
// earlier in the stream. Generated at compile time.
constexpr uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected.

using Tables = std::array<std::array<uint32_t, 256>, 4>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 4; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

#if VITRI_CRC32C_X86

// Adler's zeros operator: feeding L zero bytes through the raw CRC
// register (no pre/post inversion) is a linear map over GF(2), so it is
// fully described by its image of each register byte. kShiftBlock[k][b]
// is the register after kCrc32cHardwareBlock zero bytes starting from
// b << 8k; each image is the XOR of the images of b's set bits.
constexpr Tables MakeShiftTable() {
  std::array<uint32_t, 32> bit_image{};
  for (int bit = 0; bit < 32; ++bit) {
    uint32_t c = 1u << bit;
    for (size_t i = 0; i < kCrc32cHardwareBlock; ++i) {
      c = (c >> 8) ^ kTables[0][c & 0xffu];
    }
    bit_image[static_cast<size_t>(bit)] = c;
  }
  Tables t{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t image = 0;
      for (int bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1u) {
          image ^= bit_image[static_cast<size_t>(8 * k + bit)];
        }
      }
      t[static_cast<size_t>(k)][b] = image;
    }
  }
  return t;
}

constexpr Tables kShiftBlock = MakeShiftTable();

// Raw register after kCrc32cHardwareBlock more zero bytes.
inline uint32_t ShiftBlock(uint32_t c) {
  return kShiftBlock[0][c & 0xffu] ^ kShiftBlock[1][(c >> 8) & 0xffu] ^
         kShiftBlock[2][(c >> 16) & 0xffu] ^ kShiftBlock[3][c >> 24];
}

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The crc32 instruction is one slicing step per 8 bytes with a 3-cycle
// latency and single-cycle throughput, so three independent streams keep
// the unit busy. Each round checksums blocks A, B, C (streams 1 and 2
// start from a zero register) and folds them by linearity:
//   raw(c, A||B||C) = Shift(Shift(raw(c, A)) ^ raw(0, B)) ^ raw(0, C).
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const uint8_t* data, size_t n) {
  constexpr size_t kWords = kCrc32cHardwareBlock / 8;
  static_assert(kCrc32cHardwareBlock % 8 == 0);
  uint64_t c = crc ^ 0xffffffffu;
  while (n >= 3 * kCrc32cHardwareBlock) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kWords; ++i) {
      c = _mm_crc32_u64(c, LoadU64(data + 8 * i));
      c1 = _mm_crc32_u64(c1, LoadU64(data + kCrc32cHardwareBlock + 8 * i));
      c2 = _mm_crc32_u64(c2,
                         LoadU64(data + 2 * kCrc32cHardwareBlock + 8 * i));
    }
    c = ShiftBlock(ShiftBlock(static_cast<uint32_t>(c)) ^
                   static_cast<uint32_t>(c1)) ^
        static_cast<uint32_t>(c2);
    data += 3 * kCrc32cHardwareBlock;
    n -= 3 * kCrc32cHardwareBlock;
  }
  for (; n >= 8; n -= 8, data += 8) c = _mm_crc32_u64(c, LoadU64(data));
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++data) c32 = _mm_crc32_u8(c32, *data);
  return c32 ^ 0xffffffffu;
}

#endif  // VITRI_CRC32C_X86

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

// Resolved on first use through a function-local static, so a checksum
// taken during another translation unit's static initialization still
// sees the resolved backend.
ExtendFn ActiveExtend() {
  static const ExtendFn fn = Crc32cHardwareAvailable()
                                 ? &Crc32cExtendHardware
                                 : &Crc32cExtendPortable;
  return fn;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const uint8_t* data, size_t n) {
  uint32_t c = crc ^ 0xffffffffu;
  while (n >= 4) {
    c ^= static_cast<uint32_t>(data[0]) |
         (static_cast<uint32_t>(data[1]) << 8) |
         (static_cast<uint32_t>(data[2]) << 16) |
         (static_cast<uint32_t>(data[3]) << 24);
    c = kTables[3][c & 0xffu] ^ kTables[2][(c >> 8) & 0xffu] ^
        kTables[1][(c >> 16) & 0xffu] ^ kTables[0][c >> 24];
    data += 4;
    n -= 4;
  }
  while (n > 0) {
    c = (c >> 8) ^ kTables[0][(c ^ *data) & 0xffu];
    ++data;
    --n;
  }
  return c ^ 0xffffffffu;
}

bool Crc32cHardwareAvailable() {
#if VITRI_CRC32C_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

uint32_t Crc32cExtendHardware(uint32_t crc, const uint8_t* data, size_t n) {
#if VITRI_CRC32C_X86
  return Crc32cExtendSse42(crc, data, n);
#else
  return Crc32cExtendPortable(crc, data, n);
#endif
}

const char* Crc32cBackendName() {
  return ActiveExtend() == &Crc32cExtendHardware ? "sse4.2" : "portable";
}

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n) {
  return ActiveExtend()(crc, data, n);
}

}  // namespace vitri
