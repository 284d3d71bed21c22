// Fuzzes the CRC-32C implementations (common/crc32c.cc) against each
// other. The first two input bytes pick a split point and the rest is
// the message; the harness asserts that the SSE4.2 path equals the
// table path from that seed, and that Crc32cExtend composes: the CRC of
// the head extended by the tail is the CRC of the whole message. On a
// CPU without SSE4.2 only the composition checks run.

#include <cstddef>
#include <cstdint>

#include "common/crc32c.h"
#include "common/crc32c_internal.h"

namespace {

#define FUZZ_CHECK(cond)                                              \
  do {                                                                \
    if (!(cond)) __builtin_trap();                                    \
  } while (0)

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using vitri::Crc32c;
  using vitri::Crc32cExtend;
  using vitri::Crc32cExtendHardware;
  using vitri::Crc32cExtendPortable;

  if (size < 2) return 0;
  const size_t header = static_cast<size_t>(data[0]) |
                        (static_cast<size_t>(data[1]) << 8);
  const uint8_t* msg = data + 2;
  const size_t n = size - 2;
  const size_t split = n == 0 ? 0 : header % (n + 1);

  const uint32_t whole = Crc32cExtendPortable(0, msg, n);
  FUZZ_CHECK(Crc32c(msg, n) == whole);
  FUZZ_CHECK(Crc32cExtend(Crc32c(msg, split), msg + split, n - split) ==
             whole);
  const uint32_t head = Crc32cExtendPortable(0, msg, split);
  FUZZ_CHECK(Crc32cExtendPortable(head, msg + split, n - split) == whole);

  if (vitri::Crc32cHardwareAvailable()) {
    FUZZ_CHECK(Crc32cExtendHardware(0, msg, n) == whole);
    FUZZ_CHECK(Crc32cExtendHardware(0, msg, split) == head);
    // A non-zero seed taken from the header: the tail from the head's CRC.
    FUZZ_CHECK(Crc32cExtendHardware(head, msg + split, n - split) == whole);
    const uint32_t seed = static_cast<uint32_t>(header) * 0x9E3779B1u;
    FUZZ_CHECK(Crc32cExtendHardware(seed, msg + split, n - split) ==
               Crc32cExtendPortable(seed, msg + split, n - split));
  }
  return 0;
}
