#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c_internal.h"
#include "storage/page_footer.h"

namespace vitri {
namespace {

uint32_t CrcOf(const std::string& s) {
  return Crc32c(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(Crc32cTest, KnownVectors) {
  // Canonical CRC-32C test vectors (RFC 3720 appendix B.4 style).
  EXPECT_EQ(CrcOf(""), 0x00000000u);
  EXPECT_EQ(CrcOf("a"), 0xC1D04330u);
  EXPECT_EQ(CrcOf("123456789"), 0xE3069283u);
  EXPECT_EQ(CrcOf("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
}

TEST(Crc32cTest, AllZeroAndAllOneBlocks) {
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendComposesWithOneShot) {
  const std::string s = "123456789";
  for (size_t split = 0; split <= s.size(); ++split) {
    const uint32_t head =
        Crc32c(reinterpret_cast<const uint8_t*>(s.data()), split);
    const uint32_t full = Crc32cExtend(
        head, reinterpret_cast<const uint8_t*>(s.data()) + split,
        s.size() - split);
    EXPECT_EQ(full, 0xE3069283u) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::vector<uint8_t> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131u);
  }
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t bit : {size_t{0}, size_t{7}, size_t{2048 * 8 + 3},
                     buf.size() * 8 - 1}) {
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), base) << "bit " << bit;
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), base);
}

// Deterministic bytes that are neither periodic over a hardware block
// nor a multiple of a word pattern.
std::vector<uint8_t> TestBytes(size_t n) {
  std::vector<uint8_t> buf(n);
  uint32_t x = 0x9E3779B9u;
  for (uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    b = static_cast<uint8_t>(x >> 24);
  }
  return buf;
}

TEST(Crc32cTest, DispatchedBackendIsNamed) {
  const std::string name = Crc32cBackendName();
  EXPECT_EQ(name, Crc32cHardwareAvailable() ? "sse4.2" : "portable");
}

TEST(Crc32cTest, HardwareMatchesPortableAtEveryLengthAndOffset) {
  if (!Crc32cHardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  // Covers empty input, every serial tail length, inputs just below,
  // at and past one and two full three-stream rounds, and every start
  // offset modulo the 8-byte word.
  constexpr size_t kMaxLen = 2 * 3 * kCrc32cHardwareBlock + 17;
  constexpr size_t kMaxOffset = 7;
  const std::vector<uint8_t> buf = TestBytes(kMaxLen + kMaxOffset);
  uint32_t seed = 0x12345678u;
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      seed = seed * 1664525u + 1013904223u;  // Non-zero, varies per case.
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32cExtendHardware(seed, p, len),
                Crc32cExtendPortable(seed, p, len))
          << "len " << len << " offset " << offset << " seed " << seed;
    }
  }
}

TEST(Crc32cTest, ExtendComposesAtEverySplitOfAPage) {
  const std::vector<uint8_t> buf = TestBytes(4096);
  const uint32_t whole = Crc32cExtendPortable(0, buf.data(), buf.size());
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), whole);
  const bool hardware = Crc32cHardwareAvailable();
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint8_t* tail = buf.data() + split;
    const size_t tail_len = buf.size() - split;
    ASSERT_EQ(Crc32cExtend(Crc32c(buf.data(), split), tail, tail_len), whole)
        << "split at " << split;
    ASSERT_EQ(Crc32cExtendPortable(Crc32cExtendPortable(0, buf.data(), split),
                                   tail, tail_len),
              whole)
        << "split at " << split;
    if (hardware) {
      ASSERT_EQ(Crc32cExtendHardware(Crc32cExtendHardware(0, buf.data(), split),
                                     tail, tail_len),
                whole)
          << "split at " << split;
    }
  }
}

TEST(Crc32cTest, PageFooterChecksumIsPinned) {
  // A stamped 4 KiB page must checksum exactly as pages already on disk
  // do, whichever implementation runs; the value was taken from the
  // table implementation.
  std::vector<uint8_t> page(4096);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(i * 131u + (i >> 8));
  }
  constexpr storage::PageId kId = 42;
  storage::StampPageFooter(page.data(), page.size(), kId);
  EXPECT_EQ(DecodeU32(page.data() + page.size() - storage::kPageFooterSize),
            0x202A416Du);
  EXPECT_EQ(storage::PageChecksum(page.data(), page.size(), kId),
            0x202A416Du);
  EXPECT_TRUE(storage::VerifyPageFooter(page.data(), page.size(), kId).ok());
}

}  // namespace
}  // namespace vitri
