#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/random.h"

namespace dyno {
namespace {

// RFC 3720 (iSCSI) appendix B.4 test vectors.
TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, TablePathMatchesKnownVectors) {
  const std::string digits = "123456789";
  EXPECT_EQ(internal::Crc32cExtendTable(0, digits.data(), digits.size()),
            0xE3069283u);
  const std::string ones(32, '\xff');
  EXPECT_EQ(internal::Crc32cExtendTable(0, ones.data(), ones.size()),
            0x62A8AB43u);
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Uniform(256));
  return out;
}

// Extending at any split point equals the one-shot CRC, from unaligned
// starts (so the 8-byte body and the byte tail land at every phase).
TEST(Crc32cTest, ExtendIsChainableAtEverySplit) {
  Rng rng(7);
  const std::string buf = RandomBytes(&rng, 64 + 8);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      const char* p = buf.data() + start;
      const uint32_t whole = Crc32c(p, len);
      for (size_t cut = 0; cut <= len; ++cut) {
        const uint32_t chained =
            Crc32cExtend(Crc32cExtend(0, p, cut), p + cut, len - cut);
        ASSERT_EQ(chained, whole)
            << "start " << start << " len " << len << " cut " << cut;
      }
    }
  }
}

// The dispatched implementation (hardware where the CPU has it) computes
// the portable table's value on random buffers of every small length and
// unaligned start, and on a few large ones.
TEST(Crc32cTest, DispatchedPathMatchesTablePath) {
  Rng rng(11);
  const std::string buf = RandomBytes(&rng, 4096 + 16);
  for (size_t start = 0; start < 16; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = buf.data() + start;
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32cExtend(seed, p, len),
                internal::Crc32cExtendTable(seed, p, len))
          << "start " << start << " len " << len;
    }
  }
  for (size_t len : {1000u, 4093u, 4096u}) {
    EXPECT_EQ(Crc32c(buf.data() + 3, len),
              internal::Crc32cExtendTable(0, buf.data() + 3, len));
  }
}

}  // namespace
}  // namespace dyno
