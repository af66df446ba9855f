#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dyno {

namespace {

/// 256-entry lookup table for the reflected Castagnoli polynomial,
/// generated once at startup (cheaper to audit than 256 literals and
/// identical on every platform).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    constexpr uint32_t kPolyReflected = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

#if defined(__x86_64__)
/// SSE4.2 `crc32` instructions compute the same Castagnoli CRC: eight bytes
/// per instruction over the aligned-size body, then byte-wise for the tail.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendSse42(
    uint32_t crc, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

/// The fastest implementation this CPU supports, chosen once.
Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cExtendSse42;
#endif
  return internal::Crc32cExtendTable;
}

}  // namespace

namespace internal {

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n) {
  const Crc32cTable& table = Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(crc, data, n);
}

}  // namespace dyno
