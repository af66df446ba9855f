#ifndef DYNO_COMMON_CRC32C_H_
#define DYNO_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dyno {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum HDFS and
/// friends stamp on every stored block. Every map task verifies its whole
/// split and every spill run and columnar frame is checksummed, so the CRC
/// is on the simulator's hot path: on x86-64 CPUs with SSE4.2 it runs on
/// the `crc32` instruction (eight bytes per step), chosen once at run time;
/// elsewhere a portable byte-wise table computes the identical value.
///
/// Any single-bit flip in the input changes the CRC (the map is linear over
/// GF(2) and injective on deltas shorter than the polynomial's span), which
/// is the property the integrity layer leans on: a corrupted replica or a
/// torn manifest write can never verify.

/// Extends a running CRC with `n` more bytes. Start from `crc = 0`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// One-shot CRC of a buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}
inline uint32_t Crc32c(std::string_view s) {
  return Crc32cExtend(0, s.data(), s.size());
}

namespace internal {
/// The portable table-driven implementation, always compiled. Exposed so
/// tests can check the hardware path against it; use Crc32cExtend.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n);
}  // namespace internal

}  // namespace dyno

#endif  // DYNO_COMMON_CRC32C_H_
