#ifndef DYNO_COMMON_VARINT_H_
#define DYNO_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace dyno {

/// Byte-level primitives shared by the row codec (json/value.cc) and the
/// columnar frame codec (columnar/column.cc): LEB128 varints (7 bits per
/// byte, low group first), zigzag ints and little-endian doubles. The
/// readers return false instead of a status; each codec reports its own.

/// The longest encoding of a uint64_t: ten 7-bit groups.
inline constexpr size_t kMaxVarintBytes = 10;

inline void EncodeVarint(uint64_t v, std::string* out) {
  for (; v >= 0x80; v >>= 7) out->push_back(static_cast<char>(v | 0x80));
  out->push_back(static_cast<char>(v));
}

inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Reads one varint at `*offset`, advancing past the bytes consumed. Fails
/// when the input ends mid-varint (fewer than kMaxVarintBytes consumed) or
/// the varint runs past kMaxVarintBytes.
inline bool ReadVarint(std::string_view data, size_t* offset, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64 && *offset < data.size(); shift += 7) {
    const uint8_t b = static_cast<uint8_t>(data[(*offset)++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

/// Zigzag mapping, so small negative ints encode as short varints.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void EncodeDoubleLe(double d, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(bits >> (8 * i)));
  }
}

/// Reads eight little-endian bytes at `*offset`; false when fewer remain.
inline bool ReadDoubleLe(std::string_view data, size_t* offset, double* out) {
  if (*offset + 8 > data.size()) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(data[*offset + i]))
            << (8 * i);
  }
  *offset += 8;
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

}  // namespace dyno

#endif  // DYNO_COMMON_VARINT_H_
