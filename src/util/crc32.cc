#include "util/crc32.h"

#include <algorithm>
#include <array>
#include <vector>

#include "util/parallel.h"

namespace flexvis {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table; entry n of
/// kTables[k] advances the CRC of byte n through k further zero bytes, so
/// eight table lookups fold eight input bytes at once.
constexpr Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kPolynomial ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t n = 0; n < 256; ++n) {
      const uint32_t prev = tables[k - 1][n];
      tables[k][n] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint32_t SerialCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ crc;
    const uint32_t hi = LoadLe32(data + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^
          kTables[2][(hi >> 8) & 0xFF] ^ kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) crc = kTables[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

/// a * b modulo the CRC polynomial, in the reflected bit order the CRC uses
/// (bit 31 is x^0), as zlib's crc32_combine computes it.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

/// x^(8 * bytes) modulo the polynomial: multiplying a CRC by it appends
/// `bytes` zero bytes to the checksummed input.
uint32_t ZeroBytesOperator(uint64_t bytes) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t power = 1u << 23;   // x^8, one byte
  for (; bytes != 0; bytes >>= 1) {
    if ((bytes & 1) != 0) result = MultModP(power, result);
    power = MultModP(power, power);
  }
  return result;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  if (size < 2 * kCrc32Chunk) return SerialCrc32(data, size, seed);
  // The CRC of A || B is crc(A) shifted past |B| zero bytes, xor crc(B)
  // (B checksummed from seed 0): the standard CRC-32 combine.
  const size_t num_chunks = (size + kCrc32Chunk - 1) / kCrc32Chunk;
  std::vector<uint32_t> chunk_crcs(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const size_t offset = c * kCrc32Chunk;
      chunk_crcs[c] = SerialCrc32(data + offset, std::min(kCrc32Chunk, size - offset),
                                  c == 0 ? seed : 0);
    }
  });
  uint32_t crc = chunk_crcs[0];
  for (size_t c = 1; c < num_chunks; ++c) {
    const size_t length = std::min(kCrc32Chunk, size - c * kCrc32Chunk);
    crc = MultModP(ZeroBytesOperator(length), crc) ^ chunk_crcs[c];
  }
  return crc;
}

}  // namespace flexvis
