#include "util/crc32.h"

#include <array>

namespace flexvis {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table; entry n of
/// kTables[k] advances the CRC of byte n through k further zero bytes, so
/// eight table lookups fold eight input bytes at once.
constexpr Crc32Tables MakeTables() {
  Crc32Tables tables{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
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

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
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

}  // namespace flexvis
