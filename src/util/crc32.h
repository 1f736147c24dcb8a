#ifndef FLEXVIS_UTIL_CRC32_H_
#define FLEXVIS_UTIL_CRC32_H_

#include <cstdint>
#include <cstddef>
#include <string_view>

namespace flexvis {

/// Bytes per chunk of the pooled checksum. An input of at least two chunks
/// is split into fixed chunks of this size (never derived from the thread
/// count), checksummed on the ParallelFor pool and joined in order, so the
/// value is the same at every thread count.
inline constexpr size_t kCrc32Chunk = size_t{1} << 20;

/// CRC-32 (ISO 3309 / PNG polynomial 0xEDB88320), the integrity check shared
/// by the PNG encoder, the write-ahead journal framing, and the snapshot
/// manifests. `seed` allows incremental computation: pass the previous result
/// to continue a running checksum over concatenated buffers.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

/// Convenience overload for string payloads.
inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  return Crc32(reinterpret_cast<const uint8_t*>(data.data()), data.size(), seed);
}

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_CRC32_H_
