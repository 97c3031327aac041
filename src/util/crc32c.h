#ifndef BIOPERF_UTIL_CRC32C_H_
#define BIOPERF_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bioperf::util {

/**
 * CRC-32C (Castagnoli, polynomial 0x1EDC6F41), the checksum used by
 * the .bptrace container: one CRC per chunk payload plus a
 * running CRC over all metadata bytes. Software slice-by-8; fast
 * enough that checksumming is invisible next to trace decode.
 *
 * crc32c(data, n) checksums one buffer; crc32cExtend() continues a
 * previous checksum so metadata scattered across a file can be folded
 * into a single digest as it is written or scanned.
 */
uint32_t crc32cExtend(uint32_t crc, const void *data, size_t n);

inline uint32_t crc32c(const void *data, size_t n)
{
    return crc32cExtend(0, data, n);
}

} // namespace bioperf::util

#endif // BIOPERF_UTIL_CRC32C_H_
