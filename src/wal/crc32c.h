#ifndef TDR_WAL_CRC32C_H_
#define TDR_WAL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace tdr::wal {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected to 0x82F63B78)
/// — the checksum of every WAL record, computed once per append and
/// once per replayed record. That makes it a hot path: one CRC per
/// record, about 15 records per commit in the durable benchmark run.
/// On a CPU with SSE4.2 it runs the `crc32` instruction 8 bytes at a
/// time; on every other CPU it runs Crc32cTable. The path is picked
/// once, from the CPU, and both give the same value for every input.
/// Standard check value: Crc32c("123456789") == 0xE3069283.
std::uint32_t Crc32c(const void* data, std::size_t size);

/// Incremental form: feed `crc` the result of a previous call to extend
/// the checksum over split buffers.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size);

/// The table path, in Crc32cExtend's form: one 256-entry table read a
/// byte at a time. It is the fallback on CPUs without SSE4.2 and the
/// reference the tests check the hardware path against; nothing else
/// calls it.
std::uint32_t Crc32cTable(std::uint32_t crc, const void* data,
                          std::size_t size);

}  // namespace tdr::wal

#endif  // TDR_WAL_CRC32C_H_
