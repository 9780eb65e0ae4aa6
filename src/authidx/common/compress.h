#ifndef AUTHIDX_COMMON_COMPRESS_H_
#define AUTHIDX_COMMON_COMPRESS_H_

#include <string>
#include <string_view>

#include "authidx/common/result.h"

namespace authidx {

/// Byte-oriented LZ77 compressor in the LZ4 token format family, used to
/// compress storage blocks (EngineOptions::compress_blocks).
///
/// Stream layout: varint64 uncompressed_size, then a sequence of
/// tokens:
///
///   token    := tag (1B) | literal_len_ext* | literals
///             | offset (2B LE) | match_len_ext*
///   tag      := (literal_len:4) << 4 | (match_len - kMinMatch):4
///
/// A nibble value of 15 is extended with 255-valued continuation bytes
/// plus a final byte (LZ4 length coding). The final token has no match
/// part (signalled by the stream ending after its literals). Matches are
/// found greedily with a 4-byte-hash table; window is 64 KiB.
///
/// Incompressible inputs expand by at most ~0.5%; callers (the table
/// writer) keep whichever form is smaller.

/// Compresses `input` into `*output` (replaced).
void LzCompress(std::string_view input, std::string* output);

/// Decompresses a LzCompress stream. Returns Corruption for malformed
/// input; never reads/writes out of bounds.
Result<std::string> LzDecompress(std::string_view input);

/// Upper bound on compressed size for `n` input bytes.
size_t LzMaxCompressedSize(size_t n);

}  // namespace authidx

#endif  // AUTHIDX_COMMON_COMPRESS_H_
