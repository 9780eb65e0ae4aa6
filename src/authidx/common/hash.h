#ifndef AUTHIDX_COMMON_HASH_H_
#define AUTHIDX_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace authidx {

/// 64-bit FNV-1a hash; fast, decent-quality, used where a simple stable
/// string hash suffices (e.g. term dictionaries).
uint64_t Fnv1a64(std::string_view data);

/// Avalanche mix for integer keys (splitmix64 finalizer).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace authidx

#endif  // AUTHIDX_COMMON_HASH_H_
