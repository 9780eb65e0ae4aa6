#ifndef AUTHIDX_COMMON_ARENA_H_
#define AUTHIDX_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace authidx {

/// Bump allocator for node-heavy data structures (skiplist memtable).
/// Allocations live until the arena is destroyed; there is no per-object
/// free. Not thread-safe.
class Arena {
 public:
  Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` with no particular alignment (>= 1).
  char* Allocate(size_t bytes);

  /// Allocates `bytes` aligned for any scalar type (alignof(max_align_t)
  /// capped at 8, which suffices for the node types stored here).
  char* AllocateAligned(size_t bytes);

  /// Copies `s` into the arena and returns a view of the stable copy.
  std::string_view CopyString(std::string_view s);

  /// Total bytes handed to callers plus block bookkeeping; used by the
  /// memtable to decide when to flush.
  size_t MemoryUsage() const { return memory_usage_; }

 private:
  static constexpr size_t kBlockSize = 64 * 1024;

  char* AllocateFallback(size_t bytes);
  char* AllocateNewBlock(size_t block_bytes);

  char* alloc_ptr_ = nullptr;
  size_t alloc_remaining_ = 0;
  size_t memory_usage_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
};

}  // namespace authidx

#endif  // AUTHIDX_COMMON_ARENA_H_
