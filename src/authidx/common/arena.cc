#include "authidx/common/arena.h"

#include <cstring>

namespace authidx {

char* Arena::Allocate(size_t bytes) {
  if (bytes <= alloc_remaining_) {
    char* result = alloc_ptr_;
    alloc_ptr_ += bytes;
    alloc_remaining_ -= bytes;
    return result;
  }
  return AllocateFallback(bytes);
}

std::string_view Arena::CopyString(std::string_view s) {
  if (s.empty()) {
    // A default-constructed view has data() == nullptr; memcpy from a
    // null source is UB even for zero bytes.
    return std::string_view();
  }
  char* dst = Allocate(s.size());
  std::memcpy(dst, s.data(), s.size());
  return std::string_view(dst, s.size());
}

char* Arena::AllocateFallback(size_t bytes) {
  if (bytes > kBlockSize / 4) {
    // Large allocations get their own block so the current block's
    // remaining space is not wasted.
    return AllocateNewBlock(bytes);
  }
  char* block = AllocateNewBlock(kBlockSize);
  alloc_ptr_ = block + bytes;
  alloc_remaining_ = kBlockSize - bytes;
  return block;
}

char* Arena::AllocateNewBlock(size_t block_bytes) {
  blocks_.push_back(std::make_unique<char[]>(block_bytes));
  return blocks_.back().get();
}

}  // namespace authidx
