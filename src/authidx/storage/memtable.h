#ifndef AUTHIDX_STORAGE_MEMTABLE_H_
#define AUTHIDX_STORAGE_MEMTABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "authidx/common/arena.h"
#include "authidx/common/mutex.h"
#include "authidx/common/random.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/storage/iterator.h"

namespace authidx::storage {

/// Mutable in-memory write buffer: an arena-backed skiplist from user key
/// to value. Overwrites update the node's value view in place (the
/// superseded copy stays in the arena until the memtable is dropped, the
/// usual arena trade-off).
///
/// Thread-safe via an internal SharedMutex: Put takes it exclusively,
/// iterators and size accessors take it shared, so any
/// number of readers proceed in parallel with each other. The protocol
/// is machine-checked: every skiplist field is AUTHIDX_GUARDED_BY(mu_)
/// and the traversal/mutation helpers carry REQUIRES annotations. Arena
/// memory is never freed while the memtable lives, so string_views
/// handed out to readers stay valid even if the entry is overwritten
/// afterwards.
class MemTable {
 public:
  MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Inserts or overwrites `key` -> `value`.
  void Put(std::string_view key, std::string_view value);

  size_t entry_count() const {
    ReaderMutexLock lock(mu_);
    return count_;
  }
  size_t ApproximateMemoryUsage() const {
    ReaderMutexLock lock(mu_);
    return arena_.MemoryUsage();
  }

  /// Iterator yielding keys in order with their latest values.
  std::unique_ptr<Iterator> NewIterator() const;

 private:
  struct Node;
  class Iter;

  static constexpr int kMaxHeight = 12;

  Node* NewNode(std::string_view key, std::string_view value, int height)
      AUTHIDX_REQUIRES(mu_);
  int RandomHeight() AUTHIDX_REQUIRES(mu_);
  /// Returns first node with key >= `key`, filling prev[] when not null.
  Node* FindGreaterOrEqual(std::string_view key, Node** prev) const
      AUTHIDX_REQUIRES_SHARED(mu_);

  mutable SharedMutex mu_;
  Arena arena_ AUTHIDX_GUARDED_BY(mu_);
  Random rng_ AUTHIDX_GUARDED_BY(mu_);
  Node* head_ AUTHIDX_GUARDED_BY(mu_);
  int height_ AUTHIDX_GUARDED_BY(mu_) = 1;
  size_t count_ AUTHIDX_GUARDED_BY(mu_) = 0;
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_MEMTABLE_H_
