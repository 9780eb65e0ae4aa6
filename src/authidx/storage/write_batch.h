#ifndef AUTHIDX_STORAGE_WRITE_BATCH_H_
#define AUTHIDX_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace authidx::storage {

/// A group of Put operations applied atomically: the whole batch is one
/// WAL record, so recovery either replays all of it or none (torn-tail
/// discard). Bulk ingest uses this to amortize WAL framing and syncs.
class WriteBatch {
 public:
  WriteBatch() = default;

  void Put(std::string_view key, std::string_view value);
  void Clear();

  /// Number of operations.
  uint32_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Serialized put ops, each kWalPut + length-prefixed key + value.
  /// This is the one encoder of that format: kWalBatch + rep() is a
  /// batch log record, and storage::ForEachRecordOp (wal.h) decodes it.
  const std::string& rep() const { return rep_; }

 private:
  std::string rep_;
  uint32_t count_ = 0;
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_WRITE_BATCH_H_
