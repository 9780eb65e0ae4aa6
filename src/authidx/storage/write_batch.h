#ifndef AUTHIDX_STORAGE_WRITE_BATCH_H_
#define AUTHIDX_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "authidx/common/status.h"

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

  /// Serialized operations (op byte + length-prefixed fields, repeated).
  const std::string& rep() const { return rep_; }

  /// Approximate in-memory/WAL footprint.
  size_t ByteSize() const { return rep_.size(); }

  /// Decodes `rep` (as produced by this class), invoking `on_put` per
  /// operation. Returns Corruption on malformed input, including any op
  /// other than a put.
  static Status Iterate(
      std::string_view rep,
      const std::function<void(std::string_view, std::string_view)>& on_put);

 private:
  std::string rep_;
  uint32_t count_ = 0;
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_WRITE_BATCH_H_
