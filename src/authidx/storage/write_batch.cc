#include "authidx/storage/write_batch.h"

#include "authidx/common/coding.h"
#include "authidx/storage/wal.h"

namespace authidx::storage {

void WriteBatch::Put(std::string_view key, std::string_view value) {
  rep_.push_back(kWalPut);
  PutLengthPrefixed(&rep_, key);
  PutLengthPrefixed(&rep_, value);
  ++count_;
}

void WriteBatch::Clear() {
  rep_.clear();
  count_ = 0;
}

}  // namespace authidx::storage
