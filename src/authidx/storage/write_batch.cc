#include "authidx/storage/write_batch.h"

#include "authidx/common/coding.h"

namespace authidx::storage {

namespace {
constexpr char kOpPut = 'P';
}  // namespace

void WriteBatch::Put(std::string_view key, std::string_view value) {
  rep_.push_back(kOpPut);
  PutLengthPrefixed(&rep_, key);
  PutLengthPrefixed(&rep_, value);
  ++count_;
}

void WriteBatch::Clear() {
  rep_.clear();
  count_ = 0;
}

Status WriteBatch::Iterate(
    std::string_view rep,
    const std::function<void(std::string_view, std::string_view)>& on_put) {
  while (!rep.empty()) {
    if (rep.front() != kOpPut) {
      return Status::Corruption("unknown batch op");
    }
    rep.remove_prefix(1);
    std::string_view key, value;
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&rep, &key));
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&rep, &value));
    on_put(key, value);
  }
  return Status::OK();
}

}  // namespace authidx::storage
