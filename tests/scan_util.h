#ifndef AUTHIDX_TESTS_SCAN_UTIL_H_
#define AUTHIDX_TESTS_SCAN_UTIL_H_

// Reads a whole store (or one table) back as a std::map. The engine has
// no point reads; tests that check stored state scan through this one
// helper and assert on the map.

#include <map>
#include <string>

#include "authidx/common/result.h"
#include "authidx/storage/iterator.h"

namespace authidx::tests {

/// Every key/value `it` yields from SeekToFirst on, or the iterator's
/// error status (corruption, a paranoid engine's sticky error).
inline Result<std::map<std::string, std::string>> ScanToMap(
    storage::Iterator& it) {
  std::map<std::string, std::string> out;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    out.emplace(it.key(), it.value());
  }
  AUTHIDX_RETURN_NOT_OK(it.status());
  return out;
}

}  // namespace authidx::tests

#endif  // AUTHIDX_TESTS_SCAN_UTIL_H_
