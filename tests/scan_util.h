#ifndef AUTHIDX_TESTS_SCAN_UTIL_H_
#define AUTHIDX_TESTS_SCAN_UTIL_H_

// Reads a whole store back as a std::map. The engine has no point
// reads; tests that check stored state fold one Replay pass through
// this helper (a later put of a key supersedes an earlier one) and
// assert on the map.

#include <map>
#include <string>

#include "authidx/common/result.h"
#include "authidx/storage/engine.h"

namespace authidx::tests {

/// Every key with its newest value, or Replay's error status.
inline Result<std::map<std::string, std::string>> ScanToMap(
    const storage::StorageEngine& engine) {
  std::map<std::string, std::string> out;
  Result<storage::WalScan> replayed =
      engine.Replay([&out](std::string_view key, std::string_view value) {
        out[std::string(key)] = std::string(value);
        return Status::OK();
      });
  AUTHIDX_RETURN_NOT_OK(replayed.status());
  return out;
}

}  // namespace authidx::tests

#endif  // AUTHIDX_TESTS_SCAN_UTIL_H_
