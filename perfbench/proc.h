#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

// Process and file-system plumbing for the serving benchmark: running
// authidx_server as a child process, scraping its HTTP surface, and
// measuring its memory and its database directory.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "authidx/common/result.h"
#include "authidx/common/status.h"

namespace perfbench {

/// A running authidx_server child. The destructor stops it and waits
/// for it to exit.
class ServerProcess {
 public:
  /// Spawns `binary args...` with stdout on a pipe and stderr appended
  /// to `log_path`, and waits (up to two minutes) for the startup line
  /// that announces the bound RPC and HTTP ports.
  static authidx::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM, then wait; SIGKILL after 20 s. Idempotent.
  authidx::Status Stop();

  int rpc_port() const { return rpc_port_; }
  int http_port() const { return http_port_; }

  /// Peak resident set (VmHWM) in KiB; 0 when unreadable.
  uint64_t PeakRssKb() const;

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int rpc_port_ = 0;
  int http_port_ = 0;
};

/// Body of `GET path` from 127.0.0.1:`port` (HTTP/1.0-style exchange).
authidx::Result<std::string> HttpGet(int port, const std::string& path);

/// Recursively copies directory `from` to a fresh `to` (replacing it).
authidx::Status CopyDir(const std::string& from, const std::string& to);

/// Sum of regular-file sizes under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Contents of a small text file, or empty when unreadable.
std::string ReadSmallFile(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
