#include "proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "authidx/obs/metrics.h"

extern char** environ;

namespace perfbench {
namespace {

using authidx::Result;
using authidx::Status;

// Port number following `marker` in `line`, or 0.
int PortAfter(const std::string& line, const std::string& marker) {
  size_t at = line.find(marker);
  return at == std::string::npos
             ? 0
             : std::atoi(line.c_str() + at + marker.size());
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    return Status::IOError("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, out_pipe[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  auto proc = std::unique_ptr<ServerProcess>(new ServerProcess());
  int rc = posix_spawn(&proc->pid_, binary.c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out_pipe[1]);
  proc->stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    proc->pid_ = -1;
    return Status::IOError("cannot spawn " + binary);
  }

  // Startup line: "authidx_server: rpc on 127.0.0.1:P, http on
  // 127.0.0.1:Q (N entries); ...".
  std::string line;
  const uint64_t deadline =
      authidx::obs::MonotonicNowNs() + uint64_t{120} * 1000000000;
  while (line.find('\n') == std::string::npos) {
    uint64_t now = authidx::obs::MonotonicNowNs();
    if (now >= deadline) {
      return Status::IOError("server did not announce its ports in time");
    }
    pollfd pfd{proc->stdout_fd_, POLLIN, 0};
    int wait_ms = static_cast<int>((deadline - now) / 1000000 + 1);
    if (poll(&pfd, 1, wait_ms) <= 0) {
      continue;
    }
    char buf[512];
    ssize_t n = read(proc->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return Status::IOError("server exited during startup; see " + log_path);
    }
    line.append(buf, static_cast<size_t>(n));
  }
  proc->rpc_port_ = PortAfter(line, "rpc on 127.0.0.1:");
  proc->http_port_ = PortAfter(line, "http on 127.0.0.1:");
  if (proc->rpc_port_ == 0 || proc->http_port_ == 0) {
    return Status::IOError("unexpected server startup line: " + line);
  }
  return proc;
}

ServerProcess::~ServerProcess() { (void)Stop(); }

Status ServerProcess::Stop() {
  Status status;
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int wstatus = 0;
    bool exited = false;
    for (int i = 0; i < 2000 && !exited; ++i) {
      exited = waitpid(pid_, &wstatus, WNOHANG) == pid_;
      if (!exited) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!exited) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &wstatus, 0);
      status = Status::IOError("server ignored SIGTERM; killed");
    } else if (WIFSIGNALED(wstatus)) {
      // authidx_server installs its SIGTERM handler just after it
      // announces its ports, so a server stopped right after set-up
      // can die of the signal itself; that is a stop all the same.
      if (WTERMSIG(wstatus) != SIGTERM) {
        status = Status::IOError("server killed by signal " +
                                 std::to_string(WTERMSIG(wstatus)));
      }
    } else if (WEXITSTATUS(wstatus) != 0) {
      status = Status::IOError("server exited with status " +
                               std::to_string(WEXITSTATUS(wstatus)));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return status;
}

uint64_t ServerProcess::PeakRssKb() const {
  std::string status =
      ReadSmallFile("/proc/" + std::to_string(pid_) + "/status");
  size_t at = status.find("VmHWM:");
  return at == std::string::npos
             ? 0
             : std::strtoull(status.c_str() + at + 6, nullptr, 10);
}

Result<std::string> HttpGet(int port, const std::string& path) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket failed");
  }
  timeval timeout{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[65536];
      ssize_t n;
      while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  close(fd);
  size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.1 200") != 0 ||
      body == std::string::npos) {
    return Status::IOError("GET " + path + " failed");
  }
  return response.substr(body + 4);
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::remove_all(to, ec);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  return ec ? Status::IOError("copy " + from + " -> " + to + ": " +
                              ec.message())
            : Status::OK();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& item :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (item.is_regular_file(ec)) {
      bytes += item.file_size(ec);
    }
  }
  return bytes;
}

std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
