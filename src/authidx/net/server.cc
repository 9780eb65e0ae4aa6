#include "authidx/net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "authidx/common/coding.h"
#include "authidx/common/env.h"
#include "authidx/common/strings.h"
#include "authidx/parse/tsv.h"

namespace authidx::net {

namespace {

// Bound on a response write to a slow client (SO_SNDTIMEO); on expiry
// the connection is dropped, so a stalled reader cannot hold a worker.
constexpr int kSendTimeoutMs = 5000;

// Sampled traces kept per latency-decade bucket of the trace store
// (obs::TraceStore; 6x this in all).
constexpr size_t kTraceStorePerBucket = 8;

// Caps on one REPL_RECORDS batch read from the log per feeder pass;
// whichever trips first. A log record larger than the byte cap ships as
// put-batch pieces of at most that size, one frame each, so no frame
// outgrows the follower's frame cap (kMaxFrameBytesDefault, 1 MiB).
constexpr size_t kReplMaxBatchRecords = 512;
constexpr size_t kReplMaxBatchBytes = 256 * 1024;
static_assert(kReplMaxBatchBytes < kMaxFrameBytesDefault);

// Writes all of `data`, retrying short writes and EINTR. The socket is
// blocking with SO_SNDTIMEO, so a stalled peer fails the write after
// the timeout instead of wedging the calling thread. MSG_NOSIGNAL: a
// closed peer must yield EPIPE, not a process-killing SIGPIPE.
bool WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;  // Timeout, EPIPE, reset: the connection is gone.
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError("fcntl O_NONBLOCK: " + ErrnoMessage(errno));
  }
  return Status::OK();
}

// Dense index of a request opcode in the per-opcode instrument arrays
// (kOpcodeTable order); -1 for RESPONSE and unassigned values.
int OpIndex(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing:
      return 0;
    case Opcode::kQuery:
      return 1;
    case Opcode::kAdd:
      return 2;
    case Opcode::kFlush:
      return 3;
    case Opcode::kStats:
      return 4;
    case Opcode::kReplSubscribe:
      return 5;
    default:
      return -1;
  }
}

}  // namespace

// One accepted connection. The fd is owned here and closed by the
// destructor, which runs when the last reference (event-loop map or
// in-flight worker task) drops — so a worker finishing a response can
// never write into a recycled descriptor.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  // Bytes read but not yet parsed into frames (event loop only).
  std::string read_buffer;
  // Serializes whole-frame response writes: workers answer pipelined
  // requests out of order, and interleaved partial frames would corrupt
  // the stream.
  Mutex write_mu;
  // Set on write failure or protocol error; later writes are skipped.
  std::atomic<bool> closed{false};
  // Requests parsed but not yet answered (the max_pipeline limit).
  std::atomic<size_t> in_flight{0};
  // Precomputed shed/error replies queued but not yet written; bounds
  // the control queue per connection (see Server::EnqueueControl).
  std::atomic<size_t> pending_control{0};
};

// One replication subscriber (a follower that sent REPL_SUBSCRIBE).
// Membership in Server::subscribers_ is guarded by feeder_mu_; the
// mutable cursor is touched only by the feeder thread once `active` is
// set (the registering worker owns it before that).
struct Server::Subscriber {
  std::shared_ptr<Connection> conn;
  // REPL_SUBSCRIBE correlation id, echoed on every stream frame.
  uint64_t request_id = 0;
  // Next unread log byte to ship (feeder thread only once active).
  storage::WalPosition pos;
  // Set once the ack RESPONSE is on the wire; the feeder skips
  // inactive subscribers (their stream must not precede the ack).
  std::atomic<bool> active{false};
  // When this subscriber last got a heartbeat (0 = never).
  uint64_t last_heartbeat_ns = 0;
};

Server::Server(core::AuthorIndex* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      sampler_(options_.trace_sample_every),
      trace_store_(kTraceStorePerBucket),
      trace_rng_(obs::MonotonicNowNs() | 1) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  log_ = options_.logger != nullptr ? options_.logger
                                    : obs::Logger::Disabled();
  connections_total_ = metrics_->RegisterCounter(
      "authidx_server_connections_total",
      "Connections accepted since the server started");
  active_connections_ = metrics_->RegisterGauge(
      "authidx_server_active_connections",
      "Connections currently registered with the event loop");
  rejected_connections_total_ = metrics_->RegisterCounter(
      "authidx_server_rejected_connections_total",
      "Connections closed at accept because max_connections was reached");
  requests_total_ = metrics_->RegisterCounter(
      "authidx_server_requests_total",
      "Requests executed by the worker pool (any outcome)");
  // Labeled per-opcode views registered right after their unlabeled
  // aggregate so metrics_text groups each family under one HELP/TYPE.
  for (size_t i = 0; i < kNumOps; ++i) {
    op_requests_total_[i] = metrics_->RegisterCounter(
        std::string("authidx_server_requests_total{op=\"") +
            kOpcodeTable[i].name + "\"}",
        "Requests executed by the worker pool (any outcome)");
  }
  errors_total_ = metrics_->RegisterCounter(
      "authidx_server_errors_total",
      "Requests answered with a non-OK wire status");
  for (size_t i = 0; i < kNumOps; ++i) {
    op_errors_total_[i] = metrics_->RegisterCounter(
        std::string("authidx_server_errors_total{op=\"") +
            kOpcodeTable[i].name + "\"}",
        "Requests answered with a non-OK wire status");
  }
  shed_requests_total_ = metrics_->RegisterCounter(
      "authidx_shed_requests_total",
      "Requests shed with RETRYABLE_BUSY by admission control");
  bad_frames_total_ = metrics_->RegisterCounter(
      "authidx_server_bad_frames_total",
      "Frames rejected for length/version/CRC violations");
  truncated_results_total_ = metrics_->RegisterCounter(
      "authidx_server_truncated_results_total",
      "QUERY responses whose hit page was cut to fit max_frame_bytes");
  queue_depth_ = metrics_->RegisterGauge(
      "authidx_server_queue_depth",
      "Requests waiting in the worker queue");
  request_ns_ = metrics_->RegisterLatencyHistogram(
      "authidx_server_request_duration_ns",
      "Server-side request latency from dequeue to response written");
  for (size_t i = 0; i < kNumOps; ++i) {
    op_request_ns_[i] = metrics_->RegisterLatencyHistogram(
        std::string("authidx_server_request_duration_ns{op=\"") +
            kOpcodeTable[i].name + "\"}",
        "Server-side request latency from dequeue to response written");
  }
  queue_wait_ns_ = metrics_->RegisterLatencyHistogram(
      "authidx_server_queue_wait_ns",
      "Time a request spent in the worker queue before execution");
  execute_ns_ = metrics_->RegisterLatencyHistogram(
      "authidx_server_execute_ns",
      "Time a worker spent executing a request (excluding queue and "
      "response write)");
  bytes_in_total_ = metrics_->RegisterCounter(
      "authidx_server_bytes_in_total", "Bytes read from clients");
  bytes_out_total_ = metrics_->RegisterCounter(
      "authidx_server_bytes_out_total", "Bytes written to clients");
  repl_records_shipped_total_ = metrics_->RegisterCounter(
      "authidx_repl_records_shipped_total",
      "Log records (or pieces of a split record) shipped to replication "
      "subscribers");
  repl_subscribers_ = metrics_->RegisterGauge(
      "authidx_repl_subscribers",
      "Replication subscribers currently registered");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + ErrnoMessage(errno));
  }
  auto fail = [this](Status status) {
    Stop();
    return status;
  };
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  AUTHIDX_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail(Status::IOError("bind port " +
                                std::to_string(options_.port) + ": " +
                                ErrnoMessage(errno)));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return fail(Status::IOError("listen: " + ErrnoMessage(errno)));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return fail(Status::IOError("getsockname: " + ErrnoMessage(errno)));
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return fail(Status::IOError("epoll_create1: " + ErrnoMessage(errno)));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return fail(Status::IOError("eventfd: " + ErrnoMessage(errno)));
  }
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail(Status::IOError("epoll_ctl listen: " +
                                ErrnoMessage(errno)));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail(Status::IOError("epoll_ctl wake: " + ErrnoMessage(errno)));
  }

  {
    MutexLock lock(queue_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_release);
  event_thread_ = std::thread([this] { EventLoop(); });
  int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // The replication feeder only exists on a storage-backed primary:
  // replicas must not cascade, and an in-memory catalog has no WAL.
  if (!catalog_->is_replica() && catalog_->storage_engine() != nullptr) {
    {
      MutexLock lock(feeder_mu_);
      feeder_stop_ = false;
    }
    feeder_thread_ = std::thread([this] { FeederLoop(); });
  }
  log_->Log(obs::LogLevel::kInfo, "server_start",
            {{"port", static_cast<uint64_t>(port_)},
             {"workers", static_cast<uint64_t>(workers)}});
  return Status::OK();
}

void Server::Stop() {
  // A fully stopped server has no thread, workers, or fds left; a
  // second Stop() (e.g. from the destructor after an explicit call)
  // must not touch metrics or logs the caller may have torn down.
  if (!event_thread_.joinable() && workers_.empty() &&
      !feeder_thread_.joinable() && listen_fd_ < 0 && epoll_fd_ < 0 &&
      wake_fd_ < 0) {
    return;
  }
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
  if (event_thread_.joinable()) {
    event_thread_.join();
  }
  {
    MutexLock lock(feeder_mu_);
    feeder_stop_ = true;
  }
  feeder_cv_.NotifyAll();
  if (feeder_thread_.joinable()) {
    feeder_thread_.join();
  }
  {
    MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  bool was_started = !workers_.empty();
  workers_.clear();
  {
    // After the workers are gone nothing can register a subscriber
    // anymore: drop them all.
    MutexLock lock(feeder_mu_);
    subscribers_.clear();
    repl_subscribers_->Set(0);
  }
  {
    MutexLock lock(conns_mu_);
    conns_.clear();
    active_connections_->Set(0);
  }
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  if (was_started) {
    log_->Log(obs::LogLevel::kInfo, "server_stop",
              {{"requests", requests_total_->Value()},
               {"shed", shed_requests_total_->Value()}});
  }
}

void Server::EventLoop() {
  while (running_.load(std::memory_order_acquire)) {
    epoll_event events[64];
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        continue;  // The loop condition re-checks running_.
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        MutexLock lock(conns_mu_);
        auto it = conns_.find(fd);
        if (it != conns_.end()) {
          conn = it->second;
        }
      }
      if (conn == nullptr) {
        continue;  // Unregistered by an earlier event this batch.
      }
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        Unregister(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        (void)HandleReadable(conn);
      }
    }
  }
}

void Server::AcceptPending() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN: backlog drained (or transient accept error).
    }
    connections_total_->Inc();
    size_t live = 0;
    {
      MutexLock lock(conns_mu_);
      live = conns_.size();
    }
    if (live >= options_.max_connections) {
      rejected_connections_total_->Inc();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // The accepted fd stays *blocking*: the event loop issues exactly
    // one read() per readiness event, and workers write with a bounded
    // SO_SNDTIMEO so a stalled reader drops the connection instead of
    // holding a worker thread hostage.
    timeval timeout;
    timeout.tv_sec = kSendTimeoutMs / 1000;
    timeout.tv_usec = (kSendTimeoutMs % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

    auto conn = std::make_shared<Connection>(fd);
    {
      MutexLock lock(conns_mu_);
      conns_.emplace(fd, conn);
      active_connections_->Set(static_cast<int64_t>(conns_.size()));
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      Unregister(conn);
    }
  }
}

bool Server::HandleReadable(const std::shared_ptr<Connection>& conn) {
  uint64_t read_ns = obs::MonotonicNowNs();
  char buf[65536];
  ssize_t n = ::read(conn->fd, buf, sizeof(buf));
  if (n == 0) {
    Unregister(conn);
    return false;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    }
    Unregister(conn);
    return false;
  }
  uint64_t read_done_ns = obs::MonotonicNowNs();
  bytes_in_total_->Inc(static_cast<uint64_t>(n));
  conn->read_buffer.append(buf, static_cast<size_t>(n));

  while (true) {
    DecodedFrame frame;
    Status error;
    DecodeOutcome outcome = DecodeFrame(conn->read_buffer,
                                        options_.max_frame_bytes, &frame,
                                        &error);
    if (outcome == DecodeOutcome::kNeedMore) {
      return true;
    }
    if (outcome == DecodeOutcome::kError) {
      // The stream cannot be resynchronized: answer BAD_FRAME
      // (request_id 0, best effort) and drop the connection. A worker
      // writes the reply — never this thread — so the connection is
      // only quarantined here; the worker shuts it down after the
      // write.
      bad_frames_total_->Inc();
      log_->Log(obs::LogLevel::kWarn, "bad_frame",
                {{"error", error.message()}});
      ResponsePayload response;
      response.status = WireStatus::kBadFrame;
      response.message = error.message();
      Quarantine(conn);
      EnqueueControl(conn, 0, std::move(response), /*close_after=*/true);
      return false;
    }
    FrameMeta meta;
    meta.read_ns = read_ns;
    meta.read_done_ns = read_done_ns;
    meta.decoded_ns = obs::MonotonicNowNs();
    std::string_view payload = frame.payload;
    if ((frame.header.flags & kFlagTraceContext) != 0) {
      Status ts = DecodeTraceContext(&payload, &meta.trace_ctx);
      if (!ts.ok()) {
        // CRC-valid but the advertised extension is malformed; the
        // payload boundary is untrustworthy, so treat it like a
        // framing error: answer BAD_FRAME and drop the connection.
        bad_frames_total_->Inc();
        log_->Log(obs::LogLevel::kWarn, "bad_frame",
                  {{"error", ts.message()}});
        ResponsePayload response;
        response.status = WireStatus::kBadFrame;
        response.message = ts.message();
        Quarantine(conn);
        EnqueueControl(conn, frame.header.request_id, std::move(response),
                       /*close_after=*/true);
        return false;
      }
      meta.traced = true;
    }
    if (frame.header.opcode == Opcode::kResponse ||
        !IsKnownOpcode(static_cast<uint8_t>(frame.header.opcode))) {
      // CRC-valid, so the stream stays in sync: answer and keep going.
      ResponsePayload response;
      response.status = WireStatus::kUnknownOpcode;
      response.message =
          "opcode " +
          std::to_string(static_cast<int>(frame.header.opcode)) +
          " is not a request";
      if (!EnqueueControl(conn, frame.header.request_id,
                          std::move(response), /*close_after=*/false)) {
        return false;
      }
    } else if (!EnqueueOrShed(conn, frame.header, payload, meta)) {
      return false;
    }
    conn->read_buffer.erase(0, frame.frame_bytes);
  }
}

bool Server::EnqueueOrShed(const std::shared_ptr<Connection>& conn,
                           const FrameHeader& header,
                           std::string_view payload,
                           const FrameMeta& meta) {
  const char* shed_reason = nullptr;
  if (conn->in_flight.load(std::memory_order_relaxed) >=
      options_.max_pipeline) {
    shed_reason = "per-connection pipeline limit reached";
  } else {
    MutexLock lock(queue_mu_);
    if (queue_.size() >= options_.queue_limit) {
      shed_reason = "worker queue full";
    } else {
      conn->in_flight.fetch_add(1, std::memory_order_relaxed);
      Task task;
      task.conn = conn;
      task.header = header;
      task.payload = std::string(payload);
      task.meta = meta;
      // A client-supplied trace context owns the sampling decision;
      // otherwise the head sampler takes one in every
      // trace_sample_every. Sample() and the id check are
      // allocation-free, so the unsampled hot path stays clean.
      task.sampled =
          meta.traced ? meta.trace_ctx.sampled : sampler_.Sample();
      if (task.sampled && task.meta.trace_ctx.trace_id.IsZero()) {
        task.meta.trace_ctx.trace_id = GenerateTraceId();
      }
      task.enqueue_ns = obs::MonotonicNowNs();
      queue_.push_back(std::move(task));
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      queue_cv_.NotifyOne();
    }
  }
  if (shed_reason != nullptr) {
    shed_requests_total_->Inc();
    ResponsePayload response;
    response.status = WireStatus::kRetryableBusy;
    response.message = shed_reason;
    return EnqueueControl(conn, header.request_id, std::move(response),
                          /*close_after=*/false);
  }
  return true;
}

bool Server::EnqueueControl(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id, ResponsePayload response,
                            bool close_after) {
  // Writing from the event loop would let one peer that stops reading
  // stall every connection for up to kSendTimeoutMs — precisely under
  // overload, when sheds are generated. Hand the reply to a worker
  // instead, bounded per connection: the bound is generous (a burst
  // pipelined past max_pipeline legitimately pends that many shed
  // replies, and every CRC-valid request is promised a response), but
  // a peer far beyond it is flooding without reading — writing more at
  // it is pointless, so drop it.
  if (conn->pending_control.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_pipeline + options_.queue_limit) {
    conn->pending_control.fetch_sub(1, std::memory_order_relaxed);
    Unregister(conn);
    return false;
  }
  Task task;
  task.conn = conn;
  task.header.request_id = request_id;
  task.has_response = true;
  task.response = std::move(response);
  task.close_after = close_after;
  {
    MutexLock lock(queue_mu_);
    control_queue_.push_back(std::move(task));
    queue_cv_.NotifyOne();
  }
  return true;
}

void Server::WorkerLoop() {
  while (true) {
    Task task;
    queue_mu_.Lock();
    while (queue_.empty() && control_queue_.empty() && !stopping_) {
      queue_cv_.Wait(queue_mu_);
    }
    if (!control_queue_.empty()) {
      // Control replies jump the queue: they are already built, and
      // under overload (when they are generated) queue_ is full.
      task = std::move(control_queue_.front());
      control_queue_.pop_front();
    } else if (!queue_.empty()) {
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    } else {
      queue_mu_.Unlock();
      return;  // stopping_ and both queues drained: exit.
    }
    queue_mu_.Unlock();
    ExecuteTask(task);
  }
}

void Server::ExecuteTask(const Task& task) {
  if (task.has_response) {
    // Precomputed shed/error reply: write it, and for BAD_FRAME shut
    // the (already quarantined) connection down afterwards. Not a
    // catalog request, so requests_total_/request_ns_ stay untouched.
    WriteResponse(task.conn, task.header.request_id, task.response, {});
    if (task.close_after) {
      Unregister(task.conn);
    }
    task.conn->pending_control.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  uint64_t dequeue_ns = obs::MonotonicNowNs();
  uint64_t queue_wait_ns =
      dequeue_ns >= task.enqueue_ns ? dequeue_ns - task.enqueue_ns : 0;
  queue_wait_ns_->Record(queue_wait_ns);
  int op = OpIndex(task.header.opcode);
  if (op >= 0) {
    op_queue_wait_sum_ns_[op].fetch_add(queue_wait_ns,
                                        std::memory_order_relaxed);
  }
  if (options_.handler_delay_ms_for_test > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.handler_delay_ms_for_test));
  }
  // The engine appends its spans here for sampled requests; default
  // construction allocates nothing, so unsampled requests pay only the
  // null check.
  obs::Trace engine_trace;
  engine_trace.set_trace_id(task.meta.trace_ctx.trace_id);
  uint64_t exec_start_ns = obs::MonotonicNowNs();
  std::shared_ptr<Subscriber> pending_sub;
  ResponsePayload response = HandleRequest(
      task, task.sampled ? &engine_trace : nullptr, &pending_sub);
  uint64_t exec_ns = obs::MonotonicNowNs() - exec_start_ns;
  execute_ns_->Record(exec_ns);
  // Count before writing: once the response is on the wire a client
  // may immediately scrape /metrics and must see this request.
  requests_total_->Inc();
  if (op >= 0) {
    op_execute_sum_ns_[op].fetch_add(exec_ns, std::memory_order_relaxed);
    op_requests_total_[op]->Inc();
    if (response.status != WireStatus::kOk) {
      errors_total_->Inc();
      op_errors_total_[op]->Inc();
    }
  }

  // Sampled requests get the lifecycle span tree assembled; it ships
  // back ahead of the response payload only when the request carried
  // trace context (head sampling is a server-local decision — untraced
  // clients never see trace bytes). Traced-but-unsampled requests get
  // their context echoed with an empty span list so the client can
  // still correlate. Untraced, unsampled requests skip all of this —
  // no allocation, no encoding.
  std::string trace_prefix;
  obs::Trace tree;
  size_t root_index = 0;
  if (task.sampled) {
    tree.set_trace_id(task.meta.trace_ctx.trace_id);
    std::string root_name =
        "rpc/" + std::string(OpcodeName(task.header.opcode));
    root_index = tree.AppendSpan(root_name, 0, task.meta.read_ns, 0);
    tree.AppendSpan("socket_read", 1, task.meta.read_ns,
                    task.meta.read_done_ns - task.meta.read_ns);
    tree.AppendSpan("decode", 1, task.meta.read_done_ns,
                    task.meta.decoded_ns - task.meta.read_done_ns);
    tree.AppendSpan("queue_wait", 1, task.enqueue_ns, queue_wait_ns);
    tree.AppendSpan("execute", 1, exec_start_ns, exec_ns);
    for (const obs::Trace::Span& span : engine_trace.spans()) {
      tree.AppendSpan(span.name, span.depth + 2, span.start_ns,
                      span.duration_ns);
    }
    // The wire copy of the tree necessarily ends here: the encode
    // and send spans cannot be inside the bytes they produce. The
    // stored /tracez copy is finalized with them after the write.
    tree.EndSpan(root_index, obs::MonotonicNowNs() - task.meta.read_ns);
  }
  if (task.meta.traced) {
    TraceContext out_ctx = task.meta.trace_ctx;
    out_ctx.sampled = task.sampled;
    uint64_t encode_start_ns = obs::MonotonicNowNs();
    EncodeTraceContext(out_ctx, &trace_prefix);
    EncodeTraceSpans(tree.spans(), &trace_prefix);
    if (task.sampled) {
      tree.AppendSpan("encode", 1, encode_start_ns,
                      obs::MonotonicNowNs() - encode_start_ns);
    }
  }

  uint64_t send_start_ns = obs::MonotonicNowNs();
  WriteResponse(task.conn, task.header.request_id, response, trace_prefix);
  if (pending_sub != nullptr) {
    // The subscribe ack is on the wire (or the connection is poisoned,
    // which the feeder notices); the stream may start now.
    ActivateSubscriber(pending_sub);
  }
  uint64_t send_end_ns = obs::MonotonicNowNs();
  request_ns_->Record(send_end_ns - dequeue_ns);
  if (op >= 0) {
    op_request_ns_[op]->Record(send_end_ns - dequeue_ns);
  }
  task.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);

  // Retain the trace when sampled — and always when the whole RPC
  // crossed the engine's slow-query threshold, so the tail is captured
  // even at a 1-in-N sampling rate (the skeleton built here has no
  // engine spans; the allocation only happens on the already-slow
  // path).
  uint64_t total_ns = send_end_ns - task.meta.read_ns;
  uint64_t slow_ns = catalog_->slow_query_threshold_ns();
  bool slow = slow_ns > 0 && total_ns >= slow_ns;
  if (task.sampled || slow) {
    obs::TraceId id = task.meta.trace_ctx.trace_id;
    if (id.IsZero()) {
      id = GenerateTraceId();
    }
    if (!task.sampled) {
      tree.set_trace_id(id);
      std::string root_name =
          "rpc/" + std::string(OpcodeName(task.header.opcode));
      root_index = tree.AppendSpan(root_name, 0, task.meta.read_ns, 0);
      tree.AppendSpan("socket_read", 1, task.meta.read_ns,
                      task.meta.read_done_ns - task.meta.read_ns);
      tree.AppendSpan("decode", 1, task.meta.read_done_ns,
                      task.meta.decoded_ns - task.meta.read_done_ns);
      tree.AppendSpan("queue_wait", 1, task.enqueue_ns, queue_wait_ns);
      tree.AppendSpan("execute", 1, exec_start_ns, exec_ns);
    }
    tree.AppendSpan("send", 1, send_start_ns,
                    send_end_ns - send_start_ns);
    tree.EndSpan(root_index, total_ns);
    obs::StoredTrace stored;
    stored.id = id;
    stored.unix_ms = obs::WallUnixMillis();
    stored.opcode = std::string(OpcodeName(task.header.opcode));
    stored.duration_ns = total_ns;
    stored.spans = tree.spans();
    trace_store_.Record(std::move(stored));
    std::string id_hex = id.ToHex();
    log_->Log(obs::LogLevel::kInfo, "rpc",
              {{"trace_id", id_hex},
               {"op", OpcodeName(task.header.opcode)},
               {"status", WireStatusName(response.status)},
               {"duration_ns", total_ns},
               {"queue_wait_ns", queue_wait_ns},
               {"execute_ns", exec_ns},
               {"sampled", task.sampled}});
  }
}

ResponsePayload Server::HandleRequest(
    const Task& task, obs::Trace* trace,
    std::shared_ptr<Subscriber>* pending_sub) {
  const FrameHeader& header = task.header;
  std::string_view payload = task.payload;
  ResponsePayload response;
  auto fail = [&response](const Status& status) {
    response.status = WireStatusFromStatus(status);
    response.message = status.ToString();
  };
  switch (header.opcode) {
    case Opcode::kPing:
      break;
    case Opcode::kQuery: {
      std::string_view query_text;
      Status s = DecodeQueryRequest(payload, &query_text);
      if (!s.ok()) {
        fail(s);
        break;
      }
      Result<query::QueryResult> result =
          catalog_->SearchTraced(query_text, trace);
      if (!result.ok()) {
        fail(result.status());
        break;
      }
      WireQueryResult wire;
      wire.total_matches = result->total_matches;
      wire.plan = static_cast<uint8_t>(result->plan);
      wire.hits.reserve(result->hits.size());
      // Bound the encoded page so the response frame fits
      // max_frame_bytes: the caps are symmetric by convention, so a
      // frame this server would refuse to read, a default client
      // refuses too — it would report Corruption and drop the
      // connection. Budget = cap minus framing and worst-case fixed
      // response fields; per-hit cost is worst-case varints plus the
      // rendered strings. total_matches still reports every match. A
      // traced response also carries the trace-context prefix and the
      // lifecycle span tree ahead of the payload, so reserve room for
      // them too (span names are short; 1 KiB covers a deep tree).
      const size_t reserved =
          kFrameOverheadBytes + 32 +
          (task.meta.traced ? kTraceContextBytes + 1024 : 0);
      const size_t budget = options_.max_frame_bytes > reserved
                                ? options_.max_frame_bytes - reserved
                                : 0;
      size_t used = 0;
      bool page_truncated = false;
      for (const query::Hit& hit : result->hits) {
        // Entry pointers are stable across later ingests (append-only
        // deque), so reading them after Search returns is safe.
        const Entry* entry = catalog_->GetEntry(hit.id);
        if (entry == nullptr) {
          continue;
        }
        WireHit wire_hit;
        wire_hit.id = hit.id;
        wire_hit.score = hit.score;
        wire_hit.author = entry->author.ToIndexForm();
        wire_hit.title = entry->title;
        wire_hit.citation = entry->citation.ToString();
        size_t cost = 28 + wire_hit.author.size() +
                      wire_hit.title.size() + wire_hit.citation.size();
        if (used + cost > budget) {
          page_truncated = true;
          break;
        }
        used += cost;
        wire.hits.push_back(std::move(wire_hit));
      }
      if (page_truncated) {
        truncated_results_total_->Inc();
        std::string id_hex = task.meta.trace_ctx.trace_id.ToHex();
        log_->Log(obs::LogLevel::kWarn, "query_result_truncated",
                  {{"request_id", header.request_id},
                   {"trace_id", task.meta.trace_ctx.trace_id.IsZero()
                                    ? std::string_view()
                                    : std::string_view(id_hex)},
                   {"returned", static_cast<uint64_t>(wire.hits.size())},
                   {"total_matches", wire.total_matches}});
      }
      EncodeQueryResult(wire, &response.body);
      break;
    }
    case Opcode::kAdd: {
      if (catalog_->is_replica()) {
        response.status = WireStatus::kNotPrimary;
        response.message =
            "this node is a read replica; send mutations to the primary";
        break;
      }
      std::vector<std::string_view> lines;
      Status s = DecodeAddRequest(payload, &lines);
      if (!s.ok()) {
        fail(s);
        break;
      }
      std::vector<Entry> entries;
      entries.reserve(lines.size());
      for (std::string_view line : lines) {
        Result<Entry> entry = ParseTsvLine(line);
        if (!entry.ok()) {
          fail(entry.status());
          break;
        }
        entries.push_back(std::move(entry).value());
      }
      if (response.status != WireStatus::kOk) {
        break;
      }
      uint64_t added = entries.size();
      s = catalog_->AddAll(std::move(entries));
      if (!s.ok()) {
        fail(s);
        break;
      }
      PutVarint64(&response.body, added);
      KickFeeder();
      break;
    }
    case Opcode::kFlush: {
      Status s = catalog_->Flush();
      if (!s.ok()) {
        fail(s);
        break;
      }
      // A flush can switch WALs; wake the feeder so subscribers cross
      // the switch (and learn the new frontier) without waiting a tick.
      KickFeeder();
      break;
    }
    case Opcode::kStats: {
      WireStats stats;
      stats.entry_count = catalog_->entry_count();
      stats.group_count = catalog_->group_count();
      EncodeStats(stats, &response.body);
      break;
    }
    case Opcode::kReplSubscribe:
      response = HandleReplSubscribe(task, pending_sub);
      break;
    default:
      // Unknown opcodes are answered by the event loop before
      // enqueueing; this is unreachable but keeps the switch total.
      response.status = WireStatus::kUnknownOpcode;
      response.message = "unhandled opcode";
      break;
  }
  return response;
}

ResponsePayload Server::HandleReplSubscribe(
    const Task& task, std::shared_ptr<Subscriber>* pending_sub) {
  ResponsePayload response;
  if (catalog_->is_replica()) {
    response.status = WireStatus::kNotPrimary;
    response.message =
        "this node is a read replica; subscribe to the primary";
    return response;
  }
  storage::StorageEngine* engine = catalog_->storage_engine();
  if (engine == nullptr) {
    response.status = WireStatus::kFailedPrecondition;
    response.message =
        "this server fronts an in-memory catalog (no WAL to ship)";
    return response;
  }
  WirePosition wire_pos;
  Status s = DecodeReplSubscribe(task.payload, &wire_pos);
  if (!s.ok()) {
    response.status = WireStatusFromStatus(s);
    response.message = s.ToString();
    return response;
  }
  auto sub = std::make_shared<Subscriber>();
  sub->conn = task.conn;
  sub->request_id = task.header.request_id;
  sub->pos = {wire_pos.wal_number, wire_pos.offset};
  // Is the cursor servable? A zero-record read checks it without
  // reading the log. The primary keeps every segment, so NOT_FOUND
  // means the cursor belongs to some other store (a primary restored
  // from backup, say) and the follower must reseed; a missing segment
  // is surfaced as corruption.
  storage::ReplicationSource source(engine);
  Result<storage::ReplicationBatch> checked =
      source.ReadBatch(sub->pos, 0, kReplMaxBatchBytes);
  if (!checked.ok()) {
    response.status = WireStatusFromStatus(checked.status());
    response.message = checked.status().ToString();
    return response;
  }
  RegisterSubscriber(sub);
  WireReplSubscribeAck ack;
  ack.start = wire_pos;
  EncodeReplSubscribeAck(ack, &response.body);
  *pending_sub = std::move(sub);
  return response;
}

void Server::RegisterSubscriber(const std::shared_ptr<Subscriber>& sub) {
  MutexLock lock(feeder_mu_);
  subscribers_.push_back(sub);
  repl_subscribers_->Set(static_cast<int64_t>(subscribers_.size()));
}

void Server::ActivateSubscriber(const std::shared_ptr<Subscriber>& sub) {
  sub->active.store(true, std::memory_order_release);
  // Best-effort kick; a notify the feeder misses between its pass and
  // its wait only delays the first frames by one heartbeat interval.
  feeder_cv_.NotifyAll();
}

void Server::RemoveSubscriber(const std::shared_ptr<Subscriber>& sub) {
  MutexLock lock(feeder_mu_);
  auto it = std::find(subscribers_.begin(), subscribers_.end(), sub);
  if (it != subscribers_.end()) {
    subscribers_.erase(it);
  }
  repl_subscribers_->Set(static_cast<int64_t>(subscribers_.size()));
}

void Server::KickFeeder() {
  MutexLock lock(feeder_mu_);
  if (!subscribers_.empty()) {
    feeder_cv_.NotifyAll();
  }
}

void Server::FeederLoop() {
  storage::StorageEngine* engine = catalog_->storage_engine();
  storage::ReplicationSource source(engine);
  const uint64_t interval_us =
      options_.repl_heartbeat_interval_ms > 0
          ? static_cast<uint64_t>(options_.repl_heartbeat_interval_ms) * 1000
          : 1000;
  for (;;) {
    std::vector<std::shared_ptr<Subscriber>> subs;
    {
      MutexLock lock(feeder_mu_);
      if (feeder_stop_) {
        return;
      }
      subs = subscribers_;
    }
    std::vector<std::shared_ptr<Subscriber>> dead;
    for (const std::shared_ptr<Subscriber>& sub : subs) {
      if (!sub->active.load(std::memory_order_acquire)) {
        continue;
      }
      if (sub->conn->closed.load(std::memory_order_relaxed) ||
          !FeedSubscriber(sub, &source)) {
        dead.push_back(sub);
      }
    }
    for (const std::shared_ptr<Subscriber>& sub : dead) {
      RemoveSubscriber(sub);
      // Closing the connection tells the follower to reconnect (and,
      // if its cursor became unservable, to reseed).
      Unregister(sub->conn);
    }
    {
      MutexLock lock(feeder_mu_);
      if (feeder_stop_) {
        return;
      }
      feeder_cv_.WaitFor(feeder_mu_, interval_us);
      if (feeder_stop_) {
        return;
      }
    }
  }
}

bool Server::FeedSubscriber(const std::shared_ptr<Subscriber>& sub,
                            storage::ReplicationSource* source) {
  storage::StorageEngine* engine = catalog_->storage_engine();
  // Ship committed records until this subscriber is caught up.
  for (;;) {
    Result<storage::ReplicationBatch> batch = source->ReadBatch(
        sub->pos, kReplMaxBatchRecords, kReplMaxBatchBytes);
    if (!batch.ok()) {
      log_->Log(obs::LogLevel::kWarn, "repl_feed_failed",
                {{"error", batch.status().message()},
                 {"wal", sub->pos.wal_number},
                 {"offset", sub->pos.offset}});
      return false;
    }
    if (batch->records.empty() && batch->end == sub->pos) {
      break;
    }
    // One frame per kReplMaxBatchBytes of records: a split record
    // spans several. Only the last frame carries the batch's end; the
    // others repeat the current cursor, so a follower that crashes
    // mid-record is re-sent the whole record and skips the pieces it
    // already holds. A batch with no records still ships its end: the
    // cursor crossed into the next segment.
    size_t next = 0;
    do {
      WireReplRecords wire;
      size_t frame_bytes = 0;
      while (next < batch->records.size() &&
             (wire.records.empty() ||
              frame_bytes + batch->records[next].size() <=
                  kReplMaxBatchBytes)) {
        frame_bytes += batch->records[next].size();
        wire.records.push_back(std::move(batch->records[next++]));
      }
      const storage::WalPosition end =
          next == batch->records.size() ? batch->end : sub->pos;
      wire.end = {end.wal_number, end.offset};
      wire.committed = {batch->committed.wal_number,
                        batch->committed.offset};
      std::string payload;
      EncodeReplRecords(wire, &payload);
      if (!WriteStreamFrame(sub->conn, Opcode::kReplRecords,
                            sub->request_id, payload)) {
        return false;
      }
      repl_records_shipped_total_->Inc(wire.records.size());
    } while (next < batch->records.size());
    sub->pos = batch->end;
  }

  uint64_t now = obs::MonotonicNowNs();
  uint64_t interval_ns =
      static_cast<uint64_t>(options_.repl_heartbeat_interval_ms) * 1000000;
  if (sub->last_heartbeat_ns == 0 ||
      now - sub->last_heartbeat_ns >= interval_ns) {
    WireReplHeartbeat hb;
    storage::WalPosition committed = engine->CommittedWalPosition();
    hb.committed = {committed.wal_number, committed.offset};
    hb.degraded = engine->degraded() ? 1 : 0;
    std::string payload;
    EncodeReplHeartbeat(hb, &payload);
    if (!WriteStreamFrame(sub->conn, Opcode::kReplHeartbeat,
                          sub->request_id, payload)) {
      return false;
    }
    sub->last_heartbeat_ns = now;
  }
  return true;
}

bool Server::WriteStreamFrame(const std::shared_ptr<Connection>& conn,
                              Opcode opcode, uint64_t request_id,
                              std::string_view payload) {
  FrameHeader header;
  header.opcode = opcode;
  header.request_id = request_id;
  std::string frame;
  EncodeFrame(header, payload, &frame);

  MutexLock lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_relaxed)) {
    return false;
  }
  if (WriteAll(conn->fd, frame)) {
    bytes_out_total_->Inc(frame.size());
    return true;
  }
  conn->closed.store(true, std::memory_order_relaxed);
  ::shutdown(conn->fd, SHUT_RDWR);
  return false;
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           uint64_t request_id,
                           const ResponsePayload& response,
                           std::string_view trace_prefix) {
  std::string payload(trace_prefix);
  EncodeResponsePayload(response, &payload);
  FrameHeader header;
  header.opcode = Opcode::kResponse;
  header.flags = trace_prefix.empty() ? 0 : kFlagTraceContext;
  header.request_id = request_id;
  std::string frame;
  EncodeFrame(header, payload, &frame);

  MutexLock lock(conn->write_mu);
  if (conn->closed.load(std::memory_order_relaxed)) {
    return;
  }
  if (WriteAll(conn->fd, frame)) {
    bytes_out_total_->Inc(frame.size());
  } else {
    // Peer gone or stalled past the send timeout: poison the
    // connection; the event loop reaps it on the resulting HUP.
    conn->closed.store(true, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

obs::TraceId Server::GenerateTraceId() {
  MutexLock lock(trace_mu_);
  obs::TraceId id;
  do {
    id.hi = trace_rng_.Next64();
    id.lo = trace_rng_.Next64();
  } while (id.IsZero());
  return id;
}

std::string Server::RpczJson() const {
  std::string out = "{\"ops\":[";
  for (size_t i = 0; i < kNumOps; ++i) {
    obs::HistogramSnapshot latency = op_request_ns_[i]->Snapshot();
    if (i > 0) {
      out += ",";
    }
    out += StringPrintf(
        "{\"op\":\"%s\",\"requests\":%llu,\"errors\":%llu,"
        "\"p50_ns\":%llu,\"p90_ns\":%llu,\"p99_ns\":%llu,"
        "\"latency_sum_ns\":%llu,\"queue_wait_sum_ns\":%llu,"
        "\"execute_sum_ns\":%llu}",
        kOpcodeTable[i].name,
        static_cast<unsigned long long>(op_requests_total_[i]->Value()),
        static_cast<unsigned long long>(op_errors_total_[i]->Value()),
        static_cast<unsigned long long>(latency.p50),
        static_cast<unsigned long long>(latency.p90),
        static_cast<unsigned long long>(latency.p99),
        static_cast<unsigned long long>(latency.sum),
        static_cast<unsigned long long>(
            op_queue_wait_sum_ns_[i].load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            op_execute_sum_ns_[i].load(std::memory_order_relaxed)));
  }
  obs::HistogramSnapshot queue_wait = queue_wait_ns_->Snapshot();
  obs::HistogramSnapshot execute = execute_ns_->Snapshot();
  out += StringPrintf(
      "],\"requests\":%llu,\"errors\":%llu,\"shed_requests\":%llu,"
      "\"bad_frames\":%llu,\"truncated_results\":%llu,"
      "\"queue_wait\":{\"count\":%llu,\"sum_ns\":%llu,\"p50_ns\":%llu,"
      "\"p90_ns\":%llu,\"p99_ns\":%llu},"
      "\"execute\":{\"count\":%llu,\"sum_ns\":%llu,\"p50_ns\":%llu,"
      "\"p90_ns\":%llu,\"p99_ns\":%llu},"
      "\"traces_recorded\":%llu,\"traces_retained\":%zu}",
      static_cast<unsigned long long>(requests_total_->Value()),
      static_cast<unsigned long long>(errors_total_->Value()),
      static_cast<unsigned long long>(shed_requests_total_->Value()),
      static_cast<unsigned long long>(bad_frames_total_->Value()),
      static_cast<unsigned long long>(truncated_results_total_->Value()),
      static_cast<unsigned long long>(queue_wait.count),
      static_cast<unsigned long long>(queue_wait.sum),
      static_cast<unsigned long long>(queue_wait.p50),
      static_cast<unsigned long long>(queue_wait.p90),
      static_cast<unsigned long long>(queue_wait.p99),
      static_cast<unsigned long long>(execute.count),
      static_cast<unsigned long long>(execute.sum),
      static_cast<unsigned long long>(execute.p50),
      static_cast<unsigned long long>(execute.p90),
      static_cast<unsigned long long>(execute.p99),
      static_cast<unsigned long long>(trace_store_.total_recorded()),
      trace_store_.size());
  return out;
}

void Server::Quarantine(const std::shared_ptr<Connection>& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  MutexLock lock(conns_mu_);
  conns_.erase(conn->fd);
  active_connections_->Set(static_cast<int64_t>(conns_.size()));
}

void Server::Unregister(const std::shared_ptr<Connection>& conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conn->closed.store(true, std::memory_order_relaxed);
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn->fd);
    active_connections_->Set(static_cast<int64_t>(conns_.size()));
  }
}

}  // namespace authidx::net
