#ifndef AUTHIDX_NET_CLIENT_H_
#define AUTHIDX_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/common/result.h"
#include "authidx/common/retry.h"
#include "authidx/common/status.h"
#include "authidx/net/protocol.h"
#include "authidx/obs/log.h"

namespace authidx::net {

/// Connection settings for a Client.
struct ClientOptions {
  /// Server host: a dotted IPv4 address or "localhost".
  std::string host = "127.0.0.1";
  /// Server TCP port.
  int port = 0;
  /// Bound on each socket send/receive; on expiry the call fails with
  /// IOError (transient, so the retry layer reconnects and re-sends —
  /// except for a fully sent ADD, which is never blindly re-sent; see
  /// the class comment).
  int io_timeout_ms = 5000;
  /// Total wall-clock budget for one high-level call, spanning every
  /// retry and failover attempt; 0 disables it. Enforced through
  /// SO_RCVTIMEO/SO_SNDTIMEO (clamped to the remaining budget before
  /// each attempt), so even a wedged server cannot hold the call past
  /// the deadline. Expiry surfaces as IOError — transient — so read
  /// failover kicks in instead of hanging.
  int deadline_ms = 0;
  /// Read-failover endpoints ("host:port"). When a read-only call
  /// (PING/QUERY/STATS) hits a transient failure — primary unreachable,
  /// reset, deadline expired — the client rotates to the next endpoint
  /// (primary, then each replica, round-robin) before retrying.
  /// Mutations (ADD/FLUSH) never fail over: they are pinned to the
  /// primary, and a follower would reject them with NOT_PRIMARY.
  std::vector<std::string> replicas;
  /// Frames announcing more than this many bytes are rejected
  /// client-side and the connection dropped.
  size_t max_frame_bytes = kMaxFrameBytesDefault;
  /// Backoff policy for transparent reconnect/retry: transient
  /// failures (connection reset, timeout, server RETRYABLE_BUSY) are
  /// retried up to max_attempts with exponential jittered backoff.
  /// Set max_attempts = 1 to disable retrying.
  RetryPolicy retry;
  /// Logger for reconnect events (must outlive the client). nullptr
  /// means obs::Logger::Disabled().
  obs::Logger* logger = nullptr;
  /// Propagate a trace context on every request: each frame carries a
  /// fresh client-generated trace id with the sampled bit set, and the
  /// server returns its lifecycle span tree on the response (see
  /// Client::last_trace()).
  bool trace = false;
};

/// The server-returned trace attached to the most recently received
/// response (see Client::last_trace()).
struct RpcTrace {
  /// Correlation id the response carried; zero when the last response
  /// had no trace context.
  obs::TraceId trace_id;
  /// True when the server sampled the request and returned spans.
  bool sampled = false;
  /// The server's lifecycle span tree, start times rebased to zero.
  /// Rebuild a renderable tree with obs::Trace::AppendSpan.
  std::vector<obs::Trace::Span> spans;
};

/// Blocking client for the authidx wire protocol (docs/PROTOCOL.md).
///
/// The high-level calls (Ping/Query/Add/Flush/Stats) are synchronous
/// request/response: they connect lazily, and on a transient failure —
/// dropped connection, I/O timeout, or a server-side RETRYABLE_BUSY
/// shed — they reconnect and retry under the ClientOptions::retry
/// backoff policy before giving up. Permanent errors (bad query,
/// corruption, degraded storage) return immediately.
///
/// Retry safety: ADD mutates the catalog and is not idempotent, so it
/// is only retried when the failed attempt provably never executed —
/// a connect/send failure (the server can't have seen a complete
/// CRC-valid frame) or a RETRYABLE_BUSY shed (rejected before
/// execution). A failure after the request was fully sent (e.g. a
/// receive timeout) is ambiguous — the server may have ingested the
/// batch and only the response was lost — and is returned to the
/// caller unretried rather than risking duplicate entries. The
/// read-only calls and the idempotent FLUSH retry on any transient
/// failure.
///
/// The raw frame layer (SendRequest/ReceiveResponse) is for pipelining:
/// issue several requests back-to-back, then collect responses and
/// match them by request id. No retrying happens at that layer.
///
/// Not thread-safe: one Client per thread (the server handles many
/// connections; see bench/bench_server.cc for the multi-client shape).
class Client {
 public:
  /// Client for `options.host:options.port`; does not connect yet.
  explicit Client(ClientOptions options);

  /// Closes the connection if open.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Explicitly establishes the connection (the high-level calls do
  /// this lazily; Connect() is for surfacing setup errors early).
  Status Connect();

  /// Drops the connection; the next call reconnects.
  void Close();

  /// True while a connection is established.
  bool connected() const { return fd_ >= 0; }

  /// Liveness round-trip.
  Status Ping();

  /// Runs a query string on the server (authidx query grammar) and
  /// returns the rendered hits.
  Result<WireQueryResult> Query(std::string_view query_text);

  /// Ingests a batch of TSV entry lines; returns the number added.
  Result<uint64_t> Add(const std::vector<std::string>& tsv_lines);

  /// Asks the server to persist pending writes.
  Status Flush();

  /// Fetches catalog size counters.
  Result<WireStats> Stats();

  /// Raw layer: sends one request frame without waiting for the
  /// response; `*request_id` receives the frame's correlation id. With
  /// ClientOptions::trace set, the frame carries a fresh trace
  /// context, whose id `*trace_id` (optional) receives — the handle
  /// for matching pipelined responses to their own trace. The caller
  /// must be connected (see Connect()).
  Status SendRequest(Opcode opcode, std::string_view payload,
                     uint64_t* request_id,
                     obs::TraceId* trace_id = nullptr);

  /// Raw layer: blocks for the next response frame (any request id).
  /// `*request_id` receives the echoed correlation id. When the
  /// response carries a trace context it is captured into
  /// last_trace(), which is reset otherwise.
  Status ReceiveResponse(uint64_t* request_id, ResponsePayload* response);

  /// Raw layer: blocks for the next frame of *any* opcode, without
  /// interpreting it. For replication followers consuming the
  /// REPL_RECORDS / REPL_HEARTBEAT stream after a REPL_SUBSCRIBE. `*payload` is copied out of the read buffer.
  Status ReceiveStreamFrame(FrameHeader* header, std::string* payload);

  /// The endpoint the client currently targets, as "host:port" (index 0
  /// is the primary; reads may have rotated onto a replica).
  std::string current_endpoint() const;

  /// The trace returned on the most recently received response (empty
  /// trace id when that response carried none).
  const RpcTrace& last_trace() const { return last_trace_; }

 private:
  // One connect + send + receive pass; transient failures drop the
  // connection so the retry wrapper reconnects. `*maybe_executed` is
  // set when the failure can no longer prove the server did not
  // execute the request: the whole frame was handed to the kernel and
  // the response was not a RETRYABLE_BUSY shed.
  Status CallOnce(Opcode opcode, std::string_view payload,
                  ResponsePayload* response, bool* maybe_executed);

  // CallOnce under the RetryPolicy; fills `*response` on success.
  // Non-idempotent opcodes (ADD) are not retried once an attempt
  // reports maybe_executed (see the class comment). Read-only opcodes
  // rotate endpoints between transient failures; mutations are pinned
  // to the primary. Arms the per-call deadline.
  Status Call(Opcode opcode, std::string_view payload,
              ResponsePayload* response);

  // Re-applies SO_SNDTIMEO/SO_RCVTIMEO: io_timeout_ms clamped to
  // whatever remains of the armed deadline.
  void ApplyIoTimeouts();

  // Nanoseconds to the armed deadline; UINT64_MAX when none is armed.
  uint64_t RemainingDeadlineNs() const;

  struct Endpoint {
    std::string host;
    int port = 0;
  };

  ClientOptions options_;
  obs::Logger* log_;  // Never null (Logger::Disabled()).
  Random rng_;
  // endpoints_[0] is the primary (options.host:port); the rest parse
  // from options.replicas.
  std::vector<Endpoint> endpoints_;
  size_t current_endpoint_ = 0;
  // Absolute monotonic deadline for the in-flight high-level call; 0
  // when disarmed (no ClientOptions::deadline_ms or raw-layer use).
  uint64_t deadline_at_ns_ = 0;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string read_buffer_;
  RpcTrace last_trace_;
};

}  // namespace authidx::net

#endif  // AUTHIDX_NET_CLIENT_H_
