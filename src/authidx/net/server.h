#ifndef AUTHIDX_NET_SERVER_H_
#define AUTHIDX_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "authidx/common/mutex.h"
#include "authidx/common/random.h"
#include "authidx/common/status.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/core/author_index.h"
#include "authidx/net/protocol.h"
#include "authidx/obs/log.h"
#include "authidx/obs/metrics.h"
#include "authidx/obs/trace_store.h"
#include "authidx/storage/replication.h"

namespace authidx::net {

/// Tuning knobs for a Server. Defaults suit tests and small
/// deployments; docs/SERVER.md is the operator guide.
struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see
  /// Server::port()).
  int port = 0;
  /// Worker threads executing requests against the catalog. The
  /// catalog is already thread-safe, so queries in different workers
  /// run in parallel.
  int num_workers = 4;
  /// Connections beyond this are accepted and immediately closed
  /// (authidx_server_rejected_connections_total counts them).
  size_t max_connections = 1024;
  /// Frames announcing more than this many bytes (header + payload +
  /// CRC) poison the connection before the payload is buffered.
  size_t max_frame_bytes = kMaxFrameBytesDefault;
  /// Per-connection pipelining cap: requests arriving while this many
  /// are already in flight on the same connection are shed with
  /// RETRYABLE_BUSY.
  size_t max_pipeline = 64;
  /// Admission control: requests arriving while the worker queue holds
  /// this many are shed with RETRYABLE_BUSY instead of growing the
  /// queue without bound (the RPC-layer analogue of the storage
  /// engine's write-stall backpressure).
  size_t queue_limit = 256;
  /// Registry for the authidx_server_* / authidx_shed_* instruments
  /// (must outlive the server). nullptr gives the server a private
  /// registry, readable via metrics(). Pass the catalog's registry
  /// (AuthorIndex::mutable_metrics()) so one /metrics page covers
  /// engine and server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Logger for lifecycle events (must outlive the server). nullptr
  /// means obs::Logger::Disabled().
  obs::Logger* logger = nullptr;
  /// Head sampling: record a full lifecycle span tree for one request
  /// in every this-many that arrive without a client trace context
  /// (requests whose frame carries one follow the client's sampling
  /// decision instead). 0 disables server-side head sampling; requests
  /// slower than the catalog's slow-query threshold are still sampled.
  uint64_t trace_sample_every = 0;
  /// Test-only: every request handler sleeps this long before
  /// executing, making "worker busy" states deterministic in shedding
  /// and drain tests. 0 in production.
  uint64_t handler_delay_ms_for_test = 0;
  /// Replication feeder cadence: how often a subscribed follower gets a
  /// REPL_HEARTBEAT (and how quickly freshly committed records ship
  /// when the feeder was idle).
  int repl_heartbeat_interval_ms = 500;
};

/// The authidx network front end: accepts loopback TCP connections
/// speaking the framed wire protocol (net/protocol.h, docs/PROTOCOL.md)
/// and executes requests against an AuthorIndex. A server over a
/// follower catalog (AuthorIndex::is_replica()) answers ADD and
/// REPL_SUBSCRIBE with NOT_PRIMARY (no cascading replication) and never
/// starts the replication feeder; reads and FLUSH serve normally.
///
/// Threading: one event-loop thread owns the listening socket, an epoll
/// set, and every connection's read side; it parses frames and either
/// sheds them (RETRYABLE_BUSY, see ServerOptions::queue_limit /
/// max_pipeline) or hands them to a pool of worker threads. The event
/// loop never writes to a socket — shed and protocol-error replies are
/// handed to the workers as precomputed responses, so a peer that stops
/// reading can stall at most one worker (for the 5 s send timeout), never
/// the loop that serves every other connection. Workers execute
/// against the (already thread-safe) catalog and write the response
/// frame back under a per-connection write lock — responses to
/// pipelined requests may interleave in any order, which is why every
/// frame echoes its request_id. Stop() drains: queued requests are
/// still executed and answered before the workers exit.
class Server {
 public:
  /// Server over `catalog` (caller-owned, must outlive the server).
  /// Not yet listening; call Start().
  Server(core::AuthorIndex* catalog, ServerOptions options);

  /// Stops the server if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:options.port, spawns the event loop and workers,
  /// and returns. Fails if already started or the bind fails.
  Status Start();

  /// Port actually bound; valid after a successful Start().
  int port() const { return port_; }

  /// True between a successful Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stops accepting and reading, drains every already-queued request
  /// (responses are written), then joins all threads and closes every
  /// connection. Idempotent.
  void Stop();

  /// The registry holding this server's instruments (the one passed in
  /// options, or the private default).
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// The store of sampled completed RPC traces backing /tracez.
  const obs::TraceStore& trace_store() const { return trace_store_; }

  /// The /rpcz page: a JSON object with one RED row per opcode
  /// (request count, error count, latency quantiles, queue-wait vs
  /// execute time) plus aggregate shed/bad-frame/truncation counters
  /// and the queue-wait and execute histograms. Thread-safe.
  std::string RpczJson() const;

  /// The /tracez page: recent sampled traces bucketed by latency
  /// decade, rendered as span trees with trace ids. Thread-safe.
  std::string TracezText() const { return trace_store_.RenderText(); }

 private:
  struct Connection;  // Defined in server.cc (owns the fd).
  struct Subscriber;  // Defined in server.cc (a replication follower).

  // Per-frame context captured by the event loop before enqueueing:
  // the decoded trace extension (if any) and lifecycle timestamps.
  // All POD — carrying it through the queue never allocates.
  struct FrameMeta {
    TraceContext trace_ctx;
    // The request frame carried kFlagTraceContext; the response must
    // carry the context back regardless of the sampling decision.
    bool traced = false;
    uint64_t read_ns = 0;       // Before the read() that completed it.
    uint64_t read_done_ns = 0;  // After that read() returned.
    uint64_t decoded_ns = 0;    // After DecodeFrame accepted it.
  };

  // One parsed request frame awaiting a worker — or, when has_response
  // is set, a precomputed control reply (shed / protocol error) that a
  // worker only needs to write (the event loop must never write).
  struct Task {
    std::shared_ptr<Connection> conn;
    FrameHeader header;
    std::string payload;
    FrameMeta meta;
    // Record a lifecycle span tree for this request (client decision
    // when traced, head sampler otherwise).
    bool sampled = false;
    uint64_t enqueue_ns = 0;
    bool has_response = false;
    ResponsePayload response;
    // Shut the connection down after writing (BAD_FRAME semantics).
    bool close_after = false;
  };

  void EventLoop();
  void WorkerLoop();

  // Accepts as many pending connections as the loopback backlog holds.
  void AcceptPending();

  // Reads available bytes, parses frames, enqueues or sheds them.
  // Returns false when the connection died and was unregistered.
  bool HandleReadable(const std::shared_ptr<Connection>& conn);

  // Enqueues a parsed frame or sheds it with RETRYABLE_BUSY. Returns
  // false when the connection was dropped (control-reply flood).
  bool EnqueueOrShed(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& header, std::string_view payload,
                     const FrameMeta& meta);

  // Hands a precomputed reply (shed or protocol error) to the worker
  // pool; the event loop must never block on a peer's socket itself.
  // Returns false when the connection was dropped instead because too
  // many control replies were already pending on it.
  bool EnqueueControl(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, ResponsePayload response,
                      bool close_after);

  // Stops watching `conn` (no further reads) without shutting the
  // socket down, so an already-queued reply can still be written; the
  // fd closes when the last shared_ptr drops.
  void Quarantine(const std::shared_ptr<Connection>& conn);

  // Executes one request and writes its response frame.
  void ExecuteTask(const Task& task);

  // Builds the response payload for one request (no I/O except the
  // replication-subscribe setup). Engine spans are appended to `trace`
  // when non-null (sampled requests only). An accepted REPL_SUBSCRIBE
  // fills `*pending_sub` (registered but inactive); ExecuteTask
  // activates it only after the ack response is on the wire, so the
  // RESPONSE frame always precedes the stream.
  ResponsePayload HandleRequest(const Task& task, obs::Trace* trace,
                                std::shared_ptr<Subscriber>* pending_sub);

  // --- replication feeder (primary side of WAL shipping) ---

  // Handles one REPL_SUBSCRIBE: validates the cursor, registers the
  // subscriber inactive, and builds the ack. On a non-OK response
  // nothing is registered.
  ResponsePayload HandleReplSubscribe(
      const Task& task, std::shared_ptr<Subscriber>* pending_sub);

  // Streams records/heartbeats to every active subscriber at the
  // repl_heartbeat_interval_ms cadence.
  void FeederLoop();

  // One feeder pass over `sub`. Returns false when the subscriber is
  // dead (connection closed or unservable) and must be dropped.
  bool FeedSubscriber(const std::shared_ptr<Subscriber>& sub,
                      storage::ReplicationSource* source);

  // Registers `sub` (inactive).
  void RegisterSubscriber(const std::shared_ptr<Subscriber>& sub);

  // Marks `sub` live for the feeder (its ack is on the wire).
  void ActivateSubscriber(const std::shared_ptr<Subscriber>& sub);

  // Drops `sub`.
  void RemoveSubscriber(const std::shared_ptr<Subscriber>& sub);

  // Wakes the feeder when subscribers exist, so a committed mutation
  // ships immediately instead of at the next heartbeat tick. Best
  // effort: a missed wakeup only costs one interval of lag.
  void KickFeeder();

  // Writes one non-RESPONSE stream frame (REPL_RECORDS /
  // REPL_HEARTBEAT) under the connection's write lock. Returns false
  // and poisons the connection on failure.
  bool WriteStreamFrame(const std::shared_ptr<Connection>& conn,
                        Opcode opcode, uint64_t request_id,
                        std::string_view payload);

  // Serializes and writes a response frame on `conn` (takes its write
  // lock; drops the connection on write failure). A non-empty
  // trace_prefix (encoded trace context + span list) is spliced ahead
  // of the response payload with kFlagTraceContext set.
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     uint64_t request_id, const ResponsePayload& response,
                     std::string_view trace_prefix);

  // A fresh nonzero trace id from the server's RNG. Thread-safe.
  obs::TraceId GenerateTraceId();

  // Removes `conn` from the epoll set and the live map.
  void Unregister(const std::shared_ptr<Connection>& conn);

  core::AuthorIndex* catalog_;
  ServerOptions options_;

  // Set when options.metrics == nullptr; metrics_ then points at it.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Logger* log_ = nullptr;  // Never null (Logger::Disabled()).

  // Request opcodes get a dense index (PING=0 .. REPL_SUBSCRIBE=5) for
  // the per-opcode instrument arrays below.
  static constexpr size_t kNumOps = kRequestOpcodeCount;

  obs::Counter* connections_total_ = nullptr;
  obs::Gauge* active_connections_ = nullptr;
  obs::Counter* rejected_connections_total_ = nullptr;
  obs::Counter* requests_total_ = nullptr;
  obs::Counter* errors_total_ = nullptr;
  obs::Counter* shed_requests_total_ = nullptr;
  obs::Counter* bad_frames_total_ = nullptr;
  obs::Counter* truncated_results_total_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::LatencyHistogram* request_ns_ = nullptr;
  obs::LatencyHistogram* queue_wait_ns_ = nullptr;
  obs::LatencyHistogram* execute_ns_ = nullptr;
  obs::Counter* bytes_in_total_ = nullptr;
  obs::Counter* bytes_out_total_ = nullptr;
  // Per-opcode views of the request/error/latency families (labeled
  // `{op="QUERY"}` etc. on /metrics).
  obs::Counter* op_requests_total_[kNumOps] = {};
  obs::Counter* op_errors_total_[kNumOps] = {};
  obs::LatencyHistogram* op_request_ns_[kNumOps] = {};
  // Per-opcode queue-wait vs execute time for the /rpcz breakdown
  // (plain relaxed sums; the aggregate histograms carry the quantiles).
  std::atomic<uint64_t> op_queue_wait_sum_ns_[kNumOps] = {};
  std::atomic<uint64_t> op_execute_sum_ns_[kNumOps] = {};

  obs::TraceSampler sampler_;
  obs::TraceStore trace_store_;
  Mutex trace_mu_;
  // Generates trace ids for head-sampled requests that arrived without
  // a client context (and for slow-path always-samples).
  Random trace_rng_ AUTHIDX_GUARDED_BY(trace_mu_);

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() unblocks epoll_wait().
  int port_ = 0;

  std::thread event_thread_;
  std::vector<std::thread> workers_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Task> queue_ AUTHIDX_GUARDED_BY(queue_mu_);
  // Precomputed shed/error replies; drained ahead of queue_ (cheap,
  // already built, and generated precisely when queue_ is full).
  std::deque<Task> control_queue_ AUTHIDX_GUARDED_BY(queue_mu_);
  // Set by Stop() after the event loop exits; workers drain the queue
  // and then return.
  bool stopping_ AUTHIDX_GUARDED_BY(queue_mu_) = false;

  Mutex conns_mu_;
  // Live connections by fd. Only the event loop inserts; the event
  // loop and Stop() erase.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_
      AUTHIDX_GUARDED_BY(conns_mu_);

  // --- replication feeder state ---
  // Started by Start() when the catalog is a storage-backed primary;
  // never started in replica mode or for in-memory catalogs.
  std::thread feeder_thread_;
  Mutex feeder_mu_;
  CondVar feeder_cv_;
  // Membership is guarded by feeder_mu_; a Subscriber's mutable fields
  // (cursor, heartbeat time) are touched only by the feeder thread once
  // the subscriber is active.
  std::vector<std::shared_ptr<Subscriber>> subscribers_
      AUTHIDX_GUARDED_BY(feeder_mu_);
  bool feeder_stop_ AUTHIDX_GUARDED_BY(feeder_mu_) = false;

  obs::Counter* repl_records_shipped_total_ = nullptr;
  obs::Gauge* repl_subscribers_ = nullptr;
};

}  // namespace authidx::net

#endif  // AUTHIDX_NET_SERVER_H_
