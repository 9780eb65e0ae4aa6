#ifndef AUTHIDX_NET_REPLICA_H_
#define AUTHIDX_NET_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "authidx/common/mutex.h"
#include "authidx/common/random.h"
#include "authidx/common/status.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/core/author_index.h"
#include "authidx/net/client.h"
#include "authidx/obs/log.h"
#include "authidx/obs/metrics.h"
#include "authidx/storage/replication.h"

namespace authidx::net {

/// Tuning knobs for a ReplicationFollower.
struct ReplicaOptions {
  /// The primary's address.
  std::string primary_host = "127.0.0.1";
  /// The primary's RPC port.
  int primary_port = 0;
  /// Bound on each socket receive while streaming. Must comfortably
  /// exceed the primary's heartbeat interval: a receive timeout is read
  /// as "primary silent", the connection is dropped, and the reconnect
  /// loop takes over. Also bounds how long Stop() can block.
  int io_timeout_ms = 5000;
  /// Reconnect backoff: attempts are unbounded (a follower's job is to
  /// outlive primary restarts), the delay doubles from base to max.
  uint64_t reconnect_base_delay_us = 50 * 1000;
  /// Backoff ceiling for the doubling above.
  uint64_t reconnect_max_delay_us = 5 * 1000 * 1000;
  /// Registry for the authidx_repl_* follower instruments (must outlive
  /// the follower). nullptr uses the catalog's own registry so one
  /// /metrics page covers the engine and the replication loop.
  obs::MetricsRegistry* metrics = nullptr;
  /// Logger for subscribe/reconnect/bootstrap events (must outlive the
  /// follower). nullptr means obs::Logger::Disabled().
  obs::Logger* logger = nullptr;
};

/// The follower half of WAL shipping: subscribes to a primary server
/// (REPL_SUBSCRIBE), applies the pushed REPL_RECORDS stream into a
/// replica catalog (core::AuthorIndex::OpenReplica), and durably
/// commits its cursor through a storage::ReplicationApplier —
/// only *after* the records up to it are applied, so a crash at any
/// point re-delivers records the catalog already holds and the
/// idempotent apply path skips them.
///
/// Two ways to drive it:
///  * CatchUpOnce() — one synchronous pass: connect, subscribe, apply
///    until the stream reports the follower caught up, then disconnect.
///    Deterministic; what the tests and the initial sync use.
///  * Start()/Stop() — a background thread doing the same loop forever,
///    reconnecting with capped exponential backoff on any failure
///    (authidx_repl_reconnects_total counts them).
///
/// Thread safety: Start/Stop/CatchUpOnce must be called from one
/// thread; the metric accessors (applied_position, NsSinceLastContact,
/// primary_degraded, ...) are safe from any thread.
class ReplicationFollower {
 public:
  /// Follower feeding `catalog` (opened with OpenReplica, caller-owned,
  /// must outlive the follower) whose store lives in `dir` (where the
  /// REPL_POSITION cursor sidecar is kept).
  ReplicationFollower(core::AuthorIndex* catalog, std::string dir,
                      ReplicaOptions options);

  /// Stops the background loop if running.
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  /// One synchronous pass: subscribe at the durable cursor and apply
  /// the stream until caught up with the primary's committed frontier.
  /// An empty follower (cursor {0,0}) reads the primary's log from its
  /// first segment. A NOT_FOUND subscribe answer (the cursor belongs to
  /// some other store) re-subscribes at {0,0} when the catalog is still
  /// empty, and is a permanent error otherwise — the operator must
  /// reseed the replica from scratch.
  Status CatchUpOnce();

  /// Spawns the background replication loop. Fails if already running.
  Status Start();

  /// Stops and joins the background loop. Idempotent.
  void Stop();

  /// True between Start() and Stop().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Nanoseconds since the last frame from the primary (records or
  /// heartbeat); UINT64_MAX before first contact.
  /// The staleness signal behind a replica's /healthz.
  uint64_t NsSinceLastContact() const;

  /// True when the primary's last heartbeat reported its storage
  /// engine degraded.
  bool primary_degraded() const {
    return primary_degraded_.load(std::memory_order_acquire);
  }

  /// The durably committed replication cursor (next unread WAL byte).
  storage::WalPosition applied_position() const;

  /// The primary's committed frontier as of the last frame.
  storage::WalPosition primary_committed() const;

 private:
  // The streaming core: connect, subscribe, apply frames. Returns OK
  // when `stop_when_caught_up` and the stream reached the committed
  // frontier; otherwise only returns on error or Stop().
  Status StreamOnce(bool stop_when_caught_up);

  // Applies one REPL_RECORDS batch and commits the cursor.
  Status ApplyRecordsBatch(std::string_view payload);

  void NoteContact();
  void UpdateLag() AUTHIDX_EXCLUDES(pos_mu_);

  core::AuthorIndex* catalog_;
  ReplicaOptions options_;
  storage::ReplicationApplier applier_;
  obs::Logger* log_;  // Never null (Logger::Disabled()).
  Random backoff_rng_;

  obs::Counter* records_applied_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;
  obs::Gauge* lag_records_ = nullptr;
  obs::Gauge* lag_bytes_ = nullptr;
  obs::LatencyHistogram* apply_ns_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

  mutable Mutex pos_mu_;
  storage::WalPosition applied_pos_ AUTHIDX_GUARDED_BY(pos_mu_);
  storage::WalPosition committed_pos_ AUTHIDX_GUARDED_BY(pos_mu_);

  std::atomic<uint64_t> last_contact_ns_{0};
  std::atomic<bool> primary_degraded_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::thread loop_thread_;
};

}  // namespace authidx::net

#endif  // AUTHIDX_NET_REPLICA_H_
