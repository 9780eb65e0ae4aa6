#include "authidx/net/replica.h"

#include <chrono>
#include <climits>
#include <thread>
#include <utility>

#include "authidx/common/retry.h"
#include "authidx/storage/engine.h"

namespace authidx::net {

namespace {

// Sleeps `delay_us` in small slices so Stop() is honored promptly.
void SleepInterruptible(uint64_t delay_us, const std::atomic<bool>& stop) {
  constexpr uint64_t kSliceUs = 10 * 1000;
  while (delay_us > 0 && !stop.load(std::memory_order_acquire)) {
    uint64_t slice = delay_us < kSliceUs ? delay_us : kSliceUs;
    std::this_thread::sleep_for(std::chrono::microseconds(slice));
    delay_us -= slice;
  }
}

}  // namespace

ReplicationFollower::ReplicationFollower(core::AuthorIndex* catalog,
                                         std::string dir,
                                         ReplicaOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      applier_(std::move(dir), catalog->storage_engine() != nullptr
                                   ? catalog->storage_engine()->env()
                                   : nullptr),
      backoff_rng_(obs::MonotonicNowNs() | 1) {
  log_ = options_.logger != nullptr ? options_.logger
                                    : obs::Logger::Disabled();
  obs::MetricsRegistry* registry = options_.metrics != nullptr
                                       ? options_.metrics
                                       : catalog_->mutable_metrics();
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_metrics_.get();
  }
  records_applied_total_ = registry->RegisterCounter(
      "authidx_repl_records_applied_total",
      "Log records (or pieces of a split record) applied from the "
      "replication stream");
  reconnects_total_ = registry->RegisterCounter(
      "authidx_repl_reconnects_total",
      "Reconnect attempts after a lost or failed primary connection");
  lag_records_ = registry->RegisterGauge(
      "authidx_repl_lag_records",
      "Records received from the primary but not yet applied");
  lag_bytes_ = registry->RegisterGauge(
      "authidx_repl_lag_bytes",
      "Log bytes between the applied cursor and the primary's committed "
      "frontier (lower bound across a segment roll)");
  apply_ns_ = registry->RegisterLatencyHistogram(
      "authidx_repl_apply_ns",
      "Latency of applying one replicated record into the catalog");
}

ReplicationFollower::~ReplicationFollower() { Stop(); }

uint64_t ReplicationFollower::NsSinceLastContact() const {
  uint64_t last = last_contact_ns_.load(std::memory_order_acquire);
  if (last == 0) {
    return UINT64_MAX;
  }
  uint64_t now = obs::MonotonicNowNs();
  return now >= last ? now - last : 0;
}

storage::WalPosition ReplicationFollower::applied_position() const {
  MutexLock lock(pos_mu_);
  return applied_pos_;
}

storage::WalPosition ReplicationFollower::primary_committed() const {
  MutexLock lock(pos_mu_);
  return committed_pos_;
}

void ReplicationFollower::NoteContact() {
  last_contact_ns_.store(obs::MonotonicNowNs(), std::memory_order_release);
}

void ReplicationFollower::UpdateLag() {
  MutexLock lock(pos_mu_);
  uint64_t bytes = 0;
  if (committed_pos_.wal_number == applied_pos_.wal_number) {
    bytes = committed_pos_.offset > applied_pos_.offset
                ? committed_pos_.offset - applied_pos_.offset
                : 0;
  } else if (applied_pos_ < committed_pos_) {
    // Across a segment roll the sealed segments' sizes are unknown
    // here; report the committed segment's own bytes as a lower bound.
    bytes = committed_pos_.offset;
  }
  lag_bytes_->Set(static_cast<int64_t>(bytes));
}

Status ReplicationFollower::ApplyRecordsBatch(std::string_view payload) {
  WireReplRecords batch;
  AUTHIDX_RETURN_NOT_OK(DecodeReplRecords(payload, &batch));
  NoteContact();
  {
    MutexLock lock(pos_mu_);
    committed_pos_ = {batch.committed.wal_number, batch.committed.offset};
  }
  size_t remaining = batch.records.size();
  lag_records_->Set(static_cast<int64_t>(remaining));
  for (const std::string& record : batch.records) {
    uint64_t start_ns = obs::MonotonicNowNs();
    AUTHIDX_RETURN_NOT_OK(catalog_->ApplyReplicatedRecord(record));
    apply_ns_->Record(obs::MonotonicNowNs() - start_ns);
    records_applied_total_->Inc();
    lag_records_->Set(static_cast<int64_t>(--remaining));
  }
  // The crash-consistency contract: the cursor moves only after every
  // record up to it is applied. A crash before this line re-delivers
  // the batch; the idempotent apply path skips it.
  storage::WalPosition end{batch.end.wal_number, batch.end.offset};
  AUTHIDX_RETURN_NOT_OK(applier_.CommitPosition(end));
  {
    MutexLock lock(pos_mu_);
    applied_pos_ = end;
  }
  UpdateLag();
  return Status::OK();
}

Status ReplicationFollower::StreamOnce(bool stop_when_caught_up) {
  Result<storage::WalPosition> loaded = applier_.LoadPosition();
  if (!loaded.ok()) {
    return loaded.status();
  }
  storage::WalPosition pos = *loaded;
  {
    MutexLock lock(pos_mu_);
    applied_pos_ = pos;
  }

  ClientOptions copts;
  copts.host = options_.primary_host;
  copts.port = options_.primary_port;
  copts.io_timeout_ms = options_.io_timeout_ms;
  copts.retry.max_attempts = 1;  // The outer loop owns reconnects.
  Client client(copts);
  AUTHIDX_RETURN_NOT_OK(client.Connect());

  WireReplSubscribeAck ack;
  bool reseeded = false;
  for (;;) {
    std::string payload;
    EncodeReplSubscribe({pos.wal_number, pos.offset}, &payload);
    uint64_t request_id = 0;
    AUTHIDX_RETURN_NOT_OK(
        client.SendRequest(Opcode::kReplSubscribe, payload, &request_id));
    uint64_t response_id = 0;
    ResponsePayload response;
    AUTHIDX_RETURN_NOT_OK(client.ReceiveResponse(&response_id, &response));
    if (response.status == WireStatus::kNotFound && !reseeded &&
        !(pos == storage::WalPosition{})) {
      // The cursor lies past the primary's log (which keeps every
      // segment): this primary is not the one we followed — restored
      // from backup, or a different store. An empty follower simply
      // reads the new log from the start; one holding data may have
      // entries the primary lacks and must be reseeded by the operator.
      if (catalog_->entry_count() != 0) {
        return Status::FailedPrecondition(
            "replication cursor is not servable by the primary and the "
            "replica is not empty; wipe the replica store to reseed");
      }
      log_->Log(obs::LogLevel::kWarn, "repl_cursor_lost",
                {{"wal", pos.wal_number}, {"offset", pos.offset}});
      pos = {};
      AUTHIDX_RETURN_NOT_OK(applier_.CommitPosition(pos));
      {
        MutexLock lock(pos_mu_);
        applied_pos_ = pos;
      }
      reseeded = true;
      continue;
    }
    if (response.status != WireStatus::kOk) {
      return StatusFromWire(response.status, std::move(response.message));
    }
    AUTHIDX_RETURN_NOT_OK(DecodeReplSubscribeAck(response.body, &ack));
    break;
  }
  log_->Log(obs::LogLevel::kInfo, "repl_subscribed",
            {{"wal", ack.start.wal_number}, {"offset", ack.start.offset}});

  while (!stop_.load(std::memory_order_acquire)) {
    FrameHeader header;
    std::string body;
    AUTHIDX_RETURN_NOT_OK(client.ReceiveStreamFrame(&header, &body));
    switch (header.opcode) {
      case Opcode::kReplRecords:
        AUTHIDX_RETURN_NOT_OK(ApplyRecordsBatch(body));
        break;
      case Opcode::kReplHeartbeat: {
        WireReplHeartbeat hb;
        AUTHIDX_RETURN_NOT_OK(DecodeReplHeartbeat(body, &hb));
        NoteContact();
        primary_degraded_.store(hb.degraded != 0,
                                std::memory_order_release);
        {
          MutexLock lock(pos_mu_);
          committed_pos_ = {hb.committed.wal_number, hb.committed.offset};
        }
        UpdateLag();
        break;
      }
      default:
        return Status::Corruption(
            "unexpected opcode " +
            std::to_string(static_cast<int>(header.opcode)) +
            " on the replication stream");
    }
    if (stop_when_caught_up) {
      MutexLock lock(pos_mu_);
      if (applied_pos_ == committed_pos_) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status ReplicationFollower::CatchUpOnce() {
  if (catalog_->storage_engine() == nullptr) {
    return Status::FailedPrecondition(
        "replication follower requires a persistent replica catalog");
  }
  return StreamOnce(/*stop_when_caught_up=*/true);
}

Status ReplicationFollower::Start() {
  if (catalog_->storage_engine() == nullptr) {
    return Status::FailedPrecondition(
        "replication follower requires a persistent replica catalog");
  }
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("follower already running");
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] {
    RetryPolicy policy;
    policy.max_attempts = INT_MAX;
    policy.base_delay_us = options_.reconnect_base_delay_us;
    policy.max_delay_us = options_.reconnect_max_delay_us;
    int attempt = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      uint64_t contact_before =
          last_contact_ns_.load(std::memory_order_acquire);
      Status status = StreamOnce(/*stop_when_caught_up=*/false);
      if (stop_.load(std::memory_order_acquire)) {
        break;
      }
      // A stream that made contact before failing earned a fresh
      // backoff ladder; a primary that is plain down keeps doubling.
      if (last_contact_ns_.load(std::memory_order_acquire) !=
          contact_before) {
        attempt = 0;
      }
      attempt = attempt < 30 ? attempt + 1 : attempt;
      reconnects_total_->Inc();
      uint64_t delay_us = RetryBackoffDelayUs(policy, attempt,
                                              &backoff_rng_);
      log_->Log(obs::LogLevel::kWarn, "repl_reconnect",
                {{"error", status.ToString()},
                 {"attempt", static_cast<uint64_t>(attempt)},
                 {"delay_us", delay_us}});
      SleepInterruptible(delay_us, stop_);
    }
  });
  return Status::OK();
}

void ReplicationFollower::Stop() {
  stop_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  running_.store(false, std::memory_order_release);
}

}  // namespace authidx::net
