#include "authidx/storage/engine.h"

#include <algorithm>
#include <vector>

#include "authidx/common/strings.h"
#include "authidx/obs/trace.h"

namespace authidx::storage {

namespace {

// The newest segment rolls to the next number once it holds this many
// bytes (checked between commit groups, so a segment can overshoot by
// one group).
constexpr uint64_t kSegmentBytes = 64 << 20;

// Cap on the log bytes one group-commit leader writes on behalf of the
// writers queued behind it; keeps worst-case leader latency bounded.
constexpr size_t kMaxGroupCommitBytes = 1 << 20;

// Matches `<digits>.wal` (the WalFileName shape) and extracts the
// number; anything else — the replication cursor, a repair's temp
// file, foreign files — is not a segment.
bool ParseSegmentName(const std::string& name, uint64_t* number) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot == 0 ||
      std::string_view(name).substr(dot) != ".wal") {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 0; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *number = value;
  return true;
}

Status DamageError(const std::string& path, uint64_t offset) {
  return Status::Corruption(
      StringPrintf("log segment %s is damaged at offset %llu", path.c_str(),
                   static_cast<unsigned long long>(offset)));
}

Status ApplyOnlyError() {
  return Status::FailedPrecondition(
      "engine is a replication follower (apply-only): direct writes "
      "are rejected, mutate the primary instead");
}

}  // namespace

StorageEngine::StorageEngine(std::string dir, EngineOptions options)
    : dir_(std::move(dir)),
      options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      owned_metrics_(options.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : owned_metrics_.get()),
      log_(options.logger != nullptr ? options.logger
                                     : obs::Logger::Disabled()) {
  RegisterInstruments();
}

void StorageEngine::RegisterInstruments() {
  m_.wal_appends = metrics_->RegisterCounter(
      "authidx_wal_appends_total", "WAL records appended");
  m_.wal_append_bytes = metrics_->RegisterCounter(
      "authidx_wal_append_bytes_total", "WAL record payload bytes appended");
  m_.wal_syncs = metrics_->RegisterCounter(
      "authidx_wal_syncs_total", "WAL fdatasync calls");
  m_.wal_append_ns = metrics_->RegisterLatencyHistogram(
      "authidx_wal_append_duration_ns", "Latency of one WAL append, ns");
  m_.wal_sync_ns = metrics_->RegisterLatencyHistogram(
      "authidx_wal_sync_duration_ns", "Latency of one WAL fdatasync, ns");
  m_.segment_rolls = metrics_->RegisterCounter(
      "authidx_wal_segment_rolls_total",
      "Log segment rolls (size threshold or Flush)");
  m_.segments = metrics_->RegisterGauge(
      "authidx_wal_segments", "Log segments on disk");
  m_.puts = metrics_->RegisterCounter(
      "authidx_storage_puts_total", "Engine Put operations (incl. batched)");
  m_.recovery_records = metrics_->RegisterCounter(
      "authidx_engine_recovery_records_total",
      "Intact log records found by the open scan");
  m_.open_ns = metrics_->RegisterLatencyHistogram(
      "authidx_engine_open_duration_ns",
      "Time to open the store (the segment scan, with any replay sink it "
      "feeds, and tail repair), ns");
  m_.bg_errors = metrics_->RegisterCounter(
      "authidx_bg_errors_total",
      "Background errors that tripped degraded mode");
  m_.corrupt_records = metrics_->RegisterCounter(
      "authidx_wal_corrupt_records_total",
      "Damaged log records found by open, replay or an integrity scan");
  m_.degraded = metrics_->RegisterGauge(
      "authidx_degraded",
      "1 while a sticky background error has the engine degraded");
  m_.group_commit_batches = metrics_->RegisterCounter(
      "authidx_group_commit_batches_total",
      "Writer-queue group commits (one leader WAL pass each)");
  m_.group_commit_writes = metrics_->RegisterCounter(
      "authidx_group_commit_writes_total",
      "Writes committed through group commit (batches * mean group size)");
}

Status StorageEngine::WritableStatusLocked() const {
  if (closed_ || closing_) {
    return Status::FailedPrecondition("engine closed");
  }
  if (!bg_error_.ok()) {
    return bg_error_.WithContext("write rejected: engine degraded");
  }
  return Status::OK();
}

void StorageEngine::SetBackgroundErrorLocked(std::string_view op,
                                             const Status& status) {
  if (status.ok() || !bg_error_.ok()) {
    return;  // First error wins; reopening the store is the only reset.
  }
  bg_error_ = status.WithContext(op);
  degraded_flag_.store(true, std::memory_order_release);
  m_.bg_errors->Inc();
  m_.degraded->Set(1);
  log_->Log(obs::LogLevel::kError, "engine_degraded",
            {{"op", op}, {"status", status.message()}});
}

void StorageEngine::PopWriterLocked() {
  writers_.pop_front();
  if (!writers_.empty()) {
    writers_.front()->cv.NotifyOne();
  }
}

StorageEngine::~StorageEngine() {
  bool need_close;
  {
    MutexLock lock(mu_);
    need_close = !closed_;
  }
  if (need_close) {
    // Destructors cannot propagate errors; callers wanting the close
    // status must call Close() explicitly before destruction.
    Close().IgnoreError();
  }
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    std::string dir, EngineOptions options, const WalOpSink* replay) {
  const uint64_t start_ns = obs::MonotonicNowNs();
  auto engine = std::unique_ptr<StorageEngine>(
      new StorageEngine(std::move(dir), options));
  AUTHIDX_RETURN_NOT_OK(engine->env_->CreateDirIfMissing(engine->dir_));
  AUTHIDX_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           engine->env_->ListDir(engine->dir_));
  std::vector<uint64_t> segments;
  for (const std::string& name : names) {
    if (name == "MANIFEST" || EndsWith(name, ".tbl")) {
      return Status::Corruption(
          engine->dir_ + "/" + name +
          " belongs to a store written before the segmented log; "
          "re-ingest the source data");
    }
    uint64_t number = 0;
    if (ParseSegmentName(name, &number)) {
      segments.push_back(number);
    }
  }
  std::sort(segments.begin(), segments.end());
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i] != i + 1) {
      return Status::Corruption("missing log segment " +
                                WalFileName(engine->dir_, i + 1));
    }
  }
  // Recovery is single-threaded (nothing else can reach the engine
  // yet), so holding the mutex across the scan costs nothing — and it
  // keeps every touch of guarded state on a path the analysis proves.
  MutexLock lock(engine->mu_);
  AUTHIDX_RETURN_NOT_OK(engine->RecoverLocked(segments.size(), replay));
  const uint64_t duration_ns = obs::MonotonicNowNs() - start_ns;
  engine->m_.open_ns->Record(duration_ns);
  engine->log_->Log(
      obs::LogLevel::kInfo, "engine_open",
      {{"dir", engine->dir_},
       {"segments", engine->stats_.segments},
       {"wal_replayed_records", engine->stats_.wal_replayed_records},
       {"duration_ns", duration_ns}});
  return engine;
}

Status StorageEngine::RecoverLocked(uint64_t count,
                                    const WalOpSink* replay) {
  uint64_t records = 0, bytes = 0;
  uint64_t newest_bytes = 0;
  for (uint64_t n = 1; n <= count; ++n) {
    const std::string path = WalFileName(dir_, n);
    Result<WalScan> scan = ScanSegment(env_, path, UINT64_MAX, replay);
    if (!scan.ok()) {
      return scan.status().WithContext("scanning " + path);
    }
    records += scan->records;
    bytes += scan->bytes;
    newest_bytes = scan->bytes;
    if (!scan->damaged) {
      continue;
    }
    if (n < count) {
      // The log is the only copy: skipping damage here would silently
      // drop every later record.
      m_.corrupt_records->Inc();
      log_->Log(obs::LogLevel::kError, "wal_corrupt",
                {{"segment", n}, {"offset", scan->bytes}});
      return DamageError(path, scan->bytes);
    }
    // A crash mid-append tore the newest segment's tail. Cut it off so
    // the next write never lands behind garbage (a segment that stops
    // being the newest must be whole).
    stats_.wal_tail_corruption = true;
    log_->Log(obs::LogLevel::kWarn, "wal_tail_truncated",
              {{"segment", n},
               {"records_kept", scan->records},
               {"offset", scan->bytes}});
    if (scan->bytes > 0) {
      AUTHIDX_RETURN_NOT_OK(TruncateSegment(path, scan->bytes));
    }
  }
  stats_.wal_replayed_records = records;
  stats_.wal_replayed_bytes = bytes;
  m_.recovery_records->Inc(records);
  if (records > 0 || stats_.wal_tail_corruption) {
    log_->Log(obs::LogLevel::kInfo, "wal_recovery",
              {{"segments", count},
               {"records_replayed", records},
               {"tail_corruption", stats_.wal_tail_corruption}});
  }
  // Writes go to an empty newest segment when there is one (recreating
  // it drops nothing but, at most, a torn first record), else to the
  // next number.
  const uint64_t active = count > 0 && newest_bytes == 0 ? count : count + 1;
  AUTHIDX_ASSIGN_OR_RETURN(wal_,
                           WalWriter::Open(env_, WalFileName(dir_, active)));
  committed_pos_ = {active, 0};
  stats_.segments = active;
  m_.segments->Set(static_cast<int64_t>(active));
  return Status::OK();
}

Status StorageEngine::TruncateSegment(const std::string& path,
                                      uint64_t bytes) {
  const std::string tmp = path + ".tmp";
  AUTHIDX_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> in,
                           env_->NewRandomAccessFile(path));
  AUTHIDX_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                           env_->NewWritableFile(tmp));
  std::string buf;
  for (uint64_t off = 0; off < bytes;) {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(kWalReadBufferBytes, bytes - off));
    std::string_view chunk;
    AUTHIDX_RETURN_NOT_OK(in->Read(off, n, &buf, &chunk));
    if (chunk.size() != n) {
      return Status::Corruption("log segment shrank during repair: " + path);
    }
    AUTHIDX_RETURN_NOT_OK(out->Append(chunk));
    off += n;
  }
  AUTHIDX_RETURN_NOT_OK(out->Sync());
  AUTHIDX_RETURN_NOT_OK(out->Close());
  return env_->RenameFile(tmp, path);
}

Result<WalScan> StorageEngine::ScanLog(WalPosition end,
                                       const WalOpSink* fn) const {
  WalScan total;
  for (uint64_t n = 1; n <= end.wal_number; ++n) {
    const std::string path = WalFileName(dir_, n);
    const uint64_t limit = n == end.wal_number ? end.offset : UINT64_MAX;
    Result<WalScan> scan = ScanSegment(env_, path, limit, fn);
    if (!scan.ok()) {
      return scan.status().WithContext("reading " + path);
    }
    total.records += scan->records;
    total.bytes += scan->bytes;
    // Everything below the committed position is whole records: any
    // shortfall is damage, in the newest segment as in a sealed one.
    if (scan->damaged || (n == end.wal_number && scan->bytes != limit)) {
      m_.corrupt_records->Inc();
      return DamageError(path, scan->bytes);
    }
  }
  return total;
}

std::string StorageEngine::EncodePutRecord(std::string_view key,
                                           std::string_view value) {
  // A put record's bytes are those of one batch op.
  WriteBatch op;
  op.Put(key, value);
  return op.rep();
}

Status StorageEngine::QueueWrite(std::string record, uint64_t puts) {
  Writer w;
  w.kind = Writer::Kind::kWrite;
  w.record = std::move(record);
  w.puts = puts;
  MutexLock lock(mu_);
  writers_.push_back(&w);
  while (!w.done && writers_.front() != &w) {
    w.cv.Wait(mu_);
  }
  if (w.done) {
    return w.status;  // A leader committed (or failed) this write.
  }
  // This writer is the leader for the group at the queue front.
  Status s = WritableStatusLocked();
  if (!s.ok()) {
    // Fail only this write; the next writer re-evaluates for itself.
    PopWriterLocked();
    return s;
  }
  // Build the commit group: consecutive plain writes behind the leader,
  // capped so one pass cannot grow unboundedly. Sentinels stop it.
  std::vector<Writer*> group;
  group.push_back(&w);
  size_t group_bytes = w.record.size();
  uint64_t group_puts = w.puts;
  for (size_t i = 1; i < writers_.size() && group_bytes < kMaxGroupCommitBytes;
       ++i) {
    Writer* peer = writers_[i];
    if (peer->kind != Writer::Kind::kWrite) {
      break;
    }
    group.push_back(peer);
    group_bytes += peer->record.size();
    group_puts += peer->puts;
  }
  WalWriter* wal = wal_.get();
  const uint64_t segment = committed_pos_.wal_number;
  const bool sync = options_.sync_writes;
  // The log is safe to touch without the mutex: only the queue-front
  // writer appends to it or rolls it. Relocked below (balanced pair
  // under the scoped MutexLock).
  mu_.Unlock();

  Status commit;
  const char* fail_op = "wal_append";
  uint64_t appended = 0, appended_bytes = 0;
  for (Writer* peer : group) {
    obs::TraceSpan timer(nullptr, m_.wal_append_ns, "wal_append");
    commit = wal->Append(peer->record);
    if (!commit.ok()) {
      break;
    }
    ++appended;
    appended_bytes += peer->record.size();
  }
  if (appended > 0) {
    m_.wal_appends->Inc(appended);
    m_.wal_append_bytes->Inc(appended_bytes);
  }
  if (commit.ok() && sync) {
    // One fdatasync covers the whole group: this is the fsync
    // amortization that makes concurrent synced writers scale.
    obs::TraceSpan timer(nullptr, m_.wal_sync_ns, "wal_sync");
    commit = wal->Sync();
    if (commit.ok()) {
      m_.wal_syncs->Inc();
    } else {
      fail_op = "wal_sync";
    }
  } else if (commit.ok()) {
    // Unsynced writes still leave the user-space buffer per group: the
    // committed frontier (below) promises readers that every byte
    // behind it is visible in the file.
    commit = wal->Flush();
  }

  mu_.Lock();
  if (!commit.ok()) {
    log_->Log(obs::LogLevel::kError,
              std::string_view(fail_op) == "wal_sync" ? "wal_sync_failed"
                                                      : "wal_append_failed",
              {{"bytes", group_bytes}, {"status", commit.message()}});
    SetBackgroundErrorLocked(fail_op, commit);
  } else {
    committed_pos_ = {segment, wal->bytes_written()};
    stats_.puts += group_puts;
    m_.puts->Inc(group_puts);
    m_.group_commit_batches->Inc();
    m_.group_commit_writes->Inc(group.size());
    if (wal->bytes_written() >= kSegmentBytes) {
      // Roll between commit groups, still at the queue front. A failed
      // roll degrades the engine but does not fail this group: its
      // records are already committed.
      Status rolled = RollSegmentLocked();
      if (!rolled.ok()) {
        SetBackgroundErrorLocked("segment_roll", rolled);
      }
    }
  }
  // Pop the whole group (it occupies the queue front in order) and wake
  // the members, then hand the front to the next waiting writer.
  for (Writer* peer : group) {
    writers_.pop_front();
    if (peer != &w) {
      peer->status = commit;
      peer->done = true;
      peer->cv.NotifyOne();
    }
  }
  if (!writers_.empty()) {
    writers_.front()->cv.NotifyOne();
  }
  return commit;
}

Status StorageEngine::RollSegmentLocked() {
  // A segment that stops being the newest is whole on disk before any
  // record lands in the next one.
  AUTHIDX_RETURN_NOT_OK(wal_->Sync());
  m_.wal_syncs->Inc();
  const uint64_t next = committed_pos_.wal_number + 1;
  AUTHIDX_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> fresh,
                           WalWriter::Open(env_, WalFileName(dir_, next)));
  wal_->Close().IgnoreError();  // Synced above: a failed close loses nothing.
  wal_ = std::move(fresh);
  committed_pos_ = {next, 0};
  stats_.segments = next;
  m_.segments->Set(static_cast<int64_t>(next));
  m_.segment_rolls->Inc();
  log_->Log(obs::LogLevel::kInfo, "wal_segment_roll", {{"segment", next}});
  return Status::OK();
}

Status StorageEngine::Put(std::string_view key, std::string_view value) {
  if (options_.apply_only) {
    return ApplyOnlyError();
  }
  return QueueWrite(EncodePutRecord(key, value), 1);
}

Status StorageEngine::Apply(const WriteBatch& batch) {
  if (options_.apply_only) {
    return ApplyOnlyError();
  }
  if (batch.empty()) {
    MutexLock lock(mu_);
    return WritableStatusLocked();
  }
  // One log record for the whole batch: atomic under recovery.
  std::string record(1, kWalBatch);
  record += batch.rep();
  return QueueWrite(std::move(record), batch.count());
}

Status StorageEngine::ApplyReplicated(std::string_view record) {
  // Validate before queueing so a corrupt shipped record is rejected
  // here (the follower can drop the stream and resubscribe) instead of
  // landing in the follower's log.
  uint64_t puts = 0;
  Status valid =
      ForEachRecordOp(record, [&puts](std::string_view, std::string_view) {
        ++puts;
        return Status::OK();
      });
  if (!valid.ok()) {
    return valid.WithContext("rejecting malformed replicated record");
  }
  return QueueWrite(std::string(record), puts);
}

WalPosition StorageEngine::CommittedWalPosition() const {
  MutexLock lock(mu_);
  return committed_pos_;
}

Result<WalScan> StorageEngine::Replay(const WalOpSink& fn) const {
  return ScanLog(CommittedWalPosition(), &fn);
}

Status StorageEngine::Flush() {
  Writer w;
  w.kind = Writer::Kind::kFlush;
  MutexLock lock(mu_);
  writers_.push_back(&w);
  // Sentinels are never group-committed by a leader; they always reach
  // the front and process themselves.
  while (writers_.front() != &w) {
    w.cv.Wait(mu_);
  }
  Status s = WritableStatusLocked();
  if (s.ok() && committed_pos_.offset > 0) {
    s = RollSegmentLocked();
    if (!s.ok()) {
      SetBackgroundErrorLocked("flush", s);
    }
  }
  PopWriterLocked();
  return s;
}

Status StorageEngine::VerifyIntegrity() const {
  WalPosition end;
  {
    MutexLock lock(mu_);
    if (closed_) {
      return Status::FailedPrecondition("engine closed");
    }
    end = committed_pos_;
  }
  Result<WalScan> scan = ScanLog(end, nullptr);
  log_->Log(scan.ok() ? obs::LogLevel::kInfo : obs::LogLevel::kError,
            "integrity_scan",
            {{"segments", end.wal_number},
             {"records", scan.ok() ? scan->records : 0},
             {"status", scan.ok() ? std::string_view("ok")
                                  : scan.status().message()}});
  return scan.status();
}

Status StorageEngine::Close() {
  MutexLock lock(mu_);
  if (closed_) {
    return Status::OK();
  }
  Writer w;
  w.kind = Writer::Kind::kBarrier;
  writers_.push_back(&w);
  while (writers_.front() != &w) {
    w.cv.Wait(mu_);
  }
  if (closing_ || closed_) {
    // Lost the race to a concurrent Close; wait for it to finish.
    PopWriterLocked();
    while (!closed_) {
      closed_cv_.Wait(mu_);
    }
    return Status::OK();
  }
  // From this moment every queued or future write is rejected.
  closing_ = true;
  PopWriterLocked();
  // A degraded engine reports the sticky error, but still syncs and
  // closes the log best-effort so appended records get their last push
  // toward disk.
  Status s = bg_error_;
  if (wal_ != nullptr) {
    Status sync = wal_->Sync();
    Status closed = wal_->Close();
    if (s.ok()) {
      s = sync.ok() ? closed : sync;
    }
  }
  closed_ = true;
  closed_cv_.NotifyAll();
  if (s.ok()) {
    log_->Log(obs::LogLevel::kInfo, "engine_close", {{"dir", dir_}});
  } else {
    log_->Log(obs::LogLevel::kError, "engine_close_failed",
              {{"dir", dir_}, {"status", s.message()}});
  }
  return s;
}

Status StorageEngine::background_error() const {
  MutexLock lock(mu_);
  return bg_error_;
}

EngineStats StorageEngine::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace authidx::storage
