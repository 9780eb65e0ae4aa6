#include "authidx/storage/engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "authidx/common/coding.h"
#include "authidx/obs/trace.h"

namespace authidx::storage {

namespace {

constexpr char kOpPut = 'P';
constexpr char kOpBatch = 'B';

// Cap on the WAL bytes one group-commit leader writes on behalf of the
// writers queued behind it; keeps worst-case leader latency bounded.
constexpr size_t kMaxGroupCommitBytes = 1 << 20;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Iterator adapter that keeps the memtables/table-file snapshot backing
// the merged stream alive for the iterator's lifetime (`pins`), so
// flushes and compactions never invalidate it.
class PinnedIterator final : public Iterator {
 public:
  PinnedIterator(std::unique_ptr<Iterator> base,
                 std::vector<std::shared_ptr<const void>> pins)
      : base_(std::move(base)), pins_(std::move(pins)) {}

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void Seek(std::string_view target) override { base_->Seek(target); }
  void Next() override { base_->Next(); }
  std::string_view key() const override { return base_->key(); }
  std::string_view value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<Iterator> base_;
  std::vector<std::shared_ptr<const void>> pins_;
};

// Matches `<digits>.<ext>` (the TableFileName/WalFileName shapes) and
// extracts the number; anything else — MANIFEST, foreign files — is
// left alone by the sweep.
bool ParseNumberedFile(const std::string& name, std::string_view ext,
                       uint64_t* number) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos || dot == 0 ||
      std::string_view(name).substr(dot) != ext) {
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
                                     : obs::Logger::Disabled()),
      mem_(std::make_shared<MemTable>()),
      version_(std::make_shared<const Version>()) {
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
  m_.flushes = metrics_->RegisterCounter(
      "authidx_memtable_flushes_total", "Memtable flushes to level-0 tables");
  m_.flush_bytes = metrics_->RegisterCounter(
      "authidx_memtable_flush_bytes_total",
      "Approximate memtable bytes at each flush");
  m_.flush_ns = metrics_->RegisterLatencyHistogram(
      "authidx_memtable_flush_duration_ns", "Latency of one flush, ns");
  m_.compactions = metrics_->RegisterCounter(
      "authidx_compactions_total", "Level-0 -> level-1 compactions");
  m_.compaction_bytes_in = metrics_->RegisterCounter(
      "authidx_compaction_bytes_in_total",
      "Table-file bytes read by compactions");
  m_.compaction_bytes_out = metrics_->RegisterCounter(
      "authidx_compaction_bytes_out_total",
      "Table-file bytes written by compactions");
  m_.compaction_ns = metrics_->RegisterLatencyHistogram(
      "authidx_compaction_duration_ns", "Latency of one compaction, ns");
  m_.puts = metrics_->RegisterCounter(
      "authidx_storage_puts_total", "Engine Put operations (incl. batched)");
  m_.recovery_records = metrics_->RegisterCounter(
      "authidx_engine_recovery_records_total",
      "WAL records replayed during recovery");
  m_.bg_errors = metrics_->RegisterCounter(
      "authidx_bg_errors_total",
      "Background errors that tripped degraded mode");
  m_.flush_retries = metrics_->RegisterCounter(
      "authidx_retries_total{op=\"flush\"}",
      "Transient memtable-flush failures retried with backoff");
  m_.compaction_retries = metrics_->RegisterCounter(
      "authidx_retries_total{op=\"compaction\"}",
      "Transient compaction failures retried with backoff");
  m_.corrupt_blocks = metrics_->RegisterCounter(
      "authidx_corrupt_blocks_total",
      "Table blocks failing CRC, framing, or decompression checks");
  m_.gc_failures = metrics_->RegisterCounter(
      "authidx_gc_failures_total",
      "Obsolete-file removals that failed (retried after the next "
      "successful flush or compaction)");
  m_.degraded = metrics_->RegisterGauge(
      "authidx_degraded",
      "1 while a sticky background error has the engine degraded");
  m_.write_stalls = metrics_->RegisterCounter(
      "authidx_write_stalls_total",
      "Writes stalled because the previous memtable was still flushing");
  m_.write_stall_ns = metrics_->RegisterLatencyHistogram(
      "authidx_write_stall_duration_ns",
      "Time one stalled write spent waiting for the flush to land, ns");
  m_.bg_queue_depth = metrics_->RegisterGauge(
      "authidx_bg_queue_depth",
      "Background jobs pending (sealed memtable, manual or triggered "
      "compaction)");
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
            {{"op", op},
             {"status", status.message()},
             {"paranoid", options_.paranoid_checks}});
  // Every stalled writer and flush/compaction waiter must re-evaluate:
  // the work they are waiting for will never complete now.
  bg_cv_.NotifyAll();
  bg_done_cv_.NotifyAll();
}

Status StorageEngine::RunRetriesLocked(const char* op,
                                       obs::Counter* retry_counter,
                                       const std::function<Status()>& body) {
  RetryPolicy policy;
  policy.max_attempts = options_.background_retry_attempts;
  policy.base_delay_us = options_.retry_base_delay_us;
  policy.max_delay_us = options_.retry_max_delay_us;
  Status s;
  for (int attempt = 1;; ++attempt) {
    s = body();
    if (s.ok() || attempt >= policy.max_attempts || !IsTransientError(s)) {
      break;
    }
    uint64_t delay_us = RetryBackoffDelayUs(policy, attempt, &retry_rng_);
    retry_counter->Inc();
    log_->Log(obs::LogLevel::kWarn, "retry_attempt",
              {{"op", op},
               {"attempt", attempt},
               {"status", s.message()},
               {"backoff_us", delay_us}});
    if (delay_us > 0) {
      // Never sleep while holding the engine mutex: reads and the
      // background thread keep running through the backoff.
      mu_.Unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      mu_.Lock();
    }
  }
  if (!s.ok()) {
    SetBackgroundErrorLocked(op, s);
  }
  return s;
}

void StorageEngine::ScheduleFileForRemovalLocked(std::string path) {
  if (std::find(pending_removals_.begin(), pending_removals_.end(), path) ==
      pending_removals_.end()) {
    pending_removals_.push_back(std::move(path));
  }
}

void StorageEngine::RemoveObsoleteFilesLocked() {
  std::vector<std::string> still_pending;
  for (std::string& path : pending_removals_) {
    if (!env_->FileExists(path)) {
      continue;
    }
    Status s = env_->RemoveFile(path);
    if (!s.ok()) {
      // Best-effort: disk-space leak, not a correctness problem. Count
      // and log it so stuck files surface, and retry after the next
      // successful flush/compaction.
      m_.gc_failures->Inc();
      log_->Log(obs::LogLevel::kWarn, "gc_failed",
                {{"path", path}, {"status", s.message()}});
      still_pending.push_back(std::move(path));
    }
  }
  pending_removals_ = std::move(still_pending);
}

void StorageEngine::SweepUnreferencedFilesLocked() {
  Result<std::vector<std::string>> listing = env_->ListDir(dir_);
  if (!listing.ok()) {
    return;  // Best-effort, like every other GC path.
  }
  for (const std::string& name : *listing) {
    uint64_t number = 0;
    if (ParseNumberedFile(name, ".tbl", &number)) {
      if (std::none_of(manifest_.files.begin(), manifest_.files.end(),
                       [&](const FileMeta& f) {
                         return f.file_number == number;
                       })) {
        ScheduleFileForRemovalLocked(TableFileName(dir_, number));
      }
    } else if (ParseNumberedFile(name, ".wal", &number)) {
      if (number != manifest_.wal_number &&
          number != manifest_.imm_wal_number) {
        ScheduleFileForRemovalLocked(WalFileName(dir_, number));
      }
    }
  }
}

void StorageEngine::RebuildVersionLocked() {
  auto v = std::make_shared<Version>();
  stats_.l0_files = 0;
  stats_.l1_files = 0;
  for (int level = 0; level <= 1; ++level) {
    for (const FileMeta& meta : manifest_.LevelFiles(level)) {
      auto it = std::find_if(readers_.begin(), readers_.end(),
                             [&](const auto& r) {
                               return r.first == meta.file_number;
                             });
      if (it == readers_.end()) {
        continue;  // Unreachable: every commit registers its reader first.
      }
      (level == 0 ? v->level0 : v->level1).push_back({meta, it->second});
      (level == 0 ? stats_.l0_files : stats_.l1_files) += 1;
    }
  }
  version_ = std::move(v);
}

void StorageEngine::UpdateQueueDepthLocked() {
  int depth = (imm_ != nullptr ? 1 : 0) +
              (manual_compaction_ != nullptr ? 1 : 0) +
              (options_.l0_compaction_trigger > 0 &&
                       stats_.l0_files >= options_.l0_compaction_trigger
                   ? 1
                   : 0);
  m_.bg_queue_depth->Set(depth);
}

bool StorageEngine::HasBackgroundWorkLocked() const {
  if (manual_compaction_ != nullptr) {
    return true;  // Processed even when degraded, so the waiter never hangs.
  }
  if (!bg_error_.ok()) {
    return false;
  }
  return imm_ != nullptr ||
         (options_.l0_compaction_trigger > 0 &&
          stats_.l0_files >= options_.l0_compaction_trigger);
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

void StorageEngine::StartBackgroundThread() {
  bg_thread_ = std::thread(&StorageEngine::BackgroundThreadMain, this);
}

void StorageEngine::BackgroundThreadMain() {
  MutexLock lock(mu_);
  while (true) {
    while (!shutdown_ && !HasBackgroundWorkLocked()) {
      bg_cv_.Wait(mu_);
    }
    if (shutdown_) {
      if (manual_compaction_ != nullptr) {
        // Close() won the race; the waiter still gets a definite answer.
        manual_compaction_->status =
            Status::FailedPrecondition("engine closed");
        manual_compaction_->done = true;
        manual_compaction_ = nullptr;
        bg_done_cv_.NotifyAll();
      }
      return;
    }
    if (imm_ != nullptr && bg_error_.ok()) {
      RunRetriesLocked("flush", m_.flush_retries, [this] {
        mu_.AssertHeld();
        return FlushImmLocked();
      }).IgnoreError();
    } else if (manual_compaction_ != nullptr) {
      ManualCompaction* mc = manual_compaction_;
      Status s = bg_error_;
      if (s.ok()) {
        s = RunRetriesLocked("compaction", m_.compaction_retries, [this] {
          mu_.AssertHeld();
          return CompactImplLocked();
        });
      } else {
        s = s.WithContext("compaction skipped: engine degraded");
      }
      mc->status = std::move(s);
      mc->done = true;
      manual_compaction_ = nullptr;
    } else if (bg_error_.ok() && options_.l0_compaction_trigger > 0 &&
               stats_.l0_files >= options_.l0_compaction_trigger) {
      RunRetriesLocked("compaction", m_.compaction_retries, [this] {
        mu_.AssertHeld();
        return CompactImplLocked();
      }).IgnoreError();
    }
    UpdateQueueDepthLocked();
    bg_done_cv_.NotifyAll();
  }
}

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    std::string dir, EngineOptions options) {
  auto engine = std::unique_ptr<StorageEngine>(
      new StorageEngine(std::move(dir), options));
  AUTHIDX_RETURN_NOT_OK(engine->env_->CreateDirIfMissing(engine->dir_));
  Result<Manifest> manifest = Manifest::Load(engine->env_, engine->dir_);
  const bool had_manifest = manifest.ok();
  // Recovery is single-threaded (the background thread starts last and
  // immediately blocks on mu_, which this scope holds until return), so
  // holding the mutex across the WAL replay I/O costs nothing — and it
  // keeps every touch of guarded state on a path the analysis proves.
  MutexLock lock(engine->mu_);
  if (manifest.ok()) {
    engine->manifest_ = std::move(manifest).value();
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status().WithContext("loading manifest");
  }
  AUTHIDX_RETURN_NOT_OK(engine->OpenTables());
  engine->RebuildVersionLocked();
  if (engine->manifest_.imm_wal_number != 0) {
    // A crash landed between a memtable handoff and its flush; the
    // sealed memtable's WAL replays first so live-WAL records win.
    AUTHIDX_RETURN_NOT_OK(
        engine->ReplayWalIntoMemtable(engine->manifest_.imm_wal_number));
  }
  if (engine->manifest_.wal_number != 0) {
    AUTHIDX_RETURN_NOT_OK(
        engine->ReplayWalIntoMemtable(engine->manifest_.wal_number));
  }
  if (engine->mem_->entry_count() > 0) {
    // Recovered writes: persist them as a table so the old WALs can go.
    Status s = engine->RunRetriesLocked(
        "flush", engine->m_.flush_retries, [&engine] {
          engine->mu_.AssertHeld();
          return engine->SealMemtableLocked();
        });
    if (s.ok()) {
      s = engine->RunRetriesLocked(
          "flush", engine->m_.flush_retries, [&engine] {
            engine->mu_.AssertHeld();
            return engine->FlushImmLocked();
          });
    }
    AUTHIDX_RETURN_NOT_OK(s);
  } else {
    AUTHIDX_RETURN_NOT_OK(engine->SwitchToFreshWalLocked());
  }
  if (had_manifest) {
    // Sweep orphans the previous process never got to unlink: obsolete
    // recovery WALs plus any file a failed flush/compaction attempt left
    // behind (its removal queue died with the process). Skipped when no
    // manifest was found — a stray data file in a manifest-less
    // directory is evidence worth preserving, not garbage.
    engine->SweepUnreferencedFilesLocked();
    engine->RemoveObsoleteFilesLocked();
  }
  engine->log_->Log(
      obs::LogLevel::kInfo, "engine_open",
      {{"dir", engine->dir_},
       {"l0_files", engine->stats_.l0_files},
       {"l1_files", engine->stats_.l1_files},
       {"wal_replayed_records", engine->stats_.wal_replayed_records}});
  engine->StartBackgroundThread();
  return engine;
}

Status StorageEngine::ForEachRecordOp(
    std::string_view record,
    const std::function<void(std::string_view, std::string_view)>& put) {
  if (record.empty()) {
    return Status::Corruption("empty WAL record");
  }
  char op = record.front();
  record.remove_prefix(1);
  if (op == kOpBatch) {
    return WriteBatch::Iterate(record, put);
  }
  if (op != kOpPut) {
    return Status::Corruption("unknown WAL op");
  }
  std::string_view key, value;
  AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&record, &key));
  AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&record, &value));
  put(key, value);
  return Status::OK();
}

std::string StorageEngine::EncodePutRecord(std::string_view key,
                                           std::string_view value) {
  std::string record(1, kOpPut);
  PutLengthPrefixed(&record, key);
  PutLengthPrefixed(&record, value);
  return record;
}

Status StorageEngine::ApplyRecordToMemtable(MemTable& mem,
                                            std::string_view record,
                                            uint64_t* puts) {
  return ForEachRecordOp(record, [&](std::string_view k, std::string_view v) {
    mem.Put(k, v);
    ++*puts;
  });
}

Status StorageEngine::ReplayWalIntoMemtable(uint64_t wal_number) {
  std::string path = WalFileName(dir_, wal_number);
  if (!env_->FileExists(path)) {
    return Status::OK();  // Crash between manifest save and WAL creation.
  }
  uint64_t ignored_puts = 0;
  Result<WalReplayStats> stats =
      ReplayWal(env_, path, [&](std::string_view record) -> Status {
        return ApplyRecordToMemtable(*mem_, record, &ignored_puts);
      });
  AUTHIDX_RETURN_NOT_OK(stats.status());
  stats_.wal_replayed_records += stats->records;
  stats_.wal_tail_corruption =
      stats_.wal_tail_corruption || stats->tail_corruption;
  m_.recovery_records->Inc(stats->records);
  if (stats->records > 0 || stats->tail_corruption) {
    log_->Log(obs::LogLevel::kInfo, "wal_recovery",
              {{"wal", wal_number},
               {"records_replayed", stats->records},
               {"tail_corruption", stats->tail_corruption}});
  }
  if (stats->tail_corruption) {
    log_->Log(obs::LogLevel::kWarn, "wal_tail_truncated",
              {{"wal", wal_number}, {"records_kept", stats->records}});
  }
  return Status::OK();
}

Result<std::shared_ptr<TableReader>> StorageEngine::OpenTableReader(
    uint64_t file_number) {
  Result<std::unique_ptr<TableReader>> reader =
      TableReader::Open(env_, TableFileName(dir_, file_number));
  AUTHIDX_RETURN_NOT_OK(reader.status());
  std::shared_ptr<TableReader> shared = std::move(reader).value();
  shared->BindCorruptionMetric(m_.corrupt_blocks);
  return shared;
}

Status StorageEngine::OpenTables() {
  readers_.clear();
  for (const FileMeta& meta : manifest_.files) {
    Result<std::shared_ptr<TableReader>> reader =
        OpenTableReader(meta.file_number);
    if (!reader.ok()) {
      return reader.status().WithContext("opening table " +
                                         std::to_string(meta.file_number));
    }
    readers_.emplace_back(meta.file_number, std::move(reader).value());
  }
  return Status::OK();
}

Status StorageEngine::SwitchToFreshWalLocked() {
  // Stage the change and commit in-memory state only after the manifest
  // save succeeds: a retried caller must find the engine exactly as it
  // was before the failed attempt, or synced writes landing in a WAL the
  // durable manifest never heard of would be lost on crash.
  uint64_t number = manifest_.next_file_number++;
  Manifest pending = manifest_;
  std::string path = WalFileName(dir_, number);
  Result<std::unique_ptr<WalWriter>> fresh = WalWriter::Open(env_, path);
  AUTHIDX_RETURN_NOT_OK(fresh.status());
  pending.wal_number = number;
  pending.imm_wal_number = 0;  // Nothing recovered: no handoff pending.
  Status s = pending.Save(env_, dir_);
  if (!s.ok()) {
    log_->Log(obs::LogLevel::kError, "manifest_save_failed",
              {{"wal", number}, {"status", s.message()}});
    (*fresh)->Close().IgnoreError();
    ScheduleFileForRemovalLocked(std::move(path));  // Orphan WAL.
    return s;
  }
  wal_ = std::move(fresh).value();
  manifest_ = std::move(pending);
  committed_pos_ = {number, 0};
  log_->Log(obs::LogLevel::kDebug, "manifest_saved",
            {{"wal", number},
             {"files", static_cast<uint64_t>(manifest_.files.size())}});
  return Status::OK();
}

// Caller must be the writer-queue front (or the single-threaded open /
// close-finalize path): only the front writer may touch wal_.
Status StorageEngine::SealMemtableLocked() {
  // Numbers are allocated from the live manifest so a failed attempt
  // never reuses one: the file it half-created stays orphaned under its
  // own number and can be garbage-collected without racing a live file.
  uint64_t number = manifest_.next_file_number++;
  Manifest pending = manifest_;
  std::string path = WalFileName(dir_, number);
  Result<std::unique_ptr<WalWriter>> fresh = WalWriter::Open(env_, path);
  if (!fresh.ok()) {
    return fresh.status().WithContext("opening fresh WAL");
  }
  pending.imm_wal_number = pending.wal_number;
  pending.wal_number = number;
  Status s = pending.Save(env_, dir_);
  if (!s.ok()) {
    log_->Log(obs::LogLevel::kError, "manifest_save_failed",
              {{"wal", number}, {"status", s.message()}});
    (*fresh)->Close().IgnoreError();
    ScheduleFileForRemovalLocked(std::move(path));
    return s;
  }
  // Commit: the handoff is durable. The old WAL now backs imm_ and is
  // replayed on recovery until the flush lands. Closing it is safe:
  // per-record syncs already made acked synced writes durable, and
  // unsynced records carry no durability promise until Flush returns.
  manifest_ = std::move(pending);
  imm_ = std::move(mem_);
  mem_ = std::make_shared<MemTable>();
  if (wal_ != nullptr) {
    wal_->Close().IgnoreError();
  }
  wal_ = std::move(fresh).value();
  committed_pos_ = {number, 0};
  stats_.memtable_bytes = 0;
  log_->Log(obs::LogLevel::kDebug, "memtable_sealed",
            {{"imm_wal", manifest_.imm_wal_number},
             {"wal", manifest_.wal_number}});
  return Status::OK();
}

Status StorageEngine::MakeRoomForWriteLocked() {
  while (true) {
    if (closing_ || closed_) {
      return Status::FailedPrecondition("engine closed");
    }
    if (!bg_error_.ok()) {
      return bg_error_.WithContext("write rejected: engine degraded");
    }
    // An empty memtable always accepts a write: its arena pre-allocates a
    // block, so with tiny test thresholds the size check alone would seal
    // forever without ever making progress.
    if (mem_->entry_count() == 0 ||
        mem_->ApproximateMemoryUsage() < options_.memtable_bytes) {
      return Status::OK();
    }
    if (imm_ == nullptr) {
      // Hand the full memtable to the background thread and switch to a
      // fresh one; the write then proceeds without waiting for I/O.
      Status s = RunRetriesLocked("flush", m_.flush_retries, [this] {
        mu_.AssertHeld();
        return SealMemtableLocked();
      });
      if (!s.ok()) {
        return s;
      }
      UpdateQueueDepthLocked();
      bg_cv_.NotifyOne();
      continue;
    }
    // Backpressure: the previous handoff has not flushed yet. Writers
    // queue up behind this stall until the background thread catches up.
    ++stats_.write_stalls;
    m_.write_stalls->Inc();
    log_->Log(obs::LogLevel::kWarn, "write_stall",
              {{"memtable_bytes",
                static_cast<uint64_t>(mem_->ApproximateMemoryUsage())},
               {"l0_files", stats_.l0_files}});
    uint64_t start_ns = NowNs();
    while (!(imm_ == nullptr || !bg_error_.ok() || closing_ || shutdown_)) {
      bg_done_cv_.Wait(mu_);
    }
    m_.write_stall_ns->Record(NowNs() - start_ns);
  }
}

Status StorageEngine::QueueWrite(std::string record) {
  Writer w;
  w.kind = Writer::Kind::kWrite;
  w.record = std::move(record);
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
  if (s.ok()) {
    s = MakeRoomForWriteLocked();
  }
  if (!s.ok()) {
    // Fail only this write; the next writer re-evaluates for itself.
    writers_.pop_front();
    if (!writers_.empty()) {
      writers_.front()->cv.NotifyOne();
    }
    return s;
  }
  // Build the commit group: consecutive plain writes behind the leader,
  // capped so one pass cannot grow unboundedly. Sentinels stop it.
  std::vector<Writer*> group;
  group.push_back(&w);
  size_t group_bytes = w.record.size();
  for (size_t i = 1; i < writers_.size() && group_bytes < kMaxGroupCommitBytes;
       ++i) {
    Writer* peer = writers_[i];
    if (peer->kind != Writer::Kind::kWrite) {
      break;
    }
    group.push_back(peer);
    group_bytes += peer->record.size();
  }
  std::shared_ptr<MemTable> mem = mem_;
  WalWriter* wal = wal_.get();
  const bool sync = options_.sync_writes;
  // The WAL and memtable are safe to touch without the mutex: only the
  // queue-front writer appends to the WAL, the memtable pointer cannot
  // be resealed while this writer holds the front, and MemTable is
  // internally synchronized against concurrent readers. Relocked below
  // (balanced pair under the scoped MutexLock).
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
    // committed frontier (below) promises replication readers that
    // every byte behind it is visible in the file.
    commit = wal->Flush();
    if (!commit.ok()) {
      fail_op = "wal_append";
    }
  }
  uint64_t puts = 0;
  if (commit.ok()) {
    for (Writer* peer : group) {
      Status applied = ApplyRecordToMemtable(*mem, peer->record, &puts);
      if (!applied.ok()) {
        commit = std::move(applied);
        fail_op = "memtable_apply";
        break;
      }
    }
    m_.group_commit_batches->Inc();
    m_.group_commit_writes->Inc(group.size());
    if (puts > 0) {
      m_.puts->Inc(puts);
    }
  }

  mu_.Lock();
  if (!commit.ok()) {
    log_->Log(obs::LogLevel::kError,
              std::string_view(fail_op) == "wal_sync" ? "wal_sync_failed"
                                                      : "wal_append_failed",
              {{"bytes", group_bytes}, {"status", commit.message()}});
    SetBackgroundErrorLocked(fail_op, commit);
  } else {
    // Advance the replication frontier to the end of this group. Safe
    // to pair with `wal` captured before unlocking: the queue front
    // owned the WAL for the whole commit, so no seal swapped it out.
    committed_pos_ = {manifest_.wal_number, wal->bytes_written()};
  }
  stats_.puts += puts;
  stats_.memtable_bytes = mem->ApproximateMemoryUsage();
  // If this commit pushed the memtable over its budget, the leader seals
  // it now (still at the queue front, so touching wal_ is legal) and —
  // after handing the front to the next writer — waits for the flush to
  // land. Later writers proceed into the fresh memtable meanwhile; only
  // the writer that crossed the threshold pays the flush latency, which
  // keeps `stats().flushes` deterministic for callers that bulk-load and
  // immediately inspect it. A seal failure degrades the engine (via the
  // retry loop) but does not fail this write: its WAL record is already
  // durable.
  bool sealed_here = false;
  if (commit.ok() && bg_error_.ok() && !closing_ && !closed_ &&
      imm_ == nullptr && mem_->entry_count() > 0 &&
      mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    Status sealed = RunRetriesLocked("flush", m_.flush_retries, [this] {
      mu_.AssertHeld();
      return SealMemtableLocked();
    });
    if (sealed.ok()) {
      sealed_here = true;
      bg_cv_.NotifyOne();
    }
  }
  if (bg_error_.ok() && options_.l0_compaction_trigger > 0 &&
      stats_.l0_files >= options_.l0_compaction_trigger) {
    bg_cv_.NotifyOne();
  }
  UpdateQueueDepthLocked();
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
  if (sealed_here) {
    // The queue front has already moved on; this writer alone absorbs
    // the flush latency as backpressure.
    while (!(imm_ == nullptr || !bg_error_.ok() || shutdown_)) {
      bg_done_cv_.Wait(mu_);
    }
  }
  return commit;
}

namespace {
Status ApplyOnlyError() {
  return Status::FailedPrecondition(
      "engine is a replication follower (apply-only): direct writes "
      "are rejected, mutate the primary instead");
}
}  // namespace

Status StorageEngine::Put(std::string_view key, std::string_view value) {
  if (options_.apply_only) {
    return ApplyOnlyError();
  }
  return QueueWrite(EncodePutRecord(key, value));
}

Status StorageEngine::Apply(const WriteBatch& batch) {
  if (options_.apply_only) {
    return ApplyOnlyError();
  }
  if (batch.empty()) {
    MutexLock lock(mu_);
    return WritableStatusLocked();
  }
  // One WAL record for the whole batch: atomic under recovery.
  std::string record(1, kOpBatch);
  record += batch.rep();
  return QueueWrite(std::move(record));
}

Status StorageEngine::ApplyReplicated(std::string_view record) {
  // Validate before queueing so a corrupt shipped record is rejected
  // here (the follower can drop the stream and resubscribe) instead of
  // poisoning the group-commit leader's memtable apply.
  Status valid =
      ForEachRecordOp(record, [](std::string_view, std::string_view) {});
  if (!valid.ok()) {
    return valid.WithContext("rejecting malformed replicated record");
  }
  return QueueWrite(std::string(record));
}

WalPosition StorageEngine::CommittedWalPosition() const {
  MutexLock lock(mu_);
  return committed_pos_;
}

void StorageEngine::PinWalsFrom(uint64_t wal_number) {
  MutexLock lock(mu_);
  wal_pin_ = wal_number;
  std::vector<uint64_t> still_retained;
  for (uint64_t number : retained_wals_) {
    if (number >= wal_pin_) {
      still_retained.push_back(number);
    } else {
      ScheduleFileForRemovalLocked(WalFileName(dir_, number));
    }
  }
  retained_wals_ = std::move(still_retained);
}

std::unique_ptr<Iterator> StorageEngine::NewIterator() {
  std::shared_ptr<MemTable> mem, imm;
  std::shared_ptr<const Version> version;
  {
    MutexLock lock(mu_);
    if (options_.paranoid_checks && !bg_error_.ok()) {
      return NewErrorIterator(
          bg_error_.WithContext("read rejected: paranoid engine degraded"));
    }
    mem = mem_;
    imm = imm_;
    version = version_;
  }
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(mem->NewIterator());
  if (imm != nullptr) {
    children.push_back(imm->NewIterator());
  }
  for (const TableEntry& entry : version->level0) {
    children.push_back(entry.reader->NewIterator());
  }
  for (const TableEntry& entry : version->level1) {
    children.push_back(entry.reader->NewIterator());
  }
  std::vector<std::shared_ptr<const void>> pins;
  pins.push_back(std::move(mem));
  if (imm != nullptr) {
    pins.push_back(std::move(imm));
  }
  pins.push_back(std::move(version));
  return std::make_unique<PinnedIterator>(
      NewMergingIterator(std::move(children)), std::move(pins));
}

Result<FileMeta> StorageEngine::WriteTableFromIterator(Iterator* it,
                                                       int level,
                                                       uint64_t file_number) {
  FileMeta meta;
  meta.file_number = file_number;
  meta.level = level;
  std::string path = TableFileName(dir_, file_number);
  AUTHIDX_ASSIGN_OR_RETURN(auto file, env_->NewWritableFile(path));
  TableBuilder::Options topt;
  topt.block_bytes = options_.block_bytes;
  topt.restart_interval = options_.restart_interval;
  topt.compress = options_.compress_blocks;
  TableBuilder builder(topt, file.get());
  bool first = true;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    AUTHIDX_RETURN_NOT_OK(builder.Add(it->key(), it->value()));
    if (first) {
      meta.smallest_key = it->key();
      first = false;
    }
    meta.largest_key = it->key();
  }
  AUTHIDX_RETURN_NOT_OK(it->status());
  AUTHIDX_RETURN_NOT_OK(builder.Finish());
  AUTHIDX_RETURN_NOT_OK(file->Sync());
  AUTHIDX_RETURN_NOT_OK(file->Close());
  meta.entry_count = builder.entry_count();
  return meta;
}

// Retry-safe: the manifest, reader set, and imm_ slot are only mutated
// after the last fallible step (the manifest save that commits the new
// table), so a failed attempt leaves the engine exactly as it was and a
// re-run starts from scratch. The table write runs without the mutex;
// the imm_ slot cannot change meanwhile (a second seal is blocked on
// imm_ != nullptr and compaction shares this thread).
Status StorageEngine::FlushImmLocked() {
  obs::TraceSpan timer(nullptr, m_.flush_ns, "flush");
  std::shared_ptr<MemTable> imm = imm_;
  uint64_t flushed_bytes = imm->ApproximateMemoryUsage();
  uint64_t flushed_entries = imm->entry_count();
  uint64_t file_number = manifest_.next_file_number++;
  std::string table_path = TableFileName(dir_, file_number);

  mu_.Unlock();
  auto imm_iter = imm->NewIterator();
  Result<FileMeta> written =
      WriteTableFromIterator(imm_iter.get(), /*level=*/0, file_number);
  Status s = written.status();
  FileMeta meta;
  std::shared_ptr<TableReader> reader;
  if (s.ok()) {
    meta = std::move(written).value();
    if (meta.entry_count > 0) {
      Result<std::shared_ptr<TableReader>> opened =
          OpenTableReader(file_number);
      if (opened.ok()) {
        reader = std::move(opened).value();
      } else {
        s = opened.status().WithContext("opening flushed table");
      }
    }
  }
  mu_.Lock();

  if (!s.ok()) {
    ScheduleFileForRemovalLocked(std::move(table_path));
    return s;
  }
  // Stage: the flushed table joins the manifest and the handoff WAL is
  // no longer needed for recovery. One save commits both.
  Manifest pending = manifest_;
  pending.imm_wal_number = 0;
  if (meta.entry_count > 0) {
    pending.files.push_back(meta);
  } else {
    ScheduleFileForRemovalLocked(table_path);  // Defensive: empty output.
  }
  Status saved = pending.Save(env_, dir_);
  if (!saved.ok()) {
    log_->Log(obs::LogLevel::kError, "manifest_save_failed",
              {{"table", file_number}, {"status", saved.message()}});
    ScheduleFileForRemovalLocked(std::move(table_path));
    return saved;
  }
  // Commit.
  uint64_t imm_wal = manifest_.imm_wal_number;
  manifest_ = std::move(pending);
  if (reader != nullptr) {
    readers_.emplace_back(file_number, std::move(reader));
  }
  RebuildVersionLocked();
  imm_ = nullptr;
  if (imm_wal != 0) {
    if (imm_wal >= wal_pin_) {
      // A replication subscriber still needs this WAL; park it until
      // the pin advances past it (PinWalsFrom) or the engine reopens.
      retained_wals_.push_back(imm_wal);
    } else {
      ScheduleFileForRemovalLocked(WalFileName(dir_, imm_wal));
    }
  }
  ++stats_.flushes;
  m_.flushes->Inc();
  m_.flush_bytes->Inc(flushed_bytes);
  RemoveObsoleteFilesLocked();
  UpdateQueueDepthLocked();
  log_->Log(obs::LogLevel::kInfo, "memtable_flush",
            {{"table", file_number},
             {"entries", flushed_entries},
             {"bytes", flushed_bytes},
             {"duration_ns", timer.Stop()},
             {"l0_files", stats_.l0_files}});
  return Status::OK();
}

// Retry-safe on the same commit-ordering discipline as FlushImmLocked.
// The surviving readers are reused (never closed and reopened), so even
// a failed compaction leaves every live table servable — reads stay up
// while the engine degrades. The merge runs without the mutex; the file
// set cannot change meanwhile (flush shares this thread and seals only
// touch WAL state).
Status StorageEngine::CompactImplLocked() {
  obs::TraceSpan timer(nullptr, m_.compaction_ns, "compaction");
  if (manifest_.files.empty()) {
    return Status::OK();
  }
  if (manifest_.files.size() == 1 && manifest_.files[0].level == 1) {
    return Status::OK();  // Already fully compacted.
  }
  // Merge newest-first so the merging iterator's "first child wins" rule
  // keeps only the newest version of each key.
  std::vector<FileMeta> ordered = manifest_.LevelFiles(0);
  for (const FileMeta& meta : manifest_.LevelFiles(1)) {
    ordered.push_back(meta);
  }
  uint64_t bytes_in = 0;
  std::vector<std::shared_ptr<TableReader>> inputs;
  for (const FileMeta& meta : ordered) {
    auto it = std::find_if(readers_.begin(), readers_.end(),
                           [&](const auto& r) {
                             return r.first == meta.file_number;
                           });
    if (it == readers_.end()) {
      return Status::Internal("missing reader for table " +
                              std::to_string(meta.file_number));
    }
    inputs.push_back(it->second);
    bytes_in += it->second->file_bytes();
  }
  std::vector<FileMeta> old_files = manifest_.files;
  uint64_t file_number = manifest_.next_file_number++;
  std::string table_path = TableFileName(dir_, file_number);

  mu_.Unlock();
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(inputs.size());
  for (const std::shared_ptr<TableReader>& input : inputs) {
    children.push_back(input->NewIterator());
  }
  auto merged = NewMergingIterator(std::move(children));
  Result<FileMeta> written =
      WriteTableFromIterator(merged.get(), /*level=*/1, file_number);
  Status s = written.status();
  FileMeta meta;
  std::shared_ptr<TableReader> reader;
  if (s.ok()) {
    meta = std::move(written).value();
    if (meta.entry_count > 0) {
      Result<std::shared_ptr<TableReader>> opened =
          OpenTableReader(file_number);
      if (opened.ok()) {
        reader = std::move(opened).value();
      } else {
        s = opened.status().WithContext("opening compacted table");
      }
    }
  }
  mu_.Lock();

  if (!s.ok()) {
    ScheduleFileForRemovalLocked(std::move(table_path));
    return s;
  }
  // Stage from the live manifest (a concurrent seal may have advanced
  // the WAL numbers); only the file set is replaced.
  Manifest pending = manifest_;
  pending.files.clear();
  if (meta.entry_count > 0) {
    pending.files.push_back(meta);
  } else {
    ScheduleFileForRemovalLocked(table_path);  // Defensive: empty output.
  }
  Status saved = pending.Save(env_, dir_);
  if (!saved.ok()) {
    log_->Log(obs::LogLevel::kError, "manifest_save_failed",
              {{"compaction_output", file_number},
               {"status", saved.message()}});
    ScheduleFileForRemovalLocked(std::move(table_path));
    return saved;
  }
  // Commit: manifest is durable; drop the superseded runs.
  manifest_ = std::move(pending);
  if (reader != nullptr) {
    readers_.emplace_back(file_number, std::move(reader));
  }
  readers_.erase(
      std::remove_if(readers_.begin(), readers_.end(),
                     [&](const auto& r) {
                       return std::none_of(
                           manifest_.files.begin(), manifest_.files.end(),
                           [&](const FileMeta& f) {
                             return f.file_number == r.first;
                           });
                     }),
      readers_.end());
  RebuildVersionLocked();
  for (const FileMeta& old : old_files) {
    ScheduleFileForRemovalLocked(TableFileName(dir_, old.file_number));
  }
  ++stats_.compactions;
  m_.compactions->Inc();
  m_.compaction_bytes_in->Inc(bytes_in);
  uint64_t bytes_out = 0;
  if (meta.entry_count > 0) {
    Result<uint64_t> size = env_->FileSize(table_path);
    if (size.ok()) {  // Diagnostics only; never fail a committed compaction.
      bytes_out = *size;
      m_.compaction_bytes_out->Inc(bytes_out);
    }
  }
  RemoveObsoleteFilesLocked();
  UpdateQueueDepthLocked();
  log_->Log(obs::LogLevel::kInfo, "compaction",
            {{"inputs", static_cast<uint64_t>(old_files.size())},
             {"bytes_in", bytes_in},
             {"bytes_out", bytes_out},
             {"entries_out", meta.entry_count},
             {"duration_ns", timer.Stop()}});
  return Status::OK();
}

Status StorageEngine::Flush() {
  Writer w;
  w.kind = Writer::Kind::kSeal;
  MutexLock lock(mu_);
  writers_.push_back(&w);
  // Sentinels are never group-committed by a leader; they always reach
  // the front and process themselves.
  while (writers_.front() != &w) {
    w.cv.Wait(mu_);
  }
  Status s = WritableStatusLocked();
  bool sealed = false;
  if (s.ok() && imm_ != nullptr) {
    // A previous handoff is still flushing; it must land before the
    // memtable can seal again.
    while (!(imm_ == nullptr || !bg_error_.ok() || shutdown_)) {
      bg_done_cv_.Wait(mu_);
    }
    if (!bg_error_.ok()) {
      s = bg_error_;
    } else if (imm_ != nullptr) {
      s = Status::FailedPrecondition("engine closed");
    }
  }
  if (s.ok() && mem_->entry_count() > 0) {
    s = RunRetriesLocked("flush", m_.flush_retries, [this] {
      mu_.AssertHeld();
      return SealMemtableLocked();
    });
    if (s.ok()) {
      sealed = true;
      UpdateQueueDepthLocked();
      bg_cv_.NotifyOne();
    }
  }
  // Hand the queue front to the next writer before waiting for the
  // background flush: later writes proceed while this one blocks.
  writers_.pop_front();
  if (!writers_.empty()) {
    writers_.front()->cv.NotifyOne();
  }
  if (s.ok() && sealed) {
    while (!(imm_ == nullptr || !bg_error_.ok() || shutdown_)) {
      bg_done_cv_.Wait(mu_);
    }
    if (!bg_error_.ok()) {
      s = bg_error_;
    } else if (imm_ != nullptr) {
      s = Status::FailedPrecondition("engine closed");
    }
  }
  return s;
}

Status StorageEngine::Compact() {
  AUTHIDX_RETURN_NOT_OK(Flush());
  MutexLock lock(mu_);
  // Serialize manual compactions; each waiter gets its own completion.
  while (!(manual_compaction_ == nullptr || shutdown_)) {
    bg_done_cv_.Wait(mu_);
  }
  if (closing_ || closed_ || shutdown_) {
    return Status::FailedPrecondition("engine closed");
  }
  ManualCompaction mc;
  manual_compaction_ = &mc;
  UpdateQueueDepthLocked();
  bg_cv_.NotifyOne();
  // The background thread always completes a pending manual compaction —
  // degraded engines get the sticky error, shutdown gets a rejection —
  // so this wait cannot hang.
  while (!mc.done) {
    bg_done_cv_.Wait(mu_);
  }
  return mc.status;
}

Result<IntegrityReport> StorageEngine::VerifyIntegrity() {
  IntegrityReport report;
  std::vector<FileMeta> files;
  {
    MutexLock lock(mu_);
    if (closed_) {
      return Status::FailedPrecondition("engine closed");
    }
    // The durable manifest must parse (Load re-checks its CRC) and agree
    // with the live file set; a mismatch means the on-disk store would
    // come back different from what this engine is serving. Loaded under
    // the mutex so no save can interleave.
    Result<Manifest> disk = Manifest::Load(env_, dir_);
    if (!disk.ok()) {
      report.manifest_status = disk.status().WithContext("loading manifest");
    } else {
      auto file_set = [](const Manifest& m) {
        std::vector<std::pair<uint64_t, int>> set;
        set.reserve(m.files.size());
        for (const FileMeta& f : m.files) {
          set.emplace_back(f.file_number, f.level);
        }
        std::sort(set.begin(), set.end());
        return set;
      };
      if (file_set(*disk) != file_set(manifest_) ||
          disk->wal_number != manifest_.wal_number) {
        report.manifest_status = Status::Corruption(
            "on-disk manifest does not match the live engine state");
      }
    }
    files = manifest_.files;
  }
  // Every table: fresh reader (footer/index re-validated), full scan so
  // each block's CRC is re-checked against the bytes on disk, plus
  // order/range/count checks against
  // the manifest. Per-file reporting: one corrupt table must not hide
  // damage in the others. Runs without the mutex — a concurrent
  // compaction may remove a superseded file mid-scan, which surfaces as
  // a per-file error rather than blocking writes for the whole scan.
  for (const FileMeta& meta : files) {
    FileIntegrity file;
    file.file_number = meta.file_number;
    file.level = meta.level;
    file.status = [&]() -> Status {
      Result<std::unique_ptr<TableReader>> opened = TableReader::Open(
          env_, TableFileName(dir_, meta.file_number));
      AUTHIDX_RETURN_NOT_OK(opened.status());
      (*opened)->BindCorruptionMetric(m_.corrupt_blocks);
      auto it = (*opened)->NewIterator();
      std::string last_key;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string_view key = it->key();
        if (file.entries_scanned == 0) {
          if (key != meta.smallest_key) {
            return Status::Corruption("first key differs from manifest");
          }
        } else if (key <= last_key) {
          return Status::Corruption("keys out of order");
        }
        last_key.assign(key.data(), key.size());
        ++file.entries_scanned;
      }
      AUTHIDX_RETURN_NOT_OK(it->status());
      if (file.entries_scanned != meta.entry_count) {
        return Status::Corruption("entry count differs from manifest");
      }
      if (meta.entry_count > 0 && last_key != meta.largest_key) {
        return Status::Corruption("last key differs from manifest");
      }
      return Status::OK();
    }();
    if (!file.status.ok()) {
      ++report.corrupt_files;
      log_->Log(obs::LogLevel::kError, "table_corrupt",
                {{"table", meta.file_number},
                 {"level", meta.level},
                 {"entries_scanned", file.entries_scanned},
                 {"status", file.status.message()}});
    }
    report.files.push_back(std::move(file));
  }
  log_->Log(report.clean() ? obs::LogLevel::kInfo : obs::LogLevel::kError,
            "integrity_scan",
            {{"tables", static_cast<uint64_t>(report.files.size())},
             {"corrupt_tables", report.corrupt_files},
             {"manifest_ok", report.manifest_status.ok()}});
  return report;
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
    writers_.pop_front();
    if (!writers_.empty()) {
      writers_.front()->cv.NotifyOne();
    }
    while (!closed_) {
      bg_done_cv_.Wait(mu_);
    }
    return Status::OK();
  }
  // From this moment every queued or future write is rejected.
  closing_ = true;
  writers_.pop_front();
  if (!writers_.empty()) {
    writers_.front()->cv.NotifyOne();
  }
  shutdown_ = true;
  bg_cv_.NotifyAll();
  bg_done_cv_.NotifyAll();
  // Joining with the mutex held would deadlock (the background thread
  // needs it to observe shutdown_); relocked below in a balanced pair.
  mu_.Unlock();
  if (bg_thread_.joinable()) {
    bg_thread_.join();
  }
  mu_.Lock();
  // Finalize inline: the background thread is gone, so any leftover
  // handoff and the live memtable flush here. A degraded engine skips
  // the flush (it would only re-fail) and reports the sticky error; the
  // WAL is still synced and closed best-effort so appended records get
  // their last push toward disk.
  Status s = bg_error_;
  if (s.ok() && imm_ != nullptr) {
    s = RunRetriesLocked("flush", m_.flush_retries, [this] {
      mu_.AssertHeld();
      return FlushImmLocked();
    });
  }
  if (s.ok() && mem_->entry_count() > 0) {
    s = RunRetriesLocked("flush", m_.flush_retries, [this] {
      mu_.AssertHeld();
      return SealMemtableLocked();
    });
    if (s.ok()) {
      s = RunRetriesLocked("flush", m_.flush_retries, [this] {
        mu_.AssertHeld();
        return FlushImmLocked();
      });
    }
  }
  if (wal_ != nullptr) {
    Status sync = wal_->Sync();
    Status closed = wal_->Close();
    if (s.ok()) {
      s = sync.ok() ? closed : sync;
    }
  }
  closed_ = true;
  bg_done_cv_.NotifyAll();
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
  EngineStats copy = stats_;
  if (mem_ != nullptr) {
    copy.memtable_bytes = mem_->ApproximateMemoryUsage();
  }
  return copy;
}

}  // namespace authidx::storage
