#ifndef AUTHIDX_STORAGE_ENGINE_H_
#define AUTHIDX_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "authidx/common/env.h"
#include "authidx/common/mutex.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/common/random.h"
#include "authidx/common/result.h"
#include "authidx/common/retry.h"
#include "authidx/obs/log.h"
#include "authidx/obs/metrics.h"
#include "authidx/storage/manifest.h"
#include "authidx/storage/memtable.h"
#include "authidx/storage/table.h"
#include "authidx/storage/wal.h"
#include "authidx/storage/write_batch.h"

namespace authidx::storage {

/// Tuning knobs for StorageEngine.
struct EngineOptions {
  /// Flush the memtable to a level-0 table once it holds this much.
  size_t memtable_bytes = 4 * 1024 * 1024;
  /// fdatasync the WAL on every write (durability vs throughput).
  /// Concurrent synced writers are group-committed: one leader appends
  /// and fsyncs the whole batch, so the cost amortizes across writers.
  bool sync_writes = false;
  /// Compact level 0 into level 1 when it accumulates this many runs.
  int l0_compaction_trigger = 4;
  /// Table-format knobs.
  size_t block_bytes = 4096;
  int restart_interval = 16;
  /// Per-block LZ compression of table files.
  bool compress_blocks = false;
  /// Filesystem to use (tests inject fault-injecting ones).
  Env* env = nullptr;  // nullptr = Env::Default().
  /// Registry to record WAL/flush/compaction metrics into
  /// (see docs/OBSERVABILITY.md); must outlive the engine. nullptr gives
  /// the engine a private registry, readable via metrics().
  obs::MetricsRegistry* metrics = nullptr;
  /// Logger for recovery/flush/compaction/error events (must outlive
  /// the engine). nullptr means obs::Logger::Disabled() — every event
  /// is dropped after one atomic load.
  obs::Logger* logger = nullptr;
  /// Degradation policy once a background error is sticky: by default
  /// reads keep serving the already-durable state (read-only
  /// degradation); paranoid mode halts reads too, returning the sticky
  /// error from NewIterator until the store is reopened.
  bool paranoid_checks = false;
  /// Retry budget for *transient* background failures (memtable flush,
  /// compaction): total attempts including the first. WAL append/sync
  /// failures are never retried-and-acknowledged — a write whose sync
  /// failed trips the sticky error immediately.
  int background_retry_attempts = 3;
  /// Backoff before the first background retry (doubled per retry).
  uint64_t retry_base_delay_us = 100;
  /// Saturation bound for the exponential backoff.
  uint64_t retry_max_delay_us = 10000;
  /// Replication-follower mode: the public write API (Put/Apply)
  /// fails with FailedPrecondition and the only accepted mutations are
  /// ApplyReplicated() records shipped from a primary. The engine still
  /// writes its own WAL (so follower crash recovery is local) and still
  /// flushes/compacts normally.
  bool apply_only = false;
};

/// Per-table result of VerifyIntegrity().
struct FileIntegrity {
  /// Table file number (maps to `<dir>/<number>.tbl`).
  uint64_t file_number = 0;
  /// LSM level the manifest places the file in.
  int level = 0;
  /// Entries successfully scanned before the first error (equals the
  /// manifest entry count when the file is clean).
  uint64_t entries_scanned = 0;
  /// OK, or the Corruption/IOError describing the damage.
  Status status;
};

/// Result of a full-store integrity scan (see
/// StorageEngine::VerifyIntegrity and docs/ROBUSTNESS.md).
struct IntegrityReport {
  /// OK when the on-disk manifest parses, passes its CRC, and matches
  /// the live file set.
  Status manifest_status;
  /// One entry per table file in the manifest.
  std::vector<FileIntegrity> files;
  /// Count of entries in `files` with a non-OK status.
  uint64_t corrupt_files = 0;

  /// True when the manifest and every table verified clean.
  bool clean() const { return manifest_status.ok() && corrupt_files == 0; }
};

/// Counters exposed for tests and benchmarks.
struct EngineStats {
  uint64_t puts = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t wal_replayed_records = 0;
  uint64_t write_stalls = 0;
  bool wal_tail_corruption = false;
  int l0_files = 0;
  int l1_files = 0;
  size_t memtable_bytes = 0;
};

/// Embedded ordered key-value store: WAL + memtable + two-level LSM of
/// immutable sorted-run tables. This is the persistence substrate
/// underneath AuthorIndex; keys are big-endian entry ids or metadata
/// keys, values are encoded entries. It is written by Put/Apply and read
/// only by ordered scans (NewIterator): the catalog keeps its working
/// set in memory and never issues point reads or deletes.
///
/// Crash-safety contract: a Put/Apply is durable once it returns when
/// `sync_writes` is true; otherwise once Flush()/Close() returns.
/// Recovery replays the immutable-memtable WAL (if a flush was in
/// flight) and then the live WAL over the manifest state, tolerating a
/// torn tail in the live WAL.
///
/// Failure-handling contract (docs/ROBUSTNESS.md): any failed WAL
/// append/sync, memtable flush, compaction, or manifest save sets a
/// sticky *background error* — including failures on the background
/// maintenance thread. Transient flush/compaction failures are retried
/// with exponential backoff first (`background_retry_attempts`). While
/// the error is set the engine is *degraded*: every write fails fast
/// with the sticky status, while reads keep serving the already-durable
/// state (unless `paranoid_checks`). Reopening the store clears the
/// state.
///
/// Threading model (docs/ARCHITECTURE.md): fully thread-safe. One
/// engine mutex guards metadata and a LevelDB-style writer queue; the
/// queue's front writer group-commits every queued write with a single
/// WAL append pass + one fsync. Reads pin a snapshot of
/// {memtable, immutable memtable, table-file version} under the mutex
/// and then run lock-free. A single background thread runs flush and
/// compaction off the write path; writers that fill the memtable while
/// the previous one is still flushing stall (counted + logged) until
/// the flush lands. The entire protocol is machine-checked: every
/// mu_-protected member is AUTHIDX_GUARDED_BY(mu_) and every *Locked
/// helper carries AUTHIDX_REQUIRES(mu_), verified by Clang
/// -Wthread-safety in the `thread-safety` preset.
class StorageEngine {
 public:
  /// Opens (creating if needed) a store in directory `dir`.
  static Result<std::unique_ptr<StorageEngine>> Open(std::string dir,
                                                     EngineOptions options);

  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Inserts or overwrites `key`; the newest value wins in every scan.
  Status Put(std::string_view key, std::string_view value)
      AUTHIDX_EXCLUDES(mu_);

  /// Applies a batch atomically (one WAL record; recovery replays all
  /// of it or none).
  Status Apply(const WriteBatch& batch) AUTHIDX_EXCLUDES(mu_);

  /// Applies one primary-originated WAL record verbatim on a follower
  /// opened with `EngineOptions::apply_only`. Goes through the normal
  /// writer queue (the record lands in this engine's own WAL, so the
  /// follower recovers locally after a crash). Re-applying a record the
  /// engine already holds is state-idempotent: the same keys get the
  /// same values. Rejects malformed records, and records holding any op
  /// other than a put, before queueing.
  Status ApplyReplicated(std::string_view record) AUTHIDX_EXCLUDES(mu_);

  /// The durable replication frontier: every WAL byte at or before this
  /// position has been appended, synced per the sync policy, and acked
  /// to its writer. A ReplicationSource must not ship bytes past it
  /// (they may belong to a write that will fail and never be acked).
  WalPosition CommittedWalPosition() const AUTHIDX_EXCLUDES(mu_);

  /// Retains WAL files numbered >= `wal_number` after their memtable
  /// flushes (normally a flushed WAL is deleted immediately) so a
  /// ReplicationSource can still read them. Passing UINT64_MAX (the
  /// initial state) releases every retained file. Lowering the pin is
  /// not meaningful; each call replaces the previous pin wholesale and
  /// deletes any retained file the new pin no longer covers.
  void PinWalsFrom(uint64_t wal_number) AUTHIDX_EXCLUDES(mu_);

  /// Builds a full WAL record holding a single put — used to synthesize
  /// shippable records from snapshot key/value pairs during follower
  /// bootstrap. The result is accepted by ApplyReplicated().
  static std::string EncodePutRecord(std::string_view key,
                                     std::string_view value);

  /// Decodes one WAL record, invoking `put` for each operation it holds
  /// (one for put records, many for batch records). Corruption-safe:
  /// returns non-OK without invoking `put` past the damage point. A
  /// delete ('D') record, or a batch holding a delete op, is Corruption:
  /// the engine has no deletes.
  static Status ForEachRecordOp(
      std::string_view record,
      const std::function<void(std::string_view, std::string_view)>& put);

  /// Ordered iterator over every key with its newest value. The iterator pins
  /// the table files and memtables that existed at creation, so flushes
  /// and compactions never invalidate it; writes landing in the pinned
  /// memtable after creation may or may not be observed.
  std::unique_ptr<Iterator> NewIterator() AUTHIDX_EXCLUDES(mu_);

  /// Forces the memtable into a level-0 table (no-op when empty) and
  /// waits for the background flush to land.
  Status Flush() AUTHIDX_EXCLUDES(mu_);

  /// Merges all level-0 tables plus level 1 into a single level-1 run,
  /// keeping only the newest version of each key. Runs on the background
  /// thread; this call waits for the result.
  Status Compact() AUTHIDX_EXCLUDES(mu_);

  /// Flushes and fsyncs everything, stops the background thread, and
  /// rejects all writes from the first moment of the call.
  Status Close() AUTHIDX_EXCLUDES(mu_);

  /// The sticky background error; OK while the engine is healthy. Set
  /// by the first failed WAL append/sync, flush, compaction, or
  /// manifest save (after retries for the transient subset) and never
  /// cleared except by reopening the store.
  Status background_error() const AUTHIDX_EXCLUDES(mu_);

  /// True once a background error is sticky: writes are rejected, reads
  /// serve the durable state (or also fail under `paranoid_checks`).
  /// Lock-free (one atomic load).
  bool degraded() const {
    return degraded_flag_.load(std::memory_order_acquire);
  }

  /// Scans the manifest and every table file, re-reading and
  /// CRC-verifying each block from disk and checking
  /// key order, key ranges, and entry counts against the manifest.
  /// Read-only: works on a degraded engine, reports per-file damage
  /// instead of failing on the first corrupt file, and increments
  /// `authidx_corrupt_blocks_total` for each damaged block it hits.
  /// Safe to run while writing; a concurrent compaction may surface as
  /// a transient missing-file error for a superseded table.
  Result<IntegrityReport> VerifyIntegrity() AUTHIDX_EXCLUDES(mu_);

  /// Consistent point-in-time snapshot of the counters.
  EngineStats stats() const AUTHIDX_EXCLUDES(mu_);
  const std::string& dir() const { return dir_; }
  /// The filesystem this engine was opened on (EngineOptions::env, or
  /// Env::Default()). Sidecar files that must share the engine's fault
  /// domain — e.g. the replication cursor — go through it.
  Env* env() const { return env_; }

  /// The registry this engine records into (the one from EngineOptions,
  /// or the engine-private one). Thread-safe to snapshot.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  // Registry instruments for the storage hot paths (all owned by
  // *metrics_; registered once at construction, recorded into without
  // allocation afterwards).
  struct Instruments {
    obs::Counter* wal_appends = nullptr;
    obs::Counter* wal_append_bytes = nullptr;
    obs::Counter* wal_syncs = nullptr;
    obs::LatencyHistogram* wal_append_ns = nullptr;
    obs::LatencyHistogram* wal_sync_ns = nullptr;
    obs::Counter* flushes = nullptr;
    obs::Counter* flush_bytes = nullptr;
    obs::LatencyHistogram* flush_ns = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* compaction_bytes_in = nullptr;
    obs::Counter* compaction_bytes_out = nullptr;
    obs::LatencyHistogram* compaction_ns = nullptr;
    obs::Counter* puts = nullptr;
    obs::Counter* recovery_records = nullptr;
    obs::Counter* bg_errors = nullptr;
    obs::Counter* flush_retries = nullptr;
    obs::Counter* compaction_retries = nullptr;
    obs::Counter* corrupt_blocks = nullptr;
    obs::Counter* gc_failures = nullptr;
    obs::Gauge* degraded = nullptr;
    obs::Counter* write_stalls = nullptr;
    obs::LatencyHistogram* write_stall_ns = nullptr;
    obs::Gauge* bg_queue_depth = nullptr;
    obs::Counter* group_commit_batches = nullptr;
    obs::Counter* group_commit_writes = nullptr;
  };

  // One queued write (or control sentinel) in the LevelDB-style writer
  // queue. Stack-allocated by the issuing thread, which blocks on `cv`
  // until it reaches the queue front or a leader commits it.
  //
  // Deliberately unannotated: these fields are protected by the
  // queue-front protocol, not by a single mutex the analysis could
  // name. `kind`/`record` are written before the Writer enters
  // `writers_` (single-owner), then read only by the queue-front
  // leader; `done`/`status` are written by the leader and read by the
  // owner, with every handoff made under mu_ (which `writers_` itself
  // is guarded by), so the mutex still orders all cross-thread access.
  struct Writer {
    enum class Kind { kWrite, kSeal, kBarrier };
    Kind kind = Kind::kWrite;
    std::string record;  // Full WAL record (op byte + payload).
    bool done = false;
    Status status;
    CondVar cv;
  };

  // One open table file with its manifest metadata.
  struct TableEntry {
    FileMeta meta;
    std::shared_ptr<TableReader> reader;
  };

  // Immutable snapshot of the table-file set. Readers pin it with a
  // shared_ptr and then never need the engine mutex again; flush and
  // compaction publish a fresh Version instead of mutating this one.
  struct Version {
    std::vector<TableEntry> level0;  // Newest first.
    std::vector<TableEntry> level1;  // Sorted by smallest_key.
  };

  // Completion slot for a Compact() call waiting on the bg thread.
  struct ManualCompaction {
    bool done = false;
    Status status;
  };

  StorageEngine(std::string dir, EngineOptions options);

  void RegisterInstruments();
  void StartBackgroundThread();
  void BackgroundThreadMain() AUTHIDX_EXCLUDES(mu_);
  bool HasBackgroundWorkLocked() const AUTHIDX_REQUIRES(mu_);
  void UpdateQueueDepthLocked() AUTHIDX_REQUIRES(mu_);

  Status ReplayWalIntoMemtable(uint64_t wal_number) AUTHIDX_REQUIRES(mu_);
  Status OpenTables() AUTHIDX_REQUIRES(mu_);
  // Touches only the passed memtable and out-param — no engine state —
  // so it runs both under mu_ (recovery) and without it (the group
  // leader applying committed records to a pinned memtable).
  Status ApplyRecordToMemtable(MemTable& mem, std::string_view record,
                               uint64_t* puts);
  // Enqueues one write, waits for commit (as leader or group member).
  Status QueueWrite(std::string record) AUTHIDX_EXCLUDES(mu_);
  // Leader-side: stalls/seals until the memtable can take the write.
  // Waits on bg_done_cv_ (releasing mu_) while stalled.
  Status MakeRoomForWriteLocked() AUTHIDX_REQUIRES(mu_);
  Result<FileMeta> WriteTableFromIterator(Iterator* it, int level,
                                          uint64_t file_number);
  Result<std::shared_ptr<TableReader>> OpenTableReader(uint64_t file_number);
  // Rebuilds the published Version from manifest_ + readers_.
  void RebuildVersionLocked() AUTHIDX_REQUIRES(mu_);

  // --- failure handling (docs/ROBUSTNESS.md) ---
  // Non-OK when writes must be rejected (closed or degraded).
  Status WritableStatusLocked() const AUTHIDX_REQUIRES(mu_);
  // Records the first background error; later calls are no-ops. Wakes
  // every stalled writer and pending waiter.
  void SetBackgroundErrorLocked(std::string_view op, const Status& status)
      AUTHIDX_REQUIRES(mu_);
  // Runs `body` (which may unlock/relock mu_ internally in balanced
  // pairs) under the transient-retry policy, releasing the mutex across
  // backoff sleeps; on final failure the error becomes sticky.
  // `retry_counter` counts each retry. `body` is a std::function the
  // analysis cannot see into: its body must start with
  // mu_.AssertHeld().
  Status RunRetriesLocked(const char* op, obs::Counter* retry_counter,
                          const std::function<Status()>& body)
      AUTHIDX_REQUIRES(mu_);
  // Seals the memtable: stages a fresh WAL plus a manifest recording
  // the handoff (imm_wal_number = old WAL), commits only after the
  // manifest save. Caller must be the queue front (no WAL I/O races).
  Status SealMemtableLocked() AUTHIDX_REQUIRES(mu_);
  // Opens the very first WAL of a store whose recovery left nothing to
  // flush. Single-threaded open path, mu_ held.
  Status SwitchToFreshWalLocked() AUTHIDX_REQUIRES(mu_);
  // Writes the sealed memtable to a level-0 table. Releases mu_ across
  // the table write; commits (manifest save + state swap) with it held.
  // Retry-safe: a failed attempt leaves state unchanged.
  Status FlushImmLocked() AUTHIDX_REQUIRES(mu_);
  // Merges all runs into one level-1 table. Same locking discipline and
  // retry-safety as FlushImmLocked.
  Status CompactImplLocked() AUTHIDX_REQUIRES(mu_);
  // Queues an obsolete file for removal and sweeps the queue.
  // Best-effort: a failed unlink is logged + counted, never fatal.
  void ScheduleFileForRemovalLocked(std::string path) AUTHIDX_REQUIRES(mu_);
  void RemoveObsoleteFilesLocked() AUTHIDX_REQUIRES(mu_);
  // Queues every engine-named file (NNNNNN.tbl / NNNNNN.wal) the
  // manifest does not reference — orphans left by failed background
  // attempts or a crash before their unlink. Called at open, where the
  // in-memory removal queue of the previous process is lost.
  void SweepUnreferencedFilesLocked() AUTHIDX_REQUIRES(mu_);

  std::string dir_;
  EngineOptions options_;
  Env* env_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // == options.metrics or owned_metrics_.
  obs::Logger* log_;  // == options.logger or Logger::Disabled().
  Instruments m_;

  // One mutex guards all metadata below plus the writer queue. Reads
  // hold it only long enough to pin {mem_, imm_, version_}; writers
  // release it during WAL I/O (queue-front discipline makes that safe);
  // background jobs release it during table writes.
  mutable Mutex mu_;
  CondVar bg_cv_;       // Wakes the background thread.
  CondVar bg_done_cv_;  // Flush/compaction landed; stalls.
  std::deque<Writer*> writers_ AUTHIDX_GUARDED_BY(mu_);

  Manifest manifest_ AUTHIDX_GUARDED_BY(mu_);
  std::shared_ptr<MemTable> mem_ AUTHIDX_GUARDED_BY(mu_);
  // Sealed, being flushed; may be null.
  std::shared_ptr<MemTable> imm_ AUTHIDX_GUARDED_BY(mu_);
  std::unique_ptr<WalWriter> wal_ AUTHIDX_GUARDED_BY(mu_);
  // Open readers keyed by file number (ownership registry).
  std::vector<std::pair<uint64_t, std::shared_ptr<TableReader>>> readers_
      AUTHIDX_GUARDED_BY(mu_);
  // Published table-file snapshot; replaced wholesale on commit.
  std::shared_ptr<const Version> version_ AUTHIDX_GUARDED_BY(mu_);
  EngineStats stats_ AUTHIDX_GUARDED_BY(mu_);
  // Close() barrier passed: no further writes.
  bool closing_ AUTHIDX_GUARDED_BY(mu_) = false;
  bool closed_ AUTHIDX_GUARDED_BY(mu_) = false;
  // Background thread exit flag.
  bool shutdown_ AUTHIDX_GUARDED_BY(mu_) = false;
  // Sticky background error; OK while healthy. See background_error().
  Status bg_error_ AUTHIDX_GUARDED_BY(mu_);
  std::atomic<bool> degraded_flag_{false};
  ManualCompaction* manual_compaction_ AUTHIDX_GUARDED_BY(mu_) = nullptr;
  // Jitter source for retry backoff (deterministic seed: backoff
  // spreading needs no entropy, and reproducible tests matter more).
  Random retry_rng_ AUTHIDX_GUARDED_BY(mu_){0x9E3779B97F4A7C15ULL};
  // Obsolete files whose removal failed; retried after the next
  // successful flush/compaction.
  std::vector<std::string> pending_removals_ AUTHIDX_GUARDED_BY(mu_);
  // Replication frontier: advanced by the group-commit leader after a
  // successful (synced) commit, reset to {new_wal, 0} on WAL switch.
  WalPosition committed_pos_ AUTHIDX_GUARDED_BY(mu_);
  // WAL files numbered >= wal_pin_ are retained after flush instead of
  // deleted, parked in retained_wals_ until the pin advances past them.
  // UINT64_MAX (the default) pins nothing. Pins do not survive reopen:
  // SweepUnreferencedFilesLocked deletes retained WALs at the next
  // open, and a follower whose cursor file is gone re-bootstraps.
  uint64_t wal_pin_ AUTHIDX_GUARDED_BY(mu_) = UINT64_MAX;
  std::vector<uint64_t> retained_wals_ AUTHIDX_GUARDED_BY(mu_);
  // Unannotated by design: written once by Open() before the engine is
  // shared, joined by the single Close() winner (the closing_ barrier
  // elects it under mu_). Never touched concurrently.
  std::thread bg_thread_;
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_ENGINE_H_
