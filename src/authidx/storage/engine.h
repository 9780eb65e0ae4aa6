#ifndef AUTHIDX_STORAGE_ENGINE_H_
#define AUTHIDX_STORAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "authidx/common/env.h"
#include "authidx/common/mutex.h"
#include "authidx/common/result.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/obs/log.h"
#include "authidx/obs/metrics.h"
#include "authidx/storage/wal.h"
#include "authidx/storage/write_batch.h"

namespace authidx::storage {

/// Tuning knobs for StorageEngine.
struct EngineOptions {
  /// fdatasync the log on every write (durability vs throughput).
  /// Concurrent synced writers are group-committed: one leader appends
  /// and fsyncs the whole batch, so the cost amortizes across writers.
  bool sync_writes = false;
  /// Filesystem to use (tests inject fault-injecting ones).
  Env* env = nullptr;  // nullptr = Env::Default().
  /// Registry to record log metrics into (see docs/OBSERVABILITY.md);
  /// must outlive the engine. nullptr gives the engine a private
  /// registry, readable via metrics().
  obs::MetricsRegistry* metrics = nullptr;
  /// Logger for open/recovery/roll/error events (must outlive the
  /// engine). nullptr means obs::Logger::Disabled() — every event is
  /// dropped after one atomic load.
  obs::Logger* logger = nullptr;
  /// Replication-follower mode: the public write API (Put/Apply)
  /// fails with FailedPrecondition and the only accepted mutations are
  /// ApplyReplicated() records shipped from a primary. The engine still
  /// writes its own log, so follower crash recovery is local.
  bool apply_only = false;
};

/// Counters exposed for tests and benchmarks.
struct EngineStats {
  uint64_t puts = 0;
  /// Log segments on disk (`NNNNNN.wal`, numbered from 1).
  uint64_t segments = 0;
  /// Intact records the open scan found in the log, and the bytes they
  /// occupy.
  uint64_t wal_replayed_records = 0;
  uint64_t wal_replayed_bytes = 0;
  /// True when the open scan cut a torn tail off the newest segment.
  bool wal_tail_corruption = false;
};

/// Embedded append-only store: a segmented write-ahead log that is the
/// only copy of the data. This is the persistence substrate underneath
/// AuthorIndex; keys are big-endian entry ids, values encoded entries.
/// It is written by Put/Apply and read only by sequential passes in log
/// order (Replay): the catalog keeps its working set in memory and
/// never issues point reads, deletes or overwrites.
///
/// On disk: consecutive segments `000001.wal`, `000002.wal`, ... found
/// by listing the directory (a missing number is Corruption). Writes
/// append to the newest segment; it rolls to the next number at a fixed
/// size between commit groups, and at Flush(). Every segment is kept.
///
/// Crash-safety contract: a Put/Apply is durable once it returns when
/// `sync_writes` is true; otherwise once Flush()/Close() returns. Open
/// tolerates a torn tail in the newest segment only (a crash
/// mid-append), cutting it off; damage in any other segment fails Open
/// with Corruption naming the segment and offset.
///
/// Failure-handling contract (docs/ROBUSTNESS.md): any failed log
/// append, sync or segment roll sets a sticky *background error*.
/// While it is set the engine is *degraded*: every write fails fast
/// with the sticky status, while Replay keeps serving the durable
/// state. Reopening the store clears the state.
///
/// Threading model (docs/ARCHITECTURE.md): fully thread-safe. One
/// engine mutex guards metadata and a LevelDB-style writer queue; the
/// queue's front writer group-commits every queued write with a single
/// log append pass + one fsync, then advances the committed position.
/// Replay reads segments up to the committed position captured at its
/// start and takes no lock while reading. The protocol is
/// machine-checked: every mu_-protected member is
/// AUTHIDX_GUARDED_BY(mu_) and every *Locked helper carries
/// AUTHIDX_REQUIRES(mu_), verified by Clang -Wthread-safety in the
/// `thread-safety` preset.
class StorageEngine {
 public:
  /// Opens (creating if needed) a store in directory `dir`. The open
  /// scan reads every segment once; with `replay` set it also calls
  /// `*replay` for every put of every intact record, in log order —
  /// what Replay() right after Open would yield, without a second pass.
  /// A store written before the segmented log (a MANIFEST or `.tbl`
  /// file in `dir`) fails with Corruption naming the file; there is no
  /// migration reader.
  static Result<std::unique_ptr<StorageEngine>> Open(
      std::string dir, EngineOptions options,
      const WalOpSink* replay = nullptr);

  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Appends a put of `key`; a later put of the same key supersedes it
  /// in any fold of Replay's output.
  Status Put(std::string_view key, std::string_view value)
      AUTHIDX_EXCLUDES(mu_);

  /// Applies a batch atomically (one log record; recovery keeps all of
  /// it or none).
  Status Apply(const WriteBatch& batch) AUTHIDX_EXCLUDES(mu_);

  /// Appends one primary-originated record (or a put-batch piece of
  /// one) verbatim on a follower opened with `EngineOptions::apply_only`.
  /// Goes through the normal writer queue, so the record lands in this
  /// engine's own log and the follower recovers locally after a crash.
  /// Rejects malformed records, and records holding any op other than a
  /// put, before queueing.
  Status ApplyReplicated(std::string_view record) AUTHIDX_EXCLUDES(mu_);

  /// The durable replication frontier: every log byte before this
  /// position has been appended, synced per the sync policy, and acked
  /// to its writer. Readers must not read past it (the bytes may belong
  /// to a write that fails and is never acked).
  WalPosition CommittedWalPosition() const AUTHIDX_EXCLUDES(mu_);

  /// Builds a full log record holding a single put; ApplyReplicated()
  /// accepts it.
  static std::string EncodePutRecord(std::string_view key,
                                     std::string_view value);

  /// One pass over the log in order, calling `fn` for every put up to
  /// the committed position at call time (views valid during the call
  /// only). Memory stays bounded by ScanSegment's buffer whatever the
  /// record sizes. Works on a degraded engine. Returns `fn`'s first
  /// error, or Corruption naming the segment and offset of any damage.
  Result<WalScan> Replay(const WalOpSink& fn) const AUTHIDX_EXCLUDES(mu_);

  /// Makes every acknowledged write durable: syncs the newest segment
  /// and rolls to a fresh one (no-op when the newest is empty).
  Status Flush() AUTHIDX_EXCLUDES(mu_);

  /// Syncs and closes the log, and rejects all writes from the first
  /// moment of the call.
  Status Close() AUTHIDX_EXCLUDES(mu_);

  /// The sticky background error; OK while the engine is healthy. Set
  /// by the first failed append, sync or roll and never cleared except
  /// by reopening the store.
  Status background_error() const AUTHIDX_EXCLUDES(mu_);

  /// True once a background error is sticky: writes are rejected,
  /// Replay serves the durable state. Lock-free (one atomic load).
  bool degraded() const {
    return degraded_flag_.load(std::memory_order_acquire);
  }

  /// Re-reads every segment up to the committed position and re-checks
  /// every record's CRC. Read-only and safe while writing. OK, or
  /// Corruption naming the first damaged segment and offset (which also
  /// increments `authidx_wal_corrupt_records_total`).
  Status VerifyIntegrity() const AUTHIDX_EXCLUDES(mu_);

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
    obs::Counter* segment_rolls = nullptr;
    obs::Gauge* segments = nullptr;
    obs::Counter* puts = nullptr;
    obs::Counter* recovery_records = nullptr;
    obs::LatencyHistogram* open_ns = nullptr;
    obs::Counter* bg_errors = nullptr;
    obs::Counter* corrupt_records = nullptr;
    obs::Gauge* degraded = nullptr;
    obs::Counter* group_commit_batches = nullptr;
    obs::Counter* group_commit_writes = nullptr;
  };

  // One queued write (or control sentinel) in the LevelDB-style writer
  // queue. Stack-allocated by the issuing thread, which blocks on `cv`
  // until it reaches the queue front or a leader commits it.
  //
  // Deliberately unannotated: these fields are protected by the
  // queue-front protocol, not by a single mutex the analysis could
  // name. `kind`/`record`/`puts` are written before the Writer enters
  // `writers_` (single-owner), then read only by the queue-front
  // leader; `done`/`status` are written by the leader and read by the
  // owner, with every handoff made under mu_ (which `writers_` itself
  // is guarded by), so the mutex still orders all cross-thread access.
  struct Writer {
    enum class Kind { kWrite, kFlush, kBarrier };
    Kind kind = Kind::kWrite;
    std::string record;  // Full log record (op byte + payload).
    uint64_t puts = 0;   // Puts the record holds.
    bool done = false;
    Status status;
    CondVar cv;
  };

  StorageEngine(std::string dir, EngineOptions options);

  void RegisterInstruments();

  // Scans segments 1..`count` at open (decoding into `replay` when
  // set): counts records, cuts a torn tail off the newest, fails on
  // damage anywhere else, and opens the segment new writes go to.
  // Single-threaded open path, mu_ held.
  Status RecoverLocked(uint64_t count, const WalOpSink* replay)
      AUTHIDX_REQUIRES(mu_);
  // Rewrites segment `path` to its first `bytes` bytes (temp file +
  // rename), dropping a torn tail.
  Status TruncateSegment(const std::string& path, uint64_t bytes);
  // Reads segments up to `end`, decoding puts into `fn` when set.
  Result<WalScan> ScanLog(WalPosition end, const WalOpSink* fn) const;
  // Enqueues one write, waits for commit (as leader or group member).
  Status QueueWrite(std::string record, uint64_t puts) AUTHIDX_EXCLUDES(mu_);
  // Syncs the newest segment and starts the next one. Caller must be
  // the writer-queue front (only the front may touch wal_). On failure
  // the old segment stays current.
  Status RollSegmentLocked() AUTHIDX_REQUIRES(mu_);

  // --- failure handling (docs/ROBUSTNESS.md) ---
  // Non-OK when writes must be rejected (closed or degraded).
  Status WritableStatusLocked() const AUTHIDX_REQUIRES(mu_);
  // Records the first background error; later calls are no-ops.
  void SetBackgroundErrorLocked(std::string_view op, const Status& status)
      AUTHIDX_REQUIRES(mu_);
  // Hands the queue front to the next waiting writer.
  void PopWriterLocked() AUTHIDX_REQUIRES(mu_);

  std::string dir_;
  EngineOptions options_;
  Env* env_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // == options.metrics or owned_metrics_.
  obs::Logger* log_;  // == options.logger or Logger::Disabled().
  Instruments m_;

  // One mutex guards the metadata below plus the writer queue. Writers
  // release it during log appends (queue-front discipline makes that
  // safe); readers hold it only to capture the committed position.
  mutable Mutex mu_;
  CondVar closed_cv_;  // Signals closed_ to racing Close() callers.
  std::deque<Writer*> writers_ AUTHIDX_GUARDED_BY(mu_);

  // The newest segment, which every write appends to.
  std::unique_ptr<WalWriter> wal_ AUTHIDX_GUARDED_BY(mu_);
  EngineStats stats_ AUTHIDX_GUARDED_BY(mu_);
  // Close() barrier passed: no further writes.
  bool closing_ AUTHIDX_GUARDED_BY(mu_) = false;
  bool closed_ AUTHIDX_GUARDED_BY(mu_) = false;
  // Sticky background error; OK while healthy. See background_error().
  Status bg_error_ AUTHIDX_GUARDED_BY(mu_);
  std::atomic<bool> degraded_flag_{false};
  // Replication frontier: advanced by the group-commit leader after a
  // successful (synced) commit, reset to {next segment, 0} on a roll.
  // Its segment number is also the newest segment's.
  WalPosition committed_pos_ AUTHIDX_GUARDED_BY(mu_);
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_ENGINE_H_
