#ifndef AUTHIDX_STORAGE_REPLICATION_H_
#define AUTHIDX_STORAGE_REPLICATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/env.h"
#include "authidx/common/result.h"
#include "authidx/storage/engine.h"
#include "authidx/storage/wal.h"

namespace authidx::storage {

/// One batch of committed log records read by a ReplicationSource.
struct ReplicationBatch {
  /// Records in commit order, each accepted verbatim by
  /// StorageEngine::ApplyReplicated. A log record larger than the read's
  /// byte budget arrives alone, split into put-batch pieces of at most
  /// that budget each (a single put larger than the budget is a piece of
  /// its own).
  std::vector<std::string> records;
  /// Cursor after the last record in `records` (after the whole split
  /// record when `records` holds pieces): pass this as `from` to the
  /// next ReadBatch call, and persist it (after applying) as the
  /// follower's durable position.
  WalPosition end;
  /// The primary's committed frontier at read time. `end == committed`
  /// means the follower is caught up; the gap is the replication lag.
  WalPosition committed;
};

/// Reads committed records from a primary engine's log segments,
/// starting at an arbitrary durable cursor and walking across segment
/// rolls. The primary keeps every segment, so any cursor at or behind
/// the committed frontier is servable; {0, 0} reads from the start of
/// the first segment, which is how an empty follower bootstraps.
///
/// Reads go through positional reads from the cursor: one call reads at
/// most `max_bytes` of records plus the header of the record that did
/// not fit — or, when the record at the cursor alone exceeds
/// `max_bytes`, just that record.
///
/// Thread-compatible, not thread-safe: one source per caller (the
/// engine calls it makes are themselves thread-safe).
class ReplicationSource {
 public:
  /// `env` nullptr means Env::Default(); pass the engine's own Env when
  /// it was opened with an injected one (fault tests).
  explicit ReplicationSource(StorageEngine* engine, Env* env = nullptr);

  /// Reads up to `max_records`/`max_bytes` of committed records with
  /// `from` as the next unread byte. Never reads past the committed
  /// frontier (bytes beyond it may belong to a write that fails and is
  /// never acked). An up-to-date cursor yields an empty batch; a cursor
  /// at the end of a sealed segment yields an empty batch whose `end`
  /// has moved to the next segment. `max_records` 0 reads no record and
  /// only validates the cursor. Errors:
  ///   * NotFound    — the cursor lies past the primary's committed
  ///                   frontier or past the end of its segment: it
  ///                   belongs to some other store.
  ///   * Corruption  — damaged or missing bytes below the frontier.
  Result<ReplicationBatch> ReadBatch(WalPosition from, size_t max_records,
                                     size_t max_bytes);

 private:
  StorageEngine* engine_;
  Env* env_;
};

/// Persists a follower's replication cursor in a `REPL_POSITION`
/// sidecar file next to its store.
///
/// Crash-consistency contract: commit the position only *after* the
/// records up to it have been applied (and synced per the follower's
/// sync policy). A crash between apply and commit re-delivers records
/// the follower already holds; the catalog's apply path recognizes and
/// skips them (core::AuthorIndex::ApplyReplicatedRecord).
class ReplicationApplier {
 public:
  /// `dir` is the follower's store directory; `env` nullptr means
  /// Env::Default().
  explicit ReplicationApplier(std::string dir, Env* env = nullptr);

  /// Reads the durable cursor; {0, 0} when no sidecar exists yet (a
  /// fresh follower, which reads the primary's log from the start).
  Result<WalPosition> LoadPosition();

  /// Durably replaces the cursor (atomic temp-write + fsync + rename).
  Status CommitPosition(WalPosition pos);

  /// The sidecar path (exposed for tests).
  std::string position_path() const;

 private:
  std::string dir_;
  Env* env_;
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_REPLICATION_H_
