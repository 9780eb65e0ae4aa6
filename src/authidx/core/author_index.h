#ifndef AUTHIDX_CORE_AUTHOR_INDEX_H_
#define AUTHIDX_CORE_AUTHOR_INDEX_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "authidx/common/arena.h"
#include "authidx/common/mutex.h"
#include "authidx/common/result.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/obs/log.h"
#include "authidx/obs/metrics.h"
#include "authidx/obs/slowlog.h"
#include "authidx/obs/trace.h"
#include "authidx/index/inverted.h"
#include "authidx/core/result_cache.h"
#include "authidx/model/record.h"
#include "authidx/query/executor.h"
#include "authidx/query/parser.h"
#include "authidx/storage/engine.h"

namespace authidx::core {

/// The author-index engine: ingest bibliographic entries, keep every
/// index coherent, answer structured queries, and expose the groups in
/// printed (collation) order for the typesetter.
///
/// Two modes:
///  * in-memory (`Create`) — indexes only;
///  * persistent (`OpenPersistent`) — entries additionally go through
///    the storage engine's append-only log; reopening the same directory
///    replays the log once, in order, and rebuilds the in-memory
///    indexes (a torn tail left by a crash is cut off first).
///
/// Thread safety: Add/AddAll take the catalog lock exclusively; every
/// query entry point (Search/SearchTraced/Run/RunTraced) holds it
/// shared across the whole plan+execute pass (the executor's catalog
/// callbacks go through an internal pre-locked view, so they are not
/// re-locked per call), and the group accessors
/// (GroupsInOrder/group_count/CoauthorsOf) plus the public CatalogView
/// overrides (GetEntry, AuthorExact, ...) each take it shared
/// themselves — so any number of queries and point accessors run in
/// parallel with each other. Entry storage is append-only (deque), so `GetEntry` pointers
/// and `SortKey` views stay valid across later ingests and may be used
/// after the accessor returns. Exception: `title_index()` hands out a
/// reference into live index state — walking it concurrently with
/// ingest requires external synchronization (queries go through the
/// locked executor path and are safe).
///
/// The protocol is machine-checked: every index member is
/// AUTHIDX_GUARDED_BY(index_mu_) and the internal helpers carry
/// REQUIRES annotations, so Clang Thread Safety Analysis rejects any
/// unlocked access at compile time (see docs/TOOLING.md).
class AuthorIndex final : public query::CatalogView {
 public:
  /// In-memory catalog.
  static std::unique_ptr<AuthorIndex> Create();

  /// Storage-backed catalog in `dir`; recovers existing contents from
  /// the engine's open scan, one pass over the log in order (see
  /// storage::StorageEngine::Open). Corruption if the log's entry ids are
  /// not dense (0, 1, 2, ... in log order). Logs `catalog_ready`
  /// (entries, bytes replayed, duration) when done.
  static Result<std::unique_ptr<AuthorIndex>> OpenPersistent(
      const std::string& dir, storage::EngineOptions options = {});

  /// Storage-backed *replication follower* in `dir`: the engine opens
  /// apply-only (direct Add/AddAll fail with FailedPrecondition) with
  /// synced writes forced on, and the only ingest path is
  /// ApplyReplicatedRecord. Reopening recovers exactly like
  /// OpenPersistent — the follower's own WAL makes it crash-consistent
  /// independently of the primary.
  static Result<std::unique_ptr<AuthorIndex>> OpenReplica(
      const std::string& dir, storage::EngineOptions options = {});

  ~AuthorIndex() override;

  AuthorIndex(const AuthorIndex&) = delete;
  AuthorIndex& operator=(const AuthorIndex&) = delete;

  /// Validates and ingests one entry, updating every index. Returns the
  /// assigned dense id.
  Result<EntryId> Add(Entry entry);

  /// Bulk ingest; stops at the first invalid entry.
  Status AddAll(std::vector<Entry> entries);

  /// Parses and runs a query string (see query::ParseQuery grammar).
  Result<query::QueryResult> Search(std::string_view query_text) const;

  /// Search() plus per-request tracing: parse/execute/stage spans are
  /// appended to `trace` (caller-owned; may be null for plain Search
  /// behaviour). The trace buffer is single-threaded.
  Result<query::QueryResult> SearchTraced(std::string_view query_text,
                                          obs::Trace* trace) const;

  /// Runs an already-parsed query.
  Result<query::QueryResult> Run(const query::Query& query) const;

  /// Run() with per-request tracing into `trace` (may be null).
  Result<query::QueryResult> RunTraced(const query::Query& query,
                                       obs::Trace* trace) const;

  /// Point-in-time view of every metric this catalog records: query
  /// counters and stage latencies, plus — for persistent catalogs — the
  /// storage engine's log instruments (see
  /// docs/OBSERVABILITY.md for the full name table). Thread-safe.
  obs::MetricsSnapshot GetMetricsSnapshot() const;

  /// The registry behind GetMetricsSnapshot(); outlives the engine.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Non-const registry access so embedders (the network server, the
  /// CLI's HTTP endpoint) can register their own instruments alongside
  /// the engine's, keeping one /metrics page per process. The registry
  /// synchronizes itself; returned instruments are valid for the
  /// catalog's lifetime.
  obs::MetricsRegistry* mutable_metrics() { return metrics_.get(); }

  /// Arms the slow-query log: any Search/SearchTraced/Run slower than
  /// `threshold_ns` is captured into the ring buffer with its query
  /// text, chosen plan, and full span tree (a trace is created
  /// opportunistically when the caller brought none). 0 — the default —
  /// disarms it and keeps the query path allocation-free. Thread-safe.
  void SetSlowQueryThreshold(uint64_t threshold_ns);

  /// Current slow-query threshold in ns (0 = disarmed).
  uint64_t slow_query_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the captured slow queries, oldest first.
  std::vector<obs::SlowQueryEntry> SlowQueries() const;

  /// The ring buffer behind SlowQueries() (thread-safe).
  const obs::SlowQueryLog& slow_query_log() const { return *slowlog_; }

  /// Routes catalog-level events (slow queries) to `logger`, which must
  /// outlive this index. Persistent catalogs inherit the engine logger
  /// from EngineOptions automatically; this override is for in-memory
  /// catalogs or tests. Not thread-safe: call during setup.
  void SetLogger(obs::Logger* logger);

  /// Arms the epoch-invalidated query-result cache (capacity in bytes;
  /// 0 disarms). Once armed, Search/SearchTraced/Run/RunTraced probe
  /// the cache before planning and insert successful results after.
  /// Entries are stamped with the data epoch (below), so any ingest,
  /// flush, or replication apply invalidates every cached
  /// result — a stale hit is impossible on primaries and followers
  /// alike. Registers the cache's instruments in the catalog registry.
  /// Not thread-safe: call during setup, before queries run.
  void EnableResultCache(size_t capacity_bytes);

  /// The armed result cache, or null. For tests and diagnostics.
  const ResultCache* result_cache() const { return result_cache_.get(); }

  /// Monotonic counter bumped by every mutation that can change query
  /// results (Add, AddAll, ApplyReplicatedRecord). Flush and
  /// CompactStorage change no result and leave it alone.
  /// Cached results stamped with an older epoch never hit.
  uint64_t data_epoch() const {
    return data_epoch_.load(std::memory_order_acquire);
  }

  // --- CatalogView ---
  const Entry* GetEntry(EntryId id) const override;
  size_t entry_count() const override;
  // Analysis waiver: hands out a reference into guarded index state
  // without holding index_mu_ past the return — the documented contract
  // (class comment above) makes the caller responsible for external
  // synchronization. Tracked in docs/ROBUSTNESS.md.
  AUTHIDX_NO_THREAD_SAFETY_ANALYSIS
  const InvertedIndex& title_index() const override { return inverted_; }
  std::vector<EntryId> AuthorExact(
      std::string_view folded_group) const override;
  std::vector<EntryId> AuthorPrefix(
      std::string_view folded_prefix) const override;
  std::vector<EntryId> AuthorFuzzy(std::string_view folded_name,
                                   size_t max_edits) const override;
  void FillRows(const std::vector<EntryId>& ids,
                std::vector<query::EntryRow>* rows) const override;

  /// memcmp-ordered author collation key for the entry (printed
  /// order); empty for unknown ids.
  std::string_view SortKey(EntryId id) const;

  /// One author group (a distinct person) and their entries.
  struct Group {
    std::string display;  // "Surname, Given[, Suffix]" as first seen.
    std::vector<EntryId> entries;
  };

  /// All groups in collation order with entries in (volume, page) order —
  /// exactly the order of the printed author index.
  std::vector<Group> GroupsInOrder() const;

  /// Number of distinct author groups. Thread-safe.
  size_t group_count() const;

  /// Authors who co-published with the given folded group key, as
  /// display names (cross-reference support).
  std::vector<std::string> CoauthorsOf(std::string_view folded_group) const;

  /// Applies one primary-originated log record (or a put-batch piece of
  /// one, as shipped by a storage::ReplicationSource) to a follower
  /// catalog: the entries it carries that the catalog does not hold yet
  /// go through the engine's own log and are indexed. Idempotent —
  /// entry ids are dense and assigned in log order, so entries the
  /// catalog already holds are recognized as a duplicate delivery and
  /// skipped; a record holding only those is skipped whole. The new
  /// entries must continue the catalog's ids densely (Corruption
  /// otherwise, before anything is written).
  Status ApplyReplicatedRecord(std::string_view record);

  /// True for catalogs opened with OpenReplica.
  bool is_replica() const { return is_replica_; }

  /// The backing engine (null for in-memory catalogs). For replication
  /// plumbing — feeding a ReplicationSource on the primary, reading
  /// committed positions on either side.
  storage::StorageEngine* storage_engine() { return engine_.get(); }

  /// Persists pending writes (no-op for in-memory catalogs).
  Status Flush();

  /// Synonym of Flush, kept for callers written against the earlier
  /// LSM engine (the log has nothing to compact); perfbench's load
  /// generator still calls it.
  Status CompactStorage();

  /// Underlying storage stats (empty struct for in-memory catalogs).
  storage::EngineStats StorageStats() const;

  /// The storage engine's sticky background error (OK for healthy or
  /// in-memory catalogs). See docs/ROBUSTNESS.md.
  Status StorageBackgroundError() const;

  /// True once the storage engine is degraded: writes fail fast, reads
  /// serve the durable state. Always false for in-memory catalogs.
  bool StorageDegraded() const;

  /// Full-store integrity scan: re-reads every log segment and
  /// re-checks every record's CRC (trivially OK for in-memory catalogs).
  Status VerifyStorageIntegrity();

 private:
  struct GroupRecord {
    std::string display;        // As first ingested.
    std::string sort_key;       // MakeSortKey(display): printed order.
    std::string folded_surname; // For fuzzy matching.
    std::string folded_code;    // Metaphone(folded_surname).
    std::vector<EntryId> entries;
  };

  AuthorIndex();

  /// Index-maintenance shared by Add and recovery (no storage write).
  EntryId IndexEntry(Entry entry) AUTHIDX_REQUIRES(index_mu_);

  /// SearchTraced body without the slow-query envelope.
  Result<query::QueryResult> SearchInternal(std::string_view query_text,
                                            obs::Trace* trace) const;

  /// RunTraced body below the result cache: takes the shared lock and
  /// executes for real.
  Result<query::QueryResult> RunUncached(const query::Query& query,
                                         obs::Trace* trace) const;

  /// Captures one over-threshold query into the ring + logger.
  void RecordSlowQuery(std::string_view query_text, uint64_t duration_ns,
                       const obs::Trace& trace,
                       const Result<query::QueryResult>& result) const;

  /// CatalogView adapter that forwards to the *Unlocked impls; the
  /// query entry points hand it to the executor while already holding
  /// index_mu_ shared, so callbacks don't re-lock (recursive
  /// shared_mutex acquisition is undefined behavior).
  class RawView;

  // Lock-free bodies of the CatalogView callbacks; caller must hold
  // index_mu_ (shared suffices — they only read).
  const Entry* GetEntryUnlocked(EntryId id) const
      AUTHIDX_REQUIRES_SHARED(index_mu_);
  std::vector<EntryId> AuthorExactUnlocked(std::string_view folded_group)
      const AUTHIDX_REQUIRES_SHARED(index_mu_);
  std::vector<EntryId> AuthorPrefixUnlocked(std::string_view folded_prefix)
      const AUTHIDX_REQUIRES_SHARED(index_mu_);
  std::vector<EntryId> AuthorFuzzyUnlocked(std::string_view folded_name,
                                           size_t max_edits) const
      AUTHIDX_REQUIRES_SHARED(index_mu_);
  void FillRowsUnlocked(const std::vector<EntryId>& ids,
                        std::vector<query::EntryRow>* rows) const
      AUTHIDX_REQUIRES_SHARED(index_mu_);

  /// Guards the in-memory indexes (entries_, groups_, the group maps,
  /// inverted index). Exclusive for ingest, shared for query execution.
  /// The storage engine synchronizes itself; its Put/Apply happen inside
  /// the exclusive section so entry ids and durable keys stay aligned.
  mutable SharedMutex index_mu_;

  // Deques, not vectors: appends never move existing elements, so Entry
  // pointers handed out earlier survive later Adds.
  std::deque<Entry> entries_ AUTHIDX_GUARDED_BY(index_mu_);
  // The bytes of every entry's sort key, which rows_ holds views of:
  // arena blocks never move, and one copy costs no per-key allocation.
  Arena sort_keys_ AUTHIDX_GUARDED_BY(index_mu_);
  // Parallel to entries_: what the executor's filter and order stages
  // read per entry, so they touch no Entry.
  std::deque<query::EntryRow> rows_ AUTHIDX_GUARDED_BY(index_mu_);

  std::vector<GroupRecord> groups_ AUTHIDX_GUARDED_BY(index_mu_);
  // Folded group key -> group index, in byte order: exact lookups and
  // prefix walks (from lower_bound while the key starts with the prefix).
  std::map<std::string, size_t, std::less<>> group_by_folded_
      AUTHIDX_GUARDED_BY(index_mu_);
  std::unordered_map<std::string, std::vector<size_t>> groups_by_surname_
      AUTHIDX_GUARDED_BY(index_mu_);
  std::unordered_map<std::string, std::vector<size_t>> groups_by_phonetic_
      AUTHIDX_GUARDED_BY(index_mu_);

  // Analyzed titles.
  InvertedIndex inverted_ AUTHIDX_GUARDED_BY(index_mu_);

  // Declared before engine_: the engine records into this registry, so
  // it must be destroyed after the engine.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  query::ExecObs exec_obs_;  // Pre-registered executor instruments.
  obs::Counter* queries_total_ = nullptr;
  obs::LatencyHistogram* query_ns_ = nullptr;
  obs::Counter* slow_queries_total_ = nullptr;
  obs::LatencyHistogram* rebuild_ns_ = nullptr;

  std::unique_ptr<obs::SlowQueryLog> slowlog_;
  std::atomic<uint64_t> slow_threshold_ns_{0};
  obs::Logger* log_;  // Never null (Logger::Disabled() by default).

  // Bumped (release order) inside every exclusive mutation section;
  // read (acquire) by the query path before execution, so a cache entry
  // stamped with a stale epoch can never be fresh-marked.
  std::atomic<uint64_t> data_epoch_{0};
  // Null until EnableResultCache; set during setup only (the cache
  // itself is internally synchronized).
  std::unique_ptr<ResultCache> result_cache_;

  std::unique_ptr<storage::StorageEngine> engine_;  // Null if in-memory.
  bool is_replica_ = false;  // Set once by OpenReplica before sharing.
};

}  // namespace authidx::core

#endif  // AUTHIDX_CORE_AUTHOR_INDEX_H_
