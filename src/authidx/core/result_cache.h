#ifndef AUTHIDX_CORE_RESULT_CACHE_H_
#define AUTHIDX_CORE_RESULT_CACHE_H_

#include <array>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "authidx/common/mutex.h"
#include "authidx/common/thread_annotations.h"
#include "authidx/obs/metrics.h"
#include "authidx/query/executor.h"

namespace authidx::core {

/// Sharded, byte-capacity-bounded LRU cache of whole query results,
/// keyed by KeyFor(query) (every field, offset/limit included) and
/// stamped with the catalog's data epoch at insert time. A probe only
/// hits when the stamped epoch still equals the catalog's current
/// epoch — any ingest, flush, compaction, or replication apply bumps
/// the epoch, so every cached result is invalidated wholesale and a
/// stale hit is impossible by construction (stale entries are erased
/// lazily on probe or via LRU pressure).
///
/// Thread-safe: 8 shards, each behind its own mutex, keep the probe
/// path short and uncontended next to query execution.
class ResultCache {
 public:
  /// Instruments (registry-owned, any may be null). See
  /// docs/OBSERVABILITY.md for the metric names bound to these.
  struct Instruments {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* invalidations = nullptr;
    obs::Gauge* bytes = nullptr;
  };

  /// Cache bounded to ~`capacity_bytes` of charged entry weight.
  explicit ResultCache(size_t capacity_bytes);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cache key of `query`: a length-prefixed encoding of every
  /// field, with a presence byte per optional, so distinct queries get
  /// distinct keys. (Query::ToString() is a debug rendering and is not
  /// injective: quoted values may contain what looks like other clauses.)
  static std::string KeyFor(const query::Query& query);

  /// Binds metric instruments; call before the cache is shared.
  void BindMetrics(const Instruments& instruments);

  /// Returns the cached result for `key` if present and stamped with
  /// `epoch`; erases (and counts an invalidation for) entries stamped
  /// with any older epoch.
  std::optional<query::QueryResult> Probe(std::string_view key,
                                          uint64_t epoch);

  /// Caches `result` under `key` stamped with `epoch`, evicting LRU
  /// entries to stay within capacity. An entry too large for its shard
  /// is not cached at all.
  void Insert(std::string_view key, uint64_t epoch,
              const query::QueryResult& result);

  /// Configured capacity in bytes.
  size_t capacity_bytes() const { return capacity_; }

  /// Sum of charged bytes across shards (approximate under concurrency).
  size_t bytes_used() const;

  /// Live entries across shards (approximate under concurrency).
  size_t entry_count() const;

 private:
  struct Entry {
    std::string key;
    uint64_t epoch = 0;
    size_t charge = 0;
    query::QueryResult result;
  };

  static constexpr size_t kShards = 8;

  struct Shard {
    mutable Mutex mu;
    // Front = most recently used. Keys in map view into the list
    // entries, whose addresses are stable.
    std::list<Entry> lru AUTHIDX_GUARDED_BY(mu);
    std::unordered_map<std::string_view, std::list<Entry>::iterator> map
        AUTHIDX_GUARDED_BY(mu);
    size_t bytes AUTHIDX_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(std::string_view key);

  // Approximate charged weight of one entry: key + hits payload + fixed
  // bookkeeping overhead.
  static size_t ChargeOf(std::string_view key,
                         const query::QueryResult& result);

  // Unlinks `it` from `shard` and updates the bytes gauge.
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it)
      AUTHIDX_REQUIRES(shard.mu);

  const size_t capacity_;
  const size_t shard_capacity_;
  std::array<Shard, kShards> shards_;
  Instruments instruments_;
};

}  // namespace authidx::core

#endif  // AUTHIDX_CORE_RESULT_CACHE_H_
