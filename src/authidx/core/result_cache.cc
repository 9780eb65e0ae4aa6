#include "authidx/core/result_cache.h"

#include <algorithm>
#include <utility>

#include "authidx/common/coding.h"
#include "authidx/common/hash.h"

namespace authidx::core {

ResultCache::ResultCache(size_t capacity_bytes)
    : capacity_(capacity_bytes),
      shard_capacity_(std::max<size_t>(1, capacity_bytes / kShards)) {}

std::string ResultCache::KeyFor(const query::Query& query) {
  std::string key;
  auto put_string = [&key](const std::optional<std::string>& value) {
    key.push_back(value.has_value() ? '\1' : '\0');
    if (value.has_value()) {
      PutLengthPrefixed(&key, *value);
    }
  };
  auto put_list = [&key](const std::vector<std::string>& values) {
    PutVarint64(&key, values.size());
    for (const std::string& value : values) {
      PutLengthPrefixed(&key, value);
    }
  };
  auto put_range = [&key](const std::optional<query::NumRange>& range) {
    key.push_back(range.has_value() ? '\1' : '\0');
    if (range.has_value()) {
      PutVarint32(&key, range->lo);
      PutVarint32(&key, range->hi);
    }
  };
  put_string(query.author_exact);
  put_string(query.author_prefix);
  put_string(query.author_fuzzy);
  put_list(query.title_terms);
  put_list(query.not_terms);
  put_string(query.coauthor);
  put_range(query.year);
  put_range(query.volume);
  key.push_back(query.student.has_value() ? '\1' : '\0');
  key.push_back(query.student.value_or(false) ? '\1' : '\0');
  key.push_back(static_cast<char>(query.rank));
  PutVarint64(&key, query.offset);
  PutVarint64(&key, query.limit);
  PutVarint64(&key, query.fuzzy_max_edits);
  return key;
}

void ResultCache::BindMetrics(const Instruments& instruments) {
  instruments_ = instruments;
}

ResultCache::Shard& ResultCache::ShardFor(std::string_view key) {
  return shards_[Fnv1a64(key) % kShards];
}

size_t ResultCache::ChargeOf(std::string_view key,
                             const query::QueryResult& result) {
  // Entry + list node + map slot bookkeeping, flat-rated.
  constexpr size_t kOverhead = 128;
  return key.size() + result.hits.size() * sizeof(query::Hit) + kOverhead;
}

void ResultCache::EraseLocked(Shard& shard,
                              std::list<Entry>::iterator it) {
  shard.bytes -= it->charge;
  if (instruments_.bytes != nullptr) {
    instruments_.bytes->Add(-static_cast<int64_t>(it->charge));
  }
  shard.map.erase(std::string_view(it->key));
  shard.lru.erase(it);
}

std::optional<query::QueryResult> ResultCache::Probe(std::string_view key,
                                                     uint64_t epoch) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto found = shard.map.find(key);
  if (found == shard.map.end()) {
    if (instruments_.misses != nullptr) {
      instruments_.misses->Inc();
    }
    return std::nullopt;
  }
  auto it = found->second;
  if (it->epoch != epoch) {
    // Data changed since this result was computed: the entry can never
    // hit again (epochs only grow), so reclaim it now.
    EraseLocked(shard, it);
    if (instruments_.invalidations != nullptr) {
      instruments_.invalidations->Inc();
    }
    if (instruments_.misses != nullptr) {
      instruments_.misses->Inc();
    }
    return std::nullopt;
  }
  // Refresh LRU position.
  shard.lru.splice(shard.lru.begin(), shard.lru, it);
  if (instruments_.hits != nullptr) {
    instruments_.hits->Inc();
  }
  return it->result;
}

void ResultCache::Insert(std::string_view key, uint64_t epoch,
                         const query::QueryResult& result) {
  const size_t charge = ChargeOf(key, result);
  if (charge > shard_capacity_) {
    return;  // Would immediately evict itself (and everything else).
  }
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto found = shard.map.find(key);
  if (found != shard.map.end()) {
    // Re-insert under a racing key: replace the stored result (the
    // newest epoch wins; with equal epochs the results are identical).
    EraseLocked(shard, found->second);
  }
  shard.lru.push_front(Entry{std::string(key), epoch, charge, result});
  shard.map.emplace(std::string_view(shard.lru.front().key),
                    shard.lru.begin());
  shard.bytes += charge;
  if (instruments_.bytes != nullptr) {
    instruments_.bytes->Add(static_cast<int64_t>(charge));
  }
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    if (instruments_.evictions != nullptr) {
      instruments_.evictions->Inc();
    }
  }
}

size_t ResultCache::bytes_used() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

size_t ResultCache::entry_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

}  // namespace authidx::core
