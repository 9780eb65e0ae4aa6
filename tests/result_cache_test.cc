// The epoch-invalidated query result cache: LRU/eviction unit behavior,
// and the AuthorIndex integration — every mutation path (Add, AddAll,
// Flush, Compact) must bump the data epoch so a cached result is never
// served stale, and the trace tree must show the probe outcome. KeyFor
// must give distinct queries distinct keys.

#include "authidx/core/result_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/core/author_index.h"
#include "authidx/obs/trace.h"
#include "authidx/query/parser.h"
#include "authidx/workload/sample_data.h"

namespace authidx::core {
namespace {

query::QueryResult MakeResult(size_t hits) {
  query::QueryResult result;
  for (size_t i = 0; i < hits; ++i) {
    result.hits.push_back(query::Hit{static_cast<EntryId>(i), 1.0});
  }
  result.total_matches = hits;
  return result;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(1 << 20);
  EXPECT_FALSE(cache.Probe("q1", 0).has_value());
  cache.Insert("q1", 0, MakeResult(3));
  auto hit = cache.Probe("q1", 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->hits.size(), 3u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_GT(cache.bytes_used(), 0u);
}

TEST(ResultCacheTest, EpochMismatchInvalidates) {
  ResultCache cache(1 << 20);
  cache.Insert("q1", 0, MakeResult(3));
  // Data changed: the stale entry must not be served, and is reclaimed.
  EXPECT_FALSE(cache.Probe("q1", 1).has_value());
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  // Re-inserted at the new epoch it hits again.
  cache.Insert("q1", 1, MakeResult(2));
  EXPECT_TRUE(cache.Probe("q1", 1).has_value());
}

TEST(ResultCacheTest, CapacityBoundEvictsLru) {
  ResultCache cache(4096);  // 512 bytes per shard.
  // Insert many entries hashing across shards; total bytes stay bounded.
  for (int i = 0; i < 200; ++i) {
    cache.Insert("query-" + std::to_string(i), 0, MakeResult(2));
  }
  EXPECT_LE(cache.bytes_used(), 4096u);
  EXPECT_LT(cache.entry_count(), 200u);
}

TEST(ResultCacheTest, OversizedEntryNotCached) {
  ResultCache cache(1024);  // 128 bytes per shard; any entry is bigger.
  cache.Insert("q1", 0, MakeResult(100));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(cache.Probe("q1", 0).has_value());
}

TEST(ResultCacheTest, ReinsertReplaces) {
  ResultCache cache(1 << 20);
  cache.Insert("q1", 0, MakeResult(1));
  cache.Insert("q1", 1, MakeResult(5));
  EXPECT_EQ(cache.entry_count(), 1u);
  auto hit = cache.Probe("q1", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->hits.size(), 5u);
}

TEST(ResultCacheTest, InstrumentsCount) {
  obs::MetricsRegistry registry;
  ResultCache cache(1 << 20);
  ResultCache::Instruments instruments;
  instruments.hits = registry.RegisterCounter("hits", "");
  instruments.misses = registry.RegisterCounter("misses", "");
  instruments.evictions = registry.RegisterCounter("evictions", "");
  instruments.invalidations = registry.RegisterCounter("invalidations", "");
  instruments.bytes = registry.RegisterGauge("bytes", "");
  cache.BindMetrics(instruments);

  cache.Probe("q1", 0);                 // Miss.
  cache.Insert("q1", 0, MakeResult(2));
  cache.Probe("q1", 0);                 // Hit.
  cache.Probe("q1", 3);                 // Invalidation (+ miss).
  EXPECT_EQ(instruments.hits->Value(), 1u);
  EXPECT_EQ(instruments.misses->Value(), 2u);
  EXPECT_EQ(instruments.invalidations->Value(), 1u);
  EXPECT_EQ(instruments.bytes->Value(), 0);  // Invalidation reclaimed it.
}

// --- Cache keys ----------------------------------------------------------

// Query texts whose debug renderings (Query::ToString) are equal: a
// quoted value can spell out what reads as another clause.
constexpr std::pair<const char*, const char*> kCollidingTexts[] = {
    {"coauthor:\"smith year=1980..1990\"", "coauthor:smith year:1980..1990"},
    {"author:\"smith student=yes\"", "author:smith student:yes"},
};

TEST(ResultCacheKeyTest, QuotedValuesDoNotCollide) {
  for (const auto& [a, b] : kCollidingTexts) {
    auto qa = query::ParseQuery(a);
    auto qb = query::ParseQuery(b);
    ASSERT_TRUE(qa.ok() && qb.ok()) << a << " / " << b;
    EXPECT_EQ(qa->ToString(), qb->ToString());
    EXPECT_NE(ResultCache::KeyFor(*qa), ResultCache::KeyFor(*qb)) << a;
  }
}

// Random queries drawn from few values, many of them holding separators,
// so field values often coincide or mimic other fields: two queries get
// the same key only when every field is equal.
TEST(ResultCacheKeyTest, DistinctQueriesGetDistinctKeys) {
  const std::vector<std::string> values = {
      "",  "smith", "smith year=1980..1990", "smith student=yes",
      "a", "a,b",   "a b",                   std::string("a\0b", 3)};
  Random rng(0x6b6579);
  auto pick = [&] { return values[rng.Uniform(values.size())]; };
  auto maybe_string = [&]() -> std::optional<std::string> {
    if (rng.OneIn(2)) return std::nullopt;
    return pick();
  };
  auto pick_list = [&] {
    std::vector<std::string> list(rng.Uniform(3));
    for (std::string& value : list) value = pick();
    return list;
  };
  auto maybe_range = [&]() -> std::optional<query::NumRange> {
    if (rng.OneIn(2)) return std::nullopt;
    return query::NumRange{static_cast<uint32_t>(rng.Uniform(3)),
                           static_cast<uint32_t>(rng.Uniform(3))};
  };
  std::map<std::string, query::Query> by_key;
  std::map<std::string, std::set<std::string>> keys_by_rendering;
  for (int i = 0; i < 20000; ++i) {
    query::Query q;
    q.author_exact = maybe_string();
    q.author_prefix = maybe_string();
    q.author_fuzzy = maybe_string();
    q.title_terms = pick_list();
    q.not_terms = pick_list();
    q.coauthor = maybe_string();
    q.year = maybe_range();
    q.volume = maybe_range();
    if (!rng.OneIn(3)) q.student = rng.OneIn(2);
    q.rank = rng.OneIn(2) ? query::RankMode::kRelevance
                          : query::RankMode::kCollation;
    q.offset = rng.Uniform(2);
    q.limit = rng.Uniform(2) * 100;
    q.fuzzy_max_edits = rng.Uniform(2);
    const std::string key = ResultCache::KeyFor(q);
    auto [it, inserted] = by_key.emplace(key, q);
    ASSERT_TRUE(inserted || it->second == q)
        << q.ToString() << " and " << it->second.ToString() << " share a key";
    keys_by_rendering[q.ToString()].insert(key);
  }
  EXPECT_GT(by_key.size(), 10000u);
  // The generator does reach queries the debug rendering confuses.
  size_t confused = 0;
  for (const auto& [rendering, keys] : keys_by_rendering) {
    confused += keys.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(confused, 0u);
}

// --- AuthorIndex integration -------------------------------------------

uint64_t CounterValue(const AuthorIndex& catalog, std::string_view name) {
  // The snapshot must outlive the Find: a pointer into a temporary
  // would dangle as soon as this full-expression ends.
  obs::MetricsSnapshot snapshot = catalog.GetMetricsSnapshot();
  const obs::MetricValue* value = snapshot.Find(name);
  return value != nullptr ? value->counter : 0;
}

TEST(AuthorIndexResultCacheTest, RepeatQueryHitsUntilIngest) {
  auto catalog = AuthorIndex::Create();
  catalog->EnableResultCache(1 << 20);
  ASSERT_TRUE(catalog->AddAll(*workload::LoadSampleEntries()).ok());
  const uint64_t epoch_after_ingest = catalog->data_epoch();
  EXPECT_GT(epoch_after_ingest, 0u);

  auto first = catalog->Search("author:minow");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_misses_total"), 1u);
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_hits_total"), 0u);

  auto second = catalog->Search("author:minow");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_hits_total"), 1u);
  EXPECT_EQ(second->total_matches, first->total_matches);
  ASSERT_EQ(second->hits.size(), first->hits.size());
  for (size_t i = 0; i < second->hits.size(); ++i) {
    EXPECT_EQ(second->hits[i].id, first->hits[i].id);
  }

  // Ingest bumps the epoch: the cached entry must never be served again.
  Entry entry;
  entry.author = {"Minow", "Newton N.", "", false};
  entry.title = "Television and the Public Interest";
  entry.citation = {80, 1, 1978};
  ASSERT_TRUE(catalog->Add(entry).ok());
  EXPECT_GT(catalog->data_epoch(), epoch_after_ingest);

  auto third = catalog->Search("author:minow");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->total_matches, first->total_matches + 1);
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_hits_total"), 1u);
  EXPECT_GE(CounterValue(*catalog, "authidx_result_cache_invalidations_total"),
            1u);
}

TEST(AuthorIndexResultCacheTest, DistinctQueriesDistinctEntries) {
  auto catalog = AuthorIndex::Create();
  catalog->EnableResultCache(1 << 20);
  ASSERT_TRUE(catalog->AddAll(*workload::LoadSampleEntries()).ok());
  // Same terms, different limit/offset: distinct cache keys.
  ASSERT_TRUE(catalog->Search("author:minow limit:1").ok());
  ASSERT_TRUE(catalog->Search("author:minow limit:2").ok());
  ASSERT_TRUE(catalog->Search("author:minow limit:1").ok());
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_misses_total"), 2u);
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_hits_total"), 1u);
  EXPECT_EQ(catalog->result_cache()->entry_count(), 2u);
}

// Each query of a colliding pair is answered for itself, not with the
// other's cached result.
TEST(AuthorIndexResultCacheTest, CollidingRenderingsGetTheirOwnAnswers) {
  std::vector<Entry> entries(2);
  entries[0].author = {"Smith", "John", "", true};
  entries[0].title = "Surface Mining";
  entries[0].citation = {85, 1, 1985};
  entries[1].author = {"Jones", "Ann", "", false};
  entries[1].title = "Coal Leases";
  entries[1].citation = {85, 90, 1985};
  entries[1].coauthors = {"Smith, Bob"};
  auto plain = AuthorIndex::Create();
  ASSERT_TRUE(plain->AddAll(entries).ok());
  auto cached = AuthorIndex::Create();
  cached->EnableResultCache(1 << 20);
  ASSERT_TRUE(cached->AddAll(entries).ok());

  for (const auto& [a, b] : kCollidingTexts) {
    auto want_a = plain->Search(a);
    auto want_b = plain->Search(b);
    ASSERT_TRUE(want_a.ok() && want_b.ok());
    ASSERT_NE(want_a->total_matches, want_b->total_matches) << a;
    for (const char* text : {a, b, a, b}) {  // Miss, miss, hit, hit.
      auto want = plain->Search(text);
      auto got = cached->Search(text);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->hits, want->hits) << text;
      EXPECT_EQ(got->total_matches, want->total_matches) << text;
    }
  }
  EXPECT_EQ(CounterValue(*cached, "authidx_result_cache_misses_total"), 4u);
  EXPECT_EQ(CounterValue(*cached, "authidx_result_cache_hits_total"), 4u);
}

TEST(AuthorIndexResultCacheTest, CacheDisabledByDefault) {
  auto catalog = AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(*workload::LoadSampleEntries()).ok());
  ASSERT_TRUE(catalog->Search("author:minow").ok());
  ASSERT_TRUE(catalog->Search("author:minow").ok());
  EXPECT_EQ(catalog->result_cache(), nullptr);
  EXPECT_EQ(CounterValue(*catalog, "authidx_result_cache_hits_total"), 0u);
}

TEST(AuthorIndexResultCacheTest, TraceShowsProbeOutcome) {
  auto catalog = AuthorIndex::Create();
  catalog->EnableResultCache(1 << 20);
  ASSERT_TRUE(catalog->AddAll(*workload::LoadSampleEntries()).ok());

  auto has_span = [](const obs::Trace& trace, std::string_view name) {
    for (const obs::Trace::Span& span : trace.spans()) {
      if (span.name == name) {
        return true;
      }
    }
    return false;
  };

  obs::Trace miss_trace;
  ASSERT_TRUE(catalog->SearchTraced("author:minow", &miss_trace).ok());
  EXPECT_TRUE(has_span(miss_trace, "cache_probe"));
  EXPECT_TRUE(has_span(miss_trace, "cache_miss"));
  EXPECT_FALSE(has_span(miss_trace, "cache_hit"));

  obs::Trace hit_trace;
  ASSERT_TRUE(catalog->SearchTraced("author:minow", &hit_trace).ok());
  EXPECT_TRUE(has_span(hit_trace, "cache_probe"));
  EXPECT_TRUE(has_span(hit_trace, "cache_hit"));
  EXPECT_FALSE(has_span(hit_trace, "cache_miss"));
}

TEST(AuthorIndexResultCacheTest, TopKPruneSpanOnPrunedPlan) {
  auto catalog = AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(*workload::LoadSampleEntries()).ok());
  obs::Trace trace;
  auto result =
      catalog->SearchTraced("television order:relevance limit:5", &trace);
  ASSERT_TRUE(result.ok()) << result.status();
  bool saw_topk = false;
  for (const obs::Trace::Span& span : trace.spans()) {
    saw_topk = saw_topk || span.name == "topk_prune";
  }
  EXPECT_TRUE(saw_topk);
}

TEST(AuthorIndexResultCacheTest, FlushAndCompactInvalidate) {
  std::string dir = ::testing::TempDir() + "/authidx_result_cache";
  std::filesystem::remove_all(dir);
  auto opened = AuthorIndex::OpenPersistent(dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto catalog = std::move(*opened);
  catalog->EnableResultCache(1 << 20);
  ASSERT_TRUE(catalog->AddAll(*workload::LoadSampleEntries()).ok());

  ASSERT_TRUE(catalog->Search("author:minow").ok());
  uint64_t epoch = catalog->data_epoch();
  ASSERT_TRUE(catalog->Flush().ok());
  EXPECT_GT(catalog->data_epoch(), epoch);
  // The post-flush probe must not serve the pre-flush entry.
  ASSERT_TRUE(catalog->Search("author:minow").ok());
  EXPECT_GE(CounterValue(*catalog, "authidx_result_cache_invalidations_total"),
            1u);

  epoch = catalog->data_epoch();
  ASSERT_TRUE(catalog->Search("author:minow").ok());  // Re-primed.
  ASSERT_TRUE(catalog->CompactStorage().ok());
  EXPECT_GT(catalog->data_epoch(), epoch);
  uint64_t invalidations_before =
      CounterValue(*catalog, "authidx_result_cache_invalidations_total");
  ASSERT_TRUE(catalog->Search("author:minow").ok());
  EXPECT_GT(CounterValue(*catalog, "authidx_result_cache_invalidations_total"),
            invalidations_before - 1);
}

}  // namespace
}  // namespace authidx::core
