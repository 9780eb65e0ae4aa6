// B9: structured query latency over a 100k-entry catalog, one benchmark
// per access path (DESIGN.md §3).

#include <benchmark/benchmark.h>

#include "authidx/core/author_index.h"
#include "authidx/query/parser.h"
#include "authidx/workload/corpus.h"

namespace authidx::core {
namespace {

AuthorIndex& Catalog() {
  static AuthorIndex* catalog = [] {
    workload::CorpusOptions options;
    options.entries = 100000;
    options.authors = 8000;
    auto c = AuthorIndex::Create();
    AUTHIDX_CHECK_OK(c->AddAll(workload::GenerateCorpus(options)));
    return c.release();
  }();
  return *catalog;
}

void RunQuery(benchmark::State& state, const char* query_text) {
  AuthorIndex& catalog = Catalog();
  query::Query q = *query::ParseQuery(query_text);
  size_t matches = 0;
  for (auto _ : state) {
    auto result = catalog.Run(q);
    matches = result->total_matches;
    benchmark::DoNotOptimize(result->hits.data());
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_QueryAuthorExact(benchmark::State& state) {
  RunQuery(state, "author:miller limit:1000");
}
BENCHMARK(BM_QueryAuthorExact);

void BM_QueryAuthorPrefix(benchmark::State& state) {
  RunQuery(state, "author:mc* limit:1000");
}
BENCHMARK(BM_QueryAuthorPrefix);

void BM_QueryAuthorFuzzy(benchmark::State& state) {
  RunQuery(state, "author~milner limit:1000");
}
BENCHMARK(BM_QueryAuthorFuzzy)->Unit(benchmark::kMicrosecond);

// Shapes clients send with a small page: the executor should do work
// proportional to the matches and the page, not the catalog.
void BM_QueryAuthorPrefixLimit10(benchmark::State& state) {
  RunQuery(state, "author:mc* limit:10");
}
BENCHMARK(BM_QueryAuthorPrefixLimit10)->Unit(benchmark::kMicrosecond);

void BM_QueryAuthorPrefixTitle(benchmark::State& state) {
  RunQuery(state, "author:mc* coal limit:10");
}
BENCHMARK(BM_QueryAuthorPrefixTitle)->Unit(benchmark::kMicrosecond);

// Relevance with a year filter falls off the pruned top-k plan.
void BM_QueryRelevanceFiltered(benchmark::State& state) {
  RunQuery(state,
           "coal mining year:1975..1985 order:relevance limit:10");
}
BENCHMARK(BM_QueryRelevanceFiltered)->Unit(benchmark::kMicrosecond);

void BM_QuerySingleTerm(benchmark::State& state) {
  RunQuery(state, "coal limit:1000");
}
BENCHMARK(BM_QuerySingleTerm);

void BM_QueryConjunction(benchmark::State& state) {
  RunQuery(state, "coal mining limit:1000");
}
BENCHMARK(BM_QueryConjunction);

void BM_QueryConjunctionWithFilters(benchmark::State& state) {
  RunQuery(state, "coal mining year:1975..1985 student:no limit:1000");
}
BENCHMARK(BM_QueryConjunctionWithFilters);

// Routed to the block-max pruned top-k plan (kTitleTopK); the counters
// expose how much of the postings volume the pruning loop skipped.
void BM_QueryRelevanceRanked(benchmark::State& state) {
  AuthorIndex& catalog = Catalog();
  query::Query q =
      *query::ParseQuery("coal mining safety order:relevance limit:20");
  uint64_t decoded = 0;
  uint64_t skipped = 0;
  for (auto _ : state) {
    auto result = catalog.Run(q);
    decoded = result->postings_decoded;
    skipped = result->postings_skipped;
    benchmark::DoNotOptimize(result->hits.data());
  }
  state.counters["postings_decoded"] = static_cast<double>(decoded);
  state.counters["postings_skipped"] = static_cast<double>(skipped);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryRelevanceRanked)->Unit(benchmark::kMicrosecond);

void BM_QueryNegation(benchmark::State& state) {
  RunQuery(state, "mining -safety limit:1000");
}
BENCHMARK(BM_QueryNegation);

// read_mix's title_negation shape: every match is ordered for one page.
void BM_QueryNegationLimit10(benchmark::State& state) {
  RunQuery(state, "mining -safety limit:10");
}
BENCHMARK(BM_QueryNegationLimit10)->Unit(benchmark::kMicrosecond);

void BM_QueryFilterOnlyFullScan(benchmark::State& state) {
  RunQuery(state, "year:1980..1982 limit:1000");
}
BENCHMARK(BM_QueryFilterOnlyFullScan)->Unit(benchmark::kMillisecond);

void BM_QueryParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    auto q = query::ParseQuery(
        "author:mc* title:\"coal mining\" year:1975..1985 -tax "
        "order:relevance limit:50");
    benchmark::DoNotOptimize(q.ok());
  }
}
BENCHMARK(BM_QueryParseOnly);

}  // namespace
}  // namespace authidx::core
