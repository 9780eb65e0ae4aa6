// B5: in-memory postings — list decode (GetDocs), plus block-max top-k
// pruning vs exhaustive BM25 (DESIGN.md §3).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/index/inverted.h"
#include "authidx/index/ranker.h"

namespace authidx {
namespace {

// Shared index for the ranking benches: 200k docs of 4–12 zipfian
// tokens each, so the head terms have long postings lists with varied
// term frequencies and doc lengths (duplicate draws raise tf, giving
// the block-max skip table something to discriminate on).
const InvertedIndex& RankedIndex() {
  static const InvertedIndex* index = [] {
    auto* idx = new InvertedIndex();
    Random rng(99);
    Zipf zipf(2000, 1.0, 42);
    std::vector<std::string> tokens;
    for (EntryId doc = 0; doc < 200000; ++doc) {
      tokens.clear();
      size_t len = 4 + rng.Uniform(9);
      for (size_t t = 0; t < len; ++t) {
        tokens.push_back("t" + std::to_string(zipf.Next()));
      }
      idx->AddDocument(doc, tokens);
    }
    return idx;
  }();
  return *index;
}

// A realistic conjunctive mix — one rare term driving two common ones,
// where block skipping should shine: most of the common terms' blocks
// never contain an alignment candidate and are never decoded.
const std::vector<std::string>& RankedTerms() {
  static const std::vector<std::string> terms = {"t2", "t25", "t250"};
  return terms;
}

// The exhaustive baseline: score every posting of every query term.
void BM_RankBm25Exhaustive(benchmark::State& state) {
  const InvertedIndex& index = RankedIndex();
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RankBm25(index, RankedTerms(), k));
  }
  uint64_t postings = 0;
  for (const std::string& term : RankedTerms()) {
    postings += index.DocFreq(term);
  }
  state.counters["postings_decoded"] = static_cast<double>(postings);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RankBm25Exhaustive)->Arg(10)->Arg(100);

// Whole-list decode as title candidates do it: GetDocs on a head term
// (t2) and a tail term (t250) of the ranking index.
void BM_GetDocs(benchmark::State& state) {
  const InvertedIndex& index = RankedIndex();
  const std::string term = "t" + std::to_string(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.GetDocs(term));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(index.DocFreq(term)));
}
BENCHMARK(BM_GetDocs)->Arg(2)->Arg(250);

// Block-max pruned conjunctive top-k over the same index and terms.
void BM_RankBm25TopKPruned(benchmark::State& state) {
  const InvertedIndex& index = RankedIndex();
  size_t k = static_cast<size_t>(state.range(0));
  TopKStats stats;
  for (auto _ : state) {
    stats = TopKStats{};
    benchmark::DoNotOptimize(
        RankBm25TopKConjunctive(index, RankedTerms(), k, {}, &stats));
  }
  state.counters["postings_decoded"] =
      static_cast<double>(stats.postings_decoded);
  state.counters["postings_skipped"] =
      static_cast<double>(stats.postings_skipped);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RankBm25TopKPruned)->Arg(10)->Arg(100);

}  // namespace
}  // namespace authidx
