// Differential test for block-max top-k pruning: over randomized
// namegen corpora, RankBm25TopKConjunctive must produce bit-identical
// output (doc ids AND fixed64 score bits) to the exhaustive
// conjunction + RankBm25 reference, for every k — including k = 1,
// k > corpus, tie-heavy corpora, and single-term queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <string>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/index/inverted.h"
#include "authidx/index/ranker.h"
#include "authidx/text/tokenize.h"
#include "authidx/workload/namegen.h"

namespace authidx {
namespace {

// Mirrors the executor's exhaustive relevance path: conjunction via
// postings intersection, scores from a full RankBm25 pass over the
// index, (score desc, doc asc) order, truncated to k.
std::vector<ScoredDoc> ExhaustiveReference(
    const InvertedIndex& index, const std::vector<std::string>& terms,
    size_t k) {
  if (terms.empty() || k == 0) {
    return {};
  }
  std::vector<EntryId> matches = index.GetDocs(terms[0]);
  for (size_t i = 1; i < terms.size(); ++i) {
    std::vector<EntryId> next = index.GetDocs(terms[i]);
    std::vector<EntryId> both;
    std::set_intersection(matches.begin(), matches.end(), next.begin(),
                          next.end(), std::back_inserter(both));
    matches = std::move(both);
  }
  std::vector<ScoredDoc> ranked =
      RankBm25(index, terms, index.doc_count());
  std::vector<double> score_of;
  for (const ScoredDoc& sd : ranked) {
    if (sd.doc >= score_of.size()) {
      score_of.resize(sd.doc + 1, 0.0);
    }
    score_of[sd.doc] = sd.score;
  }
  std::vector<ScoredDoc> out;
  for (EntryId id : matches) {
    out.push_back({id, id < score_of.size() ? score_of[id] : 0.0});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) {
                return a.score > b.score;
              }
              return a.doc < b.doc;
            });
  if (out.size() > k) {
    out.resize(k);
  }
  return out;
}

// Asserts bit-identity and returns the pruned run's stats.
TopKStats ExpectBitIdentical(const InvertedIndex& index,
                             const std::vector<std::string>& terms,
                             size_t k) {
  TopKStats stats;
  std::vector<ScoredDoc> pruned =
      RankBm25TopKConjunctive(index, terms, k, {}, &stats);
  std::vector<ScoredDoc> reference = ExhaustiveReference(index, terms, k);
  EXPECT_EQ(pruned.size(), reference.size());
  for (size_t i = 0; i < std::min(pruned.size(), reference.size()); ++i) {
    EXPECT_EQ(pruned[i].doc, reference[i].doc) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(pruned[i].score),
              std::bit_cast<uint64_t>(reference[i].score))
        << "rank " << i << " doc " << pruned[i].doc;
  }
  return stats;
}

InvertedIndex BuildNamegenIndex(uint64_t seed, size_t docs,
                                std::vector<std::vector<std::string>>* tokens_of) {
  workload::NameGenerator names(seed);
  InvertedIndex index;
  for (EntryId doc = 0; doc < docs; ++doc) {
    std::vector<std::string> tokens = text::Tokenize(names.NextTitle());
    index.AddDocument(doc, tokens);
    tokens_of->push_back(std::move(tokens));
  }
  return index;
}

TEST(TopKDifferentialTest, RandomNamegenCorpora) {
  uint64_t total_skipped = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::vector<std::vector<std::string>> tokens_of;
    const size_t docs = seed == 1 ? 300 : 3000;
    InvertedIndex index = BuildNamegenIndex(seed, docs, &tokens_of);
    Random rng(seed * 17);
    for (int trial = 0; trial < 40; ++trial) {
      // Draw 1-3 terms from a random doc so the conjunction is
      // usually nonempty; occasionally mix in a term from another doc
      // (possibly-empty conjunctions must agree too).
      const auto& base = tokens_of[rng.Uniform(tokens_of.size())];
      if (base.empty()) {
        continue;
      }
      std::vector<std::string> terms;
      size_t want = 1 + rng.Uniform(3);
      for (size_t i = 0; i < want && i < base.size(); ++i) {
        terms.push_back(base[rng.Uniform(base.size())]);
      }
      if (rng.OneIn(4)) {
        const auto& other = tokens_of[rng.Uniform(tokens_of.size())];
        if (!other.empty()) {
          terms.push_back(other[rng.Uniform(other.size())]);
        }
      }
      for (size_t k : {1u, 10u, 100u}) {
        TopKStats stats = ExpectBitIdentical(index, terms, k);
        total_skipped += stats.postings_skipped;
      }
      // k beyond every possible match count: full, unpruned output.
      TopKStats stats = ExpectBitIdentical(index, terms, docs + 10);
      EXPECT_FALSE(stats.pruned);
      total_skipped += stats.postings_skipped;
    }
  }
  // The whole run must have exercised actual block skipping.
  EXPECT_GT(total_skipped, 0u);
}

TEST(TopKDifferentialTest, SingleTermAllKs) {
  std::vector<std::vector<std::string>> tokens_of;
  InvertedIndex index = BuildNamegenIndex(42, 2000, &tokens_of);
  // The most common token has the longest postings list.
  std::string best_term;
  size_t best_df = 0;
  for (const std::string& term : index.Terms()) {
    if (index.DocFreq(term) > best_df) {
      best_df = index.DocFreq(term);
      best_term = term;
    }
  }
  ASSERT_GT(best_df, 100u);
  for (size_t k : {1u, 2u, 10u, 100u, 5000u}) {
    ExpectBitIdentical(index, {best_term}, k);
  }
}

TEST(TopKDifferentialTest, TieHeavyCorpus) {
  // Blocks of identical docs produce long score-tie runs right at the
  // top-k boundary; ordering must stay (score desc, doc asc).
  InvertedIndex index;
  for (EntryId doc = 0; doc < 400; ++doc) {
    if (doc % 4 == 0) {
      index.AddDocument(doc, {"mining", "safety", "mining"});
    } else {
      index.AddDocument(doc, {"mining", "safety"});
    }
  }
  for (size_t k : {1u, 3u, 4u, 5u, 99u, 100u, 101u, 500u}) {
    ExpectBitIdentical(index, {"mining", "safety"}, k);
    ExpectBitIdentical(index, {"mining"}, k);
  }
}

TEST(TopKDifferentialTest, PrunedRunsReportLowerBoundMatches) {
  // On a corpus where pruning engages, matches_seen must be a lower
  // bound of (never exceed) the true conjunction size.
  std::vector<std::vector<std::string>> tokens_of;
  InvertedIndex index = BuildNamegenIndex(7, 3000, &tokens_of);
  std::string best_term;
  size_t best_df = 0;
  for (const std::string& term : index.Terms()) {
    if (index.DocFreq(term) > best_df) {
      best_df = index.DocFreq(term);
      best_term = term;
    }
  }
  TopKStats stats;
  auto pruned = RankBm25TopKConjunctive(index, {best_term}, 5, {}, &stats);
  EXPECT_EQ(pruned.size(), 5u);
  EXPECT_LE(stats.matches_seen, best_df);
  if (stats.pruned) {
    EXPECT_LT(stats.matches_seen, best_df);
  } else {
    EXPECT_EQ(stats.matches_seen, best_df);
  }
}

}  // namespace
}  // namespace authidx
