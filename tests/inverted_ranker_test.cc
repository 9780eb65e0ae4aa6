#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>

#include "authidx/index/inverted.h"
#include "authidx/index/ranker.h"
#include "authidx/text/stem.h"
#include "authidx/text/tokenize.h"

namespace authidx {
namespace {

InvertedIndex BuildSmallIndex() {
  InvertedIndex index;
  index.AddDocument(0, text::Tokenize("Strip Mining in West Virginia"));
  index.AddDocument(1, text::Tokenize("Coal Mining Safety Regulation"));
  index.AddDocument(2, text::Tokenize("The Law of Coal, Oil and Gas"));
  index.AddDocument(3, text::Tokenize("Mining Mining Mining"));  // tf=3.
  index.AddDocument(4, text::Tokenize("Comparative Negligence"));
  return index;
}

TEST(InvertedTest, DocFreqAndPostings) {
  InvertedIndex index = BuildSmallIndex();
  std::string mine = text::PorterStem("mining");
  EXPECT_EQ(index.DocFreq(mine), 3u);
  EXPECT_EQ(index.DocFreq("coal"), 2u);
  EXPECT_EQ(index.DocFreq("nonexistent"), 0u);
  EXPECT_EQ(index.GetDocs(mine), (std::vector<EntryId>{0, 1, 3}));
  auto postings = index.GetPostings(mine);
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[2].doc, 3u);
  EXPECT_EQ(postings[2].freq, 3u);  // Repeated token counted.
  EXPECT_EQ(postings[0].freq, 1u);
}

TEST(InvertedTest, CountersAndLengths) {
  InvertedIndex index = BuildSmallIndex();
  EXPECT_EQ(index.doc_count(), 5u);
  EXPECT_GT(index.term_count(), 5u);
  EXPECT_EQ(index.DocLength(3), 3u);
  EXPECT_EQ(index.DocLength(999), 0u);
  EXPECT_GT(index.total_tokens(), 10u);
  EXPECT_GT(index.CompressedBytes(), 0u);
}

TEST(InvertedTest, OutOfOrderDocRejected) {
  InvertedIndex index;
  EXPECT_TRUE(index.AddDocument(5, {"a"}));
  EXPECT_FALSE(index.AddDocument(3, {"b"}));
  EXPECT_FALSE(index.AddDocument(5, {"c"}));  // Ids strictly increase.
  EXPECT_TRUE(index.AddDocument(9, {"d"}));
}

// A repeated doc id used to be indexed a second time: counted as a
// further document, its tokens added to the totals, its length
// overwritten, and its new terms given postings.
TEST(InvertedTest, RepeatedDocIdIndexesNothing) {
  InvertedIndex index;
  EXPECT_TRUE(index.AddDocument(0, {"coal", "mining"}));
  EXPECT_FALSE(index.AddDocument(0, {"coal", "safety", "rules"}));
  EXPECT_TRUE(index.AddDocument(1, {"coal"}));
  EXPECT_EQ(index.doc_count(), 2u);
  EXPECT_EQ(index.total_tokens(), 3u);
  EXPECT_EQ(index.DocLength(0), 2u);
  EXPECT_EQ(index.DocLength(1), 1u);
  EXPECT_EQ(index.term_count(), 2u);
  EXPECT_EQ(index.DocFreq("coal"), 2u);
  EXPECT_TRUE(index.GetDocs("safety").empty());
  EXPECT_TRUE(index.GetDocs("rules").empty());
}

TEST(InvertedTest, UnknownTermIsEmptyNotError) {
  InvertedIndex index = BuildSmallIndex();
  EXPECT_TRUE(index.GetDocs("zzz").empty());
  EXPECT_TRUE(index.GetPostings("zzz").empty());
}

TEST(InvertedTest, MatchesBruteForceOverCorpus) {
  // Index 200 two-term docs; every term's postings must equal the
  // brute-force scan.
  InvertedIndex index;
  std::vector<std::vector<std::string>> docs;
  for (EntryId i = 0; i < 200; ++i) {
    std::vector<std::string> tokens = {
        "t" + std::to_string(i % 7), "t" + std::to_string(i % 13)};
    index.AddDocument(i, tokens);
    docs.push_back(tokens);
  }
  for (int t = 0; t < 13; ++t) {
    std::string term = "t" + std::to_string(t);
    std::vector<EntryId> expected;
    for (EntryId i = 0; i < 200; ++i) {
      const auto& tokens = docs[i];
      if (std::find(tokens.begin(), tokens.end(), term) != tokens.end()) {
        expected.push_back(i);
      }
    }
    EXPECT_EQ(index.GetDocs(term), expected) << term;
  }
}

TEST(InvertedTest, MinDocTokensTracksShortestDoc) {
  InvertedIndex index;
  EXPECT_EQ(index.min_doc_tokens(), 0u);  // Empty index sentinel.
  index.AddDocument(0, {"a", "b", "c", "d"});
  EXPECT_EQ(index.min_doc_tokens(), 4u);
  index.AddDocument(1, {"a", "b"});
  EXPECT_EQ(index.min_doc_tokens(), 2u);
  index.AddDocument(2, {"a", "b", "c"});
  EXPECT_EQ(index.min_doc_tokens(), 2u);  // Minimum, not latest.
}

TEST(CursorTest, UnknownTermIsEmpty) {
  InvertedIndex index = BuildSmallIndex();
  InvertedIndex::Cursor cursor = index.OpenCursor("zzz");
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(cursor.doc_freq(), 0u);
  EXPECT_FALSE(cursor.ShallowSeek(0));
}

TEST(CursorTest, WalksPostingsInOrder) {
  InvertedIndex index;
  // Three blocks: 32 + 32 + 6 postings with varying freqs.
  std::vector<Posting> expected;
  for (EntryId i = 0; i < 70; ++i) {
    EntryId doc = i * 3;  // Gaps of 3.
    uint32_t freq = 1 + (i % 4);
    std::vector<std::string> tokens(freq, "term");
    index.AddDocument(doc, tokens);
    expected.push_back({doc, freq});
  }
  InvertedIndex::Cursor cursor = index.OpenCursor("term");
  EXPECT_EQ(cursor.doc_freq(), 70u);
  EXPECT_EQ(cursor.max_freq(), 4u);
  ASSERT_EQ(cursor.block_count(), 3u);
  EXPECT_EQ(cursor.block_last_doc(0), expected[31].doc);
  EXPECT_EQ(cursor.block_last_doc(1), expected[63].doc);
  EXPECT_EQ(cursor.block_last_doc(2), expected[69].doc);
  for (const Posting& p : expected) {
    ASSERT_TRUE(cursor.ShallowSeek(p.doc));
    cursor.Seek(p.doc);
    EXPECT_EQ(cursor.doc(), p.doc);
    EXPECT_EQ(cursor.freq(), p.freq);
  }
  EXPECT_FALSE(cursor.ShallowSeek(expected.back().doc + 1));
}

TEST(CursorTest, SeekLandsOnNextDocAtOrAfterTarget) {
  InvertedIndex index;
  for (EntryId doc : {2u, 4u, 8u, 16u, 32u, 64u}) {
    index.AddDocument(doc, {"term"});
  }
  InvertedIndex::Cursor cursor = index.OpenCursor("term");
  ASSERT_TRUE(cursor.ShallowSeek(5));
  cursor.Seek(5);
  EXPECT_EQ(cursor.doc(), 8u);  // First doc >= 5.
}

TEST(CursorTest, ShallowSeekSkipsBlockDecoding) {
  InvertedIndex index;
  for (EntryId i = 0; i < 320; ++i) {  // 10 full blocks.
    index.AddDocument(i, {"term"});
  }
  InvertedIndex::Cursor cursor = index.OpenCursor("term");
  // Jump straight to the last block: only it should be decoded.
  ASSERT_TRUE(cursor.ShallowSeek(319));
  cursor.Seek(319);
  EXPECT_EQ(cursor.doc(), 319u);
  EXPECT_EQ(cursor.decoded_postings(), 32u);  // One block, not ten.
}

TEST(CursorTest, BlockMaxFreqBoundsBlockContents) {
  InvertedIndex index;
  for (EntryId i = 0; i < 100; ++i) {
    uint32_t freq = (i == 50) ? 9u : 1u;  // One spike in block 1.
    index.AddDocument(i, std::vector<std::string>(freq, "term"));
  }
  InvertedIndex::Cursor cursor = index.OpenCursor("term");
  ASSERT_EQ(cursor.block_count(), 4u);
  EXPECT_EQ(cursor.block_max_freq(0), 1u);
  EXPECT_EQ(cursor.block_max_freq(1), 9u);
  EXPECT_EQ(cursor.block_max_freq(2), 1u);
  EXPECT_EQ(cursor.block_max_freq(3), 1u);
  EXPECT_EQ(cursor.max_freq(), 9u);
}

TEST(RankerTest, EmptyInputs) {
  InvertedIndex index = BuildSmallIndex();
  EXPECT_TRUE(RankBm25(index, {"coal"}, 0).empty());
  EXPECT_TRUE(RankBm25(index, {}, 10).empty());
  EXPECT_TRUE(RankBm25(InvertedIndex(), {"coal"}, 10).empty());
  EXPECT_TRUE(RankBm25(index, {"unknownterm"}, 10).empty());
}

TEST(RankerTest, HigherTfRanksHigherForEqualLengthDocs) {
  InvertedIndex index;
  index.AddDocument(0, {"coal", "mine", "law"});
  index.AddDocument(1, {"coal", "coal", "coal"});
  index.AddDocument(2, {"tax", "law", "act"});
  auto ranked = RankBm25(index, {"coal"}, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].doc, 1u);  // tf 3 beats tf 1.
  EXPECT_GT(ranked[0].score, ranked[1].score);
}

TEST(RankerTest, RareTermsOutweighCommonOnes) {
  InvertedIndex index;
  // "common" in every doc; "rare" only in doc 7.
  for (EntryId i = 0; i < 20; ++i) {
    std::vector<std::string> tokens = {"common", "filler"};
    if (i == 7) {
      tokens.push_back("rare");
    }
    index.AddDocument(i, tokens);
  }
  auto ranked = RankBm25(index, {"common", "rare"}, 20);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].doc, 7u);  // The rare-term doc dominates.
}

TEST(RankerTest, TopKTruncatesAndOrdersDeterministically) {
  InvertedIndex index;
  for (EntryId i = 0; i < 50; ++i) {
    index.AddDocument(i, {"same", "tokens"});
  }
  auto ranked = RankBm25(index, {"same"}, 5);
  ASSERT_EQ(ranked.size(), 5u);
  // Identical scores: doc id ascending breaks ties.
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].doc, i);
  }
}

TEST(RankerTest, LengthNormalizationPrefersShorterDocs) {
  InvertedIndex index;
  std::vector<std::string> shortdoc = {"coal"};
  std::vector<std::string> longdoc = {"coal", "a", "b", "c", "d",
                                      "e",    "f", "g", "h", "i"};
  index.AddDocument(0, longdoc);
  index.AddDocument(1, shortdoc);
  auto ranked = RankBm25(index, {"coal"}, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].doc, 1u);
}

// Reference implementation mirroring the executor's exhaustive
// relevance path: conjunction via postings intersection, scores from a
// full RankBm25 pass, (score desc, doc asc) order, truncate to k.
std::vector<ScoredDoc> ExhaustiveTopKConjunctive(
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
  std::sort(out.begin(), out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
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

TEST(TopKConjunctiveTest, EmptyCases) {
  InvertedIndex index = BuildSmallIndex();
  EXPECT_TRUE(RankBm25TopKConjunctive(index, {"coal"}, 0).empty());
  EXPECT_TRUE(RankBm25TopKConjunctive(index, {}, 10).empty());
  EXPECT_TRUE(
      RankBm25TopKConjunctive(InvertedIndex(), {"coal"}, 10).empty());
  EXPECT_TRUE(RankBm25TopKConjunctive(index, {"unknownterm"}, 10).empty());
  // Conjunction with an unknown term is provably empty.
  EXPECT_TRUE(
      RankBm25TopKConjunctive(index, {"coal", "unknownterm"}, 10).empty());
}

TEST(TopKConjunctiveTest, MatchesExhaustiveOnSmallIndex) {
  InvertedIndex index = BuildSmallIndex();
  std::string mine = text::PorterStem("mining");
  for (const std::vector<std::string>& terms :
       std::vector<std::vector<std::string>>{
           {"coal"}, {mine}, {"coal", mine}, {mine, "coal"}}) {
    for (size_t k : {1u, 2u, 10u}) {
      auto pruned = RankBm25TopKConjunctive(index, terms, k);
      auto exhaustive = ExhaustiveTopKConjunctive(index, terms, k);
      ASSERT_EQ(pruned.size(), exhaustive.size());
      for (size_t i = 0; i < pruned.size(); ++i) {
        EXPECT_EQ(pruned[i].doc, exhaustive[i].doc) << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(pruned[i].score),
                  std::bit_cast<uint64_t>(exhaustive[i].score))
            << i;
      }
    }
  }
}

TEST(TopKConjunctiveTest, TieHeavyCorpusBreaksTiesByDocId) {
  InvertedIndex index;
  for (EntryId i = 0; i < 100; ++i) {
    index.AddDocument(i, {"same", "tokens"});
  }
  TopKStats stats;
  auto pruned =
      RankBm25TopKConjunctive(index, {"same", "tokens"}, 5, {}, &stats);
  ASSERT_EQ(pruned.size(), 5u);
  for (size_t i = 0; i < pruned.size(); ++i) {
    EXPECT_EQ(pruned[i].doc, i);  // All scores equal: id ascending.
  }
}

TEST(TopKConjunctiveTest, StatsAccountForEveryPosting) {
  InvertedIndex index;
  for (EntryId i = 0; i < 500; ++i) {
    std::vector<std::string> tokens = {"common"};
    if (i % 97 == 0) {
      tokens.push_back("rare");
    }
    index.AddDocument(i, tokens);
  }
  TopKStats stats;
  auto pruned =
      RankBm25TopKConjunctive(index, {"common", "rare"}, 3, {}, &stats);
  EXPECT_FALSE(pruned.empty());
  // Decoded + skipped covers both full postings lists exactly.
  EXPECT_EQ(stats.postings_decoded + stats.postings_skipped,
            index.DocFreq("common") + index.DocFreq("rare"));
  // The rare term drives alignment: most of "common" is never decoded.
  EXPECT_GT(stats.postings_skipped, 0u);
}

}  // namespace
}  // namespace authidx
