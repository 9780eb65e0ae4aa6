// Oracle test for query::Execute: every query a seeded generator emits
// is also answered by a naive evaluator that scans every entry, applies
// each predicate literally, scores with Bm25Idf/Bm25Contribution over
// full postings it counts itself, and sorts everything with the full
// comparator. Ids, order, fixed64 score bits and total_matches must
// agree. The generator covers every plan kind × NOT / coauthor / year /
// volume / student × offset / limit (0, past the end, huge) ×
// collation / relevance. Each query also runs twice through a
// cache-armed catalog (a miss, then a hit), and both answers must equal
// the uncached one. A seeded fraction of the corpus's authors is
// respelled so the collation tie paths and the fuzzy surname walk see
// hard cases. AUTHIDX_FUZZ_ITERS scales the query count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/core/author_index.h"
#include "authidx/index/ranker.h"
#include "authidx/query/executor.h"
#include "authidx/text/collate.h"
#include "authidx/text/distance.h"
#include "authidx/text/normalize.h"
#include "authidx/text/phonetic.h"
#include "authidx/text/tokenize.h"
#include "authidx/workload/corpus.h"
#include "fuzz_util.h"

namespace authidx {
namespace {

constexpr size_t kHuge = std::numeric_limits<size_t>::max();

// Everything the naive evaluator knows about one entry, derived from the
// entry text alone.
struct NaiveEntry {
  const Entry* entry = nullptr;
  std::string folded_group;
  // Surname of the first entry of the entry's author group, raw and
  // folded: the group keeps those for its surname and phonetic lookups.
  std::string group_surname;
  std::string group_folded_surname;
  std::string sort_key;
  std::vector<std::string> tokens;
  std::vector<std::string> folded_coauthors;
};

class NaiveCatalog {
 public:
  explicit NaiveCatalog(const std::vector<Entry>& entries) {
    std::map<std::string, size_t> first_of_group;
    for (const Entry& entry : entries) {
      NaiveEntry e;
      e.entry = &entry;
      e.folded_group = text::NormalizeForIndex(entry.author.GroupKey());
      auto [it, fresh] = first_of_group.emplace(e.folded_group, rows_.size());
      const Entry& first = fresh ? entry : *rows_[it->second].entry;
      e.group_surname = first.author.surname;
      e.group_folded_surname = text::NormalizeForIndex(first.author.surname);
      e.sort_key = text::MakeSortKey(entry.author.GroupKey());
      e.tokens = text::Tokenize(entry.title);
      total_tokens_ += e.tokens.size();
      for (const std::string& coauthor : entry.coauthors) {
        e.folded_coauthors.push_back(text::NormalizeForIndex(coauthor));
      }
      rows_.push_back(std::move(e));
    }
  }

  const std::vector<NaiveEntry>& rows() const { return rows_; }

  query::QueryResult Evaluate(const query::Query& q) const {
    // An exact clause naming a whole group key selects that group;
    // otherwise it is a surname.
    const bool exact_is_group =
        q.author_exact &&
        std::any_of(rows_.begin(), rows_.end(), [&](const NaiveEntry& e) {
          return e.folded_group == *q.author_exact;
        });
    std::vector<query::Hit> matches;
    for (size_t id = 0; id < rows_.size(); ++id) {
      if (Matches(q, exact_is_group, rows_[id])) {
        matches.push_back(query::Hit{static_cast<EntryId>(id), 0.0});
      }
    }
    const bool relevance =
        q.rank == query::RankMode::kRelevance && !q.title_terms.empty();
    if (relevance) {
      const double n = static_cast<double>(rows_.size());
      const double avg_len =
          static_cast<double>(total_tokens_) / std::max(1.0, n);
      for (const std::string& term : q.title_terms) {
        size_t df = 0;
        for (const NaiveEntry& e : rows_) {
          df += Count(e.tokens, term) > 0 ? 1 : 0;
        }
        if (df == 0) {
          continue;
        }
        const double idf = Bm25Idf(n, static_cast<double>(df));
        for (query::Hit& hit : matches) {
          const NaiveEntry& e = rows_[hit.id];
          const size_t tf = Count(e.tokens, term);
          if (tf > 0) {
            hit.score += Bm25Contribution(
                idf, static_cast<double>(tf),
                static_cast<double>(e.tokens.size()), avg_len, {});
          }
        }
      }
      std::sort(matches.begin(), matches.end(),
                [](const query::Hit& a, const query::Hit& b) {
                  if (a.score != b.score) {
                    return a.score > b.score;
                  }
                  return a.id < b.id;
                });
    } else {
      std::sort(matches.begin(), matches.end(),
                [&](const query::Hit& a, const query::Hit& b) {
                  const NaiveEntry& ea = rows_[a.id];
                  const NaiveEntry& eb = rows_[b.id];
                  if (ea.sort_key != eb.sort_key) {
                    return ea.sort_key < eb.sort_key;
                  }
                  const Citation& ca = ea.entry->citation;
                  const Citation& cb = eb.entry->citation;
                  if (ca.volume != cb.volume) {
                    return ca.volume < cb.volume;
                  }
                  if (ca.page != cb.page) {
                    return ca.page < cb.page;
                  }
                  return a.id < b.id;
                });
    }
    query::QueryResult result;
    result.total_matches = matches.size();
    for (size_t i = q.offset; i < matches.size() && i - q.offset < q.limit;
         ++i) {
      result.hits.push_back(matches[i]);
    }
    return result;
  }

 private:
  static size_t Count(const std::vector<std::string>& tokens,
                      const std::string& term) {
    return static_cast<size_t>(std::count(tokens.begin(), tokens.end(), term));
  }

  static bool AuthorMatches(const query::Query& q, bool exact_is_group,
                            const NaiveEntry& e) {
    if (q.author_exact) {
      return exact_is_group ? e.folded_group == *q.author_exact
                            : e.group_folded_surname == *q.author_exact;
    }
    if (q.author_prefix) {
      return e.folded_group.starts_with(*q.author_prefix);
    }
    if (q.author_fuzzy) {
      const std::string& name = *q.author_fuzzy;
      if (!text::WithinEditDistance(e.group_folded_surname, name,
                                    q.fuzzy_max_edits)) {
        return false;
      }
      // Recall is the surname's phonetic bucket plus the groups that
      // share its first letter, as AuthorIndex implements AuthorFuzzy.
      const std::string code = text::Metaphone(name);
      return text::Metaphone(e.group_surname) == code ||
             (!name.empty() && e.folded_group.starts_with(name.substr(0, 1)) &&
              text::Metaphone(e.group_folded_surname) != code);
    }
    return true;
  }

  static bool Matches(const query::Query& q, bool exact_is_group,
                      const NaiveEntry& e) {
    if (!AuthorMatches(q, exact_is_group, e)) {
      return false;
    }
    for (const std::string& term : q.title_terms) {
      if (Count(e.tokens, term) == 0) {
        return false;
      }
    }
    for (const std::string& term : q.not_terms) {
      if (Count(e.tokens, term) > 0) {
        return false;
      }
    }
    const Entry& entry = *e.entry;
    if (q.coauthor &&
        std::none_of(e.folded_coauthors.begin(), e.folded_coauthors.end(),
                     [&](const std::string& c) {
                       return c.find(*q.coauthor) != std::string::npos;
                     })) {
      return false;
    }
    if (q.year && !q.year->Contains(entry.citation.year)) {
      return false;
    }
    if (q.volume && !q.volume->Contains(entry.citation.volume)) {
      return false;
    }
    if (q.student && entry.author.student_material != *q.student) {
      return false;
    }
    return true;
  }

  std::vector<NaiveEntry> rows_;
  uint64_t total_tokens_ = 0;
};

// Rewrites a seeded fraction of the authors to spellings the generated
// corpus lacks: case and trailing-period variants of one folded group,
// accented and unaccented forms of one surname, surnames shorter than
// the 8-byte sort-key prefix, and surnames sharing that prefix. Their
// entries keep the corpus's volumes and pages, so entries whose keys tie
// on the prefix land in no particular volume order.
void RespellAuthors(std::vector<Entry>* entries, uint64_t seed) {
  struct Spelling {
    const char* surname;
    const char* given;
  };
  static constexpr Spelling kSpellings[] = {
      {"Smith", "J."},       {"SMITH", "J."},      {"Smith", "J"},
      {"smith", "j"},        {"Müller", "Hans"},   {"Muller", "Hans"},
      {"MÜLLER", "H."},      {"Li", "Wei"},        {"Li", "W"},
      {"Ng", "A."},          {"Wu", "B"},          {"Richardson", "P."},
      {"Richards", "P."},    {"Richard", "P"},     {"Richardsen", "Q."},
      {"RICHARDSON", "Ann"},
  };
  Random rng(seed);
  for (Entry& entry : *entries) {
    if (rng.OneIn(5)) {
      const Spelling& spelling = kSpellings[rng.Uniform(std::size(kSpellings))];
      entry.author.surname = spelling.surname;
      entry.author.given = spelling.given;
      entry.author.suffix.clear();
    }
  }
}

// Seeded generator of structured queries over one corpus. Values are
// drawn from the corpus itself so most queries match something.
class QueryGenerator {
 public:
  QueryGenerator(const NaiveCatalog& naive, uint64_t seed)
      : naive_(naive), rng_(seed) {}

  query::Query Next() {
    query::Query q;
    const NaiveEntry& pick = Pick();
    switch (rng_.Uniform(6)) {
      case 0:  // Exact group key, or a surname (the fallback path).
        q.author_exact = rng_.OneIn(2) ? pick.folded_group
                                       : pick.group_folded_surname;
        if (rng_.OneIn(10)) {
          q.author_exact = "zzqx";
        }
        break;
      case 1:
        q.author_prefix = pick.folded_group.substr(
            0, std::min<size_t>(pick.folded_group.size(),
                                rng_.UniformRange(0, 3)));
        break;
      case 2: {
        std::string name = pick.group_folded_surname;
        if (!name.empty() && rng_.OneIn(2)) {
          name[rng_.Uniform(name.size())] = 'e';
        }
        q.author_fuzzy = name;
        q.fuzzy_max_edits = rng_.UniformRange(0, 2);
        break;
      }
      case 3:
      case 4:  // Title terms only: kTitleTerms or kTitleTopK.
        break;
      default:  // No access path: kFullScan.
        break;
    }
    const bool title_only = !q.author_exact && !q.author_prefix &&
                            !q.author_fuzzy;
    const uint64_t term_count =
        title_only && rng_.Uniform(6) < 5 ? rng_.UniformRange(1, 3)
                                          : rng_.UniformRange(0, 2);
    for (uint64_t i = 0; i < term_count; ++i) {
      // Mostly from the picked title so the conjunction stays non-empty.
      q.title_terms.push_back(rng_.OneIn(4) ? Term(Pick()) : Term(pick));
    }
    if (rng_.OneIn(20)) {
      q.title_terms.push_back("qqxyzzy");  // Unknown term.
    }
    if (rng_.OneIn(4)) {
      q.not_terms.push_back(Term(Pick()));
      if (rng_.OneIn(3)) {
        q.not_terms.push_back(rng_.OneIn(2) ? Term(Pick()) : "qqxyzzy");
      }
    }
    if (rng_.OneIn(6)) {
      const NaiveEntry& with = Pick();
      if (!with.folded_coauthors.empty()) {
        const std::string& c = with.folded_coauthors.front();
        q.coauthor = c.substr(0, std::min<size_t>(c.size(), 4));
      } else {
        q.coauthor = "nobody";
      }
    }
    if (rng_.OneIn(4)) {
      const uint32_t lo = pick.entry->citation.year -
                          static_cast<uint32_t>(rng_.Uniform(4));
      q.year = query::NumRange{lo, lo + static_cast<uint32_t>(rng_.Uniform(8))};
    }
    if (rng_.OneIn(5)) {
      const uint32_t lo = pick.entry->citation.volume;
      q.volume =
          query::NumRange{lo, lo + static_cast<uint32_t>(rng_.Uniform(5))};
    }
    if (rng_.OneIn(6)) {
      q.student = rng_.OneIn(2);
    }
    q.rank = rng_.OneIn(2) ? query::RankMode::kRelevance
                           : query::RankMode::kCollation;
    static constexpr size_t kLimits[] = {0, 1, 3, 10, 100, 4096, kHuge};
    static constexpr size_t kOffsets[] = {0, 0, 0, 1, 7, 50, 5000, kHuge};
    q.limit = kLimits[rng_.Uniform(std::size(kLimits))];
    q.offset = kOffsets[rng_.Uniform(std::size(kOffsets))];
    return q;
  }

 private:
  const NaiveEntry& Pick() {
    return naive_.rows()[rng_.Uniform(naive_.rows().size())];
  }

  std::string Term(const NaiveEntry& e) {
    return e.tokens.empty() ? "qqxyzzy"
                            : e.tokens[rng_.Uniform(e.tokens.size())];
  }

  const NaiveCatalog& naive_;
  Random rng_;
};

// Diffs one Execute answer against the oracle. Returns false on the
// first mismatch (reported through gtest).
bool ExpectSameAnswer(const query::QueryResult& got,
                      const query::QueryResult& want,
                      const std::string& label) {
  bool same = true;
  if (got.total_is_lower_bound) {
    // Pruned top-k counts only what it verified; its page is still exact.
    EXPECT_LE(got.total_matches, want.total_matches) << label;
    same &= got.total_matches <= want.total_matches;
  } else {
    EXPECT_EQ(got.total_matches, want.total_matches) << label;
    same &= got.total_matches == want.total_matches;
  }
  EXPECT_EQ(got.hits.size(), want.hits.size()) << label;
  same &= got.hits.size() == want.hits.size();
  for (size_t i = 0; same && i < got.hits.size(); ++i) {
    EXPECT_EQ(got.hits[i].id, want.hits[i].id) << label << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.hits[i].score),
              std::bit_cast<uint64_t>(want.hits[i].score))
        << label << " rank " << i;
    same &= got.hits[i].id == want.hits[i].id &&
            std::bit_cast<uint64_t>(got.hits[i].score) ==
                std::bit_cast<uint64_t>(want.hits[i].score);
  }
  return same;
}

TEST(ExecutorOracleTest, RandomQueriesMatchNaiveEvaluator) {
  const int iters = FuzzIterations(1500);
  const uint64_t kSeeds[] = {0x5eed, 0xbeef, 0x0dd5};
  size_t plans_seen[query::kPlanKindCount] = {};
  size_t with_hits = 0;
  for (uint64_t seed : kSeeds) {
    workload::CorpusOptions options;
    options.entries = 2500;
    options.authors = 250;
    options.seed = seed;
    std::vector<Entry> entries = workload::GenerateCorpus(options);
    RespellAuthors(&entries, seed + 1);
    NaiveCatalog naive(entries);
    auto catalog = core::AuthorIndex::Create();
    ASSERT_TRUE(catalog->AddAll(entries).ok());
    auto cached_catalog = core::AuthorIndex::Create();
    cached_catalog->EnableResultCache(size_t{256} << 20);
    ASSERT_TRUE(cached_catalog->AddAll(entries).ok());

    QueryGenerator gen(naive, seed * 31 + 7);
    const int per_corpus = iters / static_cast<int>(std::size(kSeeds)) + 1;
    for (int i = 0; i < per_corpus; ++i) {
      query::Query q = gen.Next();
      const std::string label =
          "seed " + std::to_string(seed) + " query " + std::to_string(i) +
          ": " + q.ToString();
      Result<query::QueryResult> got = catalog->Run(q);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status();
      ++plans_seen[static_cast<size_t>(got->plan)];
      with_hits += got->hits.empty() ? 0 : 1;
      ASSERT_TRUE(ExpectSameAnswer(*got, naive.Evaluate(q), label));
      for (const char* pass : {" (cache miss)", " (cache hit)"}) {
        Result<query::QueryResult> cached = cached_catalog->Run(q);
        ASSERT_TRUE(cached.ok()) << label << pass << ": " << cached.status();
        ASSERT_EQ(cached->total_matches, got->total_matches) << label << pass;
        ASSERT_TRUE(ExpectSameAnswer(*cached, *got, label + pass));
      }
    }
    obs::MetricsSnapshot snapshot = cached_catalog->GetMetricsSnapshot();
    const obs::MetricValue* cache_hits =
        snapshot.Find("authidx_result_cache_hits_total");
    ASSERT_NE(cache_hits, nullptr);
    EXPECT_GE(cache_hits->counter, static_cast<uint64_t>(per_corpus));
  }
  for (size_t kind = 0; kind < query::kPlanKindCount; ++kind) {
    EXPECT_GT(plans_seen[kind], 0u)
        << query::PlanKindToString(static_cast<query::PlanKind>(kind));
  }
  EXPECT_GT(with_hits, static_cast<size_t>(iters) / 4);
}

// Hand-picked edges the generator only reaches by chance.
TEST(ExecutorOracleTest, PaginationEdges) {
  workload::CorpusOptions options;
  options.entries = 800;
  options.authors = 80;
  std::vector<Entry> entries = workload::GenerateCorpus(options);
  NaiveCatalog naive(entries);
  auto catalog = core::AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(entries).ok());
  const std::string term = naive.rows()[0].tokens.front();
  for (query::RankMode rank :
       {query::RankMode::kCollation, query::RankMode::kRelevance}) {
    for (bool filtered : {false, true}) {
      for (size_t offset : {size_t{0}, size_t{1}, size_t{799}, size_t{800},
                            size_t{801}, kHuge - 1, kHuge}) {
        for (size_t limit : {size_t{0}, size_t{1}, size_t{800}, kHuge - 1,
                             kHuge}) {
          query::Query q;
          q.title_terms = {term};
          q.rank = rank;
          if (filtered) {
            q.year = query::NumRange{0, UINT32_MAX};
          }
          q.offset = offset;
          q.limit = limit;
          Result<query::QueryResult> got = catalog->Run(q);
          ASSERT_TRUE(got.ok());
          ASSERT_TRUE(ExpectSameAnswer(*got, naive.Evaluate(q), q.ToString()));
          q.title_terms.clear();  // Full scan over every entry.
          got = catalog->Run(q);
          ASSERT_TRUE(got.ok());
          ASSERT_TRUE(ExpectSameAnswer(*got, naive.Evaluate(q), q.ToString()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace authidx
