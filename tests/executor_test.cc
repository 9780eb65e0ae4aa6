#include "authidx/query/executor.h"

#include <gtest/gtest.h>

#include "authidx/core/author_index.h"
#include "authidx/parse/tsv.h"
#include "authidx/query/parser.h"
#include "authidx/workload/corpus.h"

namespace authidx {
namespace {

// A small hand-built catalog with known structure.
std::unique_ptr<core::AuthorIndex> BuildCatalog() {
  const char* tsv =
      "McGinley, Patrick C.\tProhibition of Strip Mining in West Virginia\t78:445 (1976)\n"
      "McGinley, Patrick C.\tPandora in the Coal Fields: Environmental Liabilities\t87:665 (1985)\n"
      "McGraw, Darrell V.\tPractical Political Considerations in Constitutional Revision\t71:320 (1969)\n"
      "McAteer, J. Davitt\tA Miner's Bill of Rights\t80:397 (1978)\n"
      "Smith, Thomas W.*\tWorker's Compensation-Statutory Construction\t77:370 (1975)\n"
      "Smyth, Alan\tCoal Mining Safety in Deep Mines\t83:977 (1981)\n"
      "Jonson, Ben\tThe Staggers Rail Act of 1980: Deregulation Gone Awry\t85:725 (1983)\n"
      "Johnson, Earl, Jr.\tA Conservative Rationale for the Legal Services Program\t70:350 (1968)\n"
      "Lewin, Jeff L.\tComparative Negligence in West Virginia\t89:1039 (1987)\n"
      "Lewin, Jeff L.\tThe Silent Revolution in West Virginia's Law of Nuisance\t92:235 (1989)\n";
  auto entries = ParseTsv(tsv);
  EXPECT_TRUE(entries.ok()) << entries.status();
  auto catalog = core::AuthorIndex::Create();
  EXPECT_TRUE(catalog->AddAll(std::move(entries).value()).ok());
  return catalog;
}

std::vector<std::string> Surnames(const core::AuthorIndex& catalog,
                                  const query::QueryResult& result) {
  std::vector<std::string> out;
  for (const query::Hit& hit : result.hits) {
    out.push_back(catalog.GetEntry(hit.id)->author.surname);
  }
  return out;
}

TEST(ExecutorTest, AuthorExactGroupKeyAndSurnameFallback) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("author:\"McGinley, Patrick C.\"");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan, query::PlanKind::kAuthorExact);
  EXPECT_EQ(result->total_matches, 2u);

  // Surname-only fallback.
  result = catalog->Search("author:mcginley");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 2u);

  result = catalog->Search("author:lewin");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 2u);

  result = catalog->Search("author:nobody");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 0u);
}

TEST(ExecutorTest, AuthorPrefixCoversAllMcAuthors) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("author:mc*");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kAuthorPrefix);
  EXPECT_EQ(result->total_matches, 4u);  // 2x McGinley, McGraw, McAteer.
  auto surnames = Surnames(*catalog, *result);
  // Collation order: McAteer < McGinley < McGraw.
  EXPECT_EQ(surnames, (std::vector<std::string>{
                          "McAteer", "McGinley", "McGinley", "McGraw"}));
}

TEST(ExecutorTest, AuthorFuzzyFindsSoundAlikes) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("author~smith");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kAuthorFuzzy);
  // smith (exact) and smyth (distance 1).
  auto surnames = Surnames(*catalog, *result);
  ASSERT_EQ(surnames.size(), 2u);
  EXPECT_EQ(surnames[0], "Smith");
  EXPECT_EQ(surnames[1], "Smyth");

  result = catalog->Search("author~jonson");
  ASSERT_TRUE(result.ok());
  // jonson (exact) and johnson (distance 1).
  EXPECT_EQ(result->total_matches, 2u);
}

TEST(ExecutorTest, TitleConjunction) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("coal mining");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kTitleTerms);
  // "Pandora in the Coal Fields" has coal but not mining; only Smyth's
  // title has both.
  EXPECT_EQ(result->total_matches, 1u);
  EXPECT_EQ(Surnames(*catalog, *result)[0], "Smyth");
}

TEST(ExecutorTest, UnknownTermShortCircuits) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("coal xylophone");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 0u);
  EXPECT_TRUE(result->hits.empty());
}

TEST(ExecutorTest, NotTermsExclude) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("author:lewin -nuisance");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 1u);
  EXPECT_EQ(catalog->GetEntry(result->hits[0].id)->citation.volume, 89u);
}

TEST(ExecutorTest, ResidualTitleFilterOnAuthorPath) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("author:mcginley title:pandora");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kAuthorExact);
  EXPECT_EQ(result->total_matches, 1u);
  EXPECT_EQ(catalog->GetEntry(result->hits[0].id)->citation.volume, 87u);
}

TEST(ExecutorTest, YearVolumeStudentFilters) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("year:1975..1978");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kFullScan);
  EXPECT_EQ(result->total_matches, 3u);  // 1976, 1975, 1978.

  result = catalog->Search("vol:89..92");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 2u);

  result = catalog->Search("student:yes");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 1u);
  EXPECT_EQ(Surnames(*catalog, *result)[0], "Smith");

  result = catalog->Search("student:no");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 9u);
}

TEST(ExecutorTest, CoauthorFilterCrossReferences) {
  const char* tsv =
      "Ausness, Richard C.\tAdministering State Water Resources\t73:209 (1971)\tMaloney, Frank E.\n"
      "Maloney, Frank E.\tAdministering State Water Resources\t73:209 (1971)\tAusness, Richard C.\n"
      "Solo, Ann\tA Single-Author Piece\t80:1 (1977)\n";
  auto entries = ParseTsv(tsv);
  ASSERT_TRUE(entries.ok());
  auto catalog = core::AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(std::move(entries).value()).ok());
  auto result = catalog->Search("coauthor:maloney");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->total_matches, 1u);
  EXPECT_EQ(catalog->GetEntry(result->hits[0].id)->author.surname,
            "Ausness");
  // Composes with author clauses.
  result = catalog->Search("author:maloney coauthor:ausness");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 1u);
  result = catalog->Search("coauthor:nobody");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 0u);
}

TEST(ExecutorTest, CollationOrderIsPrintedOrder) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("limit:100");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 10u);
  auto surnames = Surnames(*catalog, *result);
  // Johnson < Jonson (h < s at position 2... "johnson" vs "jonson":
  // 'h' < 'n') < Lewin < McAteer < McGinley < McGraw < Smith < Smyth.
  std::vector<std::string> expected = {
      "Johnson", "Jonson",   "Lewin",  "Lewin", "McAteer",
      "McGinley", "McGinley", "McGraw", "Smith", "Smyth"};
  EXPECT_EQ(surnames, expected);
  // Within the Lewin and McGinley groups, volume ascends.
  EXPECT_LT(catalog->GetEntry(result->hits[2].id)->citation.volume,
            catalog->GetEntry(result->hits[3].id)->citation.volume);
}

TEST(ExecutorTest, RelevanceOrderPutsBestMatchFirst) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("coal order:relevance");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->total_matches, 2u);
  EXPECT_GT(result->hits[0].score, 0.0);
  EXPECT_GE(result->hits[0].score, result->hits[1].score);
}

TEST(ExecutorTest, RelevanceConjunctionRoutesToTopKPlan) {
  auto catalog = BuildCatalog();
  auto result = catalog->Search("coal order:relevance");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kTitleTopK);
  // Unpruned run over a tiny corpus: exact totals, full accounting.
  EXPECT_EQ(result->total_matches, 2u);
  EXPECT_FALSE(result->total_is_lower_bound);
  EXPECT_GT(result->postings_decoded, 0u);
}

TEST(ExecutorTest, TopKPlanMatchesExhaustivePath) {
  auto catalog = BuildCatalog();
  // Same query with and without a residual filter that excludes
  // nothing: the filter forces the exhaustive kTitleTerms path, and
  // both must agree on hits, order, and score bits.
  auto pruned = catalog->Search("west virginia order:relevance limit:5");
  auto exhaustive =
      catalog->Search("west virginia order:relevance limit:5 year:1900..");
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_EQ(pruned->plan, query::PlanKind::kTitleTopK);
  EXPECT_EQ(exhaustive->plan, query::PlanKind::kTitleTerms);
  ASSERT_EQ(pruned->hits.size(), exhaustive->hits.size());
  for (size_t i = 0; i < pruned->hits.size(); ++i) {
    EXPECT_EQ(pruned->hits[i].id, exhaustive->hits[i].id) << i;
    EXPECT_EQ(pruned->hits[i].score, exhaustive->hits[i].score) << i;
  }
  EXPECT_EQ(pruned->total_matches, exhaustive->total_matches);
}

TEST(ExecutorTest, TopKPlanPaginates) {
  auto catalog = BuildCatalog();
  auto all = catalog->Search("west virginia order:relevance limit:10");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->plan, query::PlanKind::kTitleTopK);
  ASSERT_EQ(all->hits.size(), 3u);  // Three West Virginia titles.
  auto page = catalog->Search("west virginia order:relevance limit:2 "
                              "offset:1");
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->hits.size(), 2u);
  EXPECT_EQ(page->hits[0].id, all->hits[1].id);
  EXPECT_EQ(page->hits[1].id, all->hits[2].id);
}

TEST(ExecutorTest, PaginationOffsetLimit) {
  auto catalog = BuildCatalog();
  auto all = catalog->Search("limit:100");
  ASSERT_TRUE(all.ok());
  auto page = catalog->Search("limit:3 offset:2");
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->total_matches, 10u);  // Total unaffected by paging.
  ASSERT_EQ(page->hits.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(page->hits[i].id, all->hits[i + 2].id);
  }
  // Offset past the end yields empty hits.
  auto past = catalog->Search("offset:999");
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->hits.empty());
  EXPECT_EQ(past->total_matches, 10u);
}

TEST(ExecutorTest, HugeLimitSaturatesInsteadOfOverflowing) {
  auto catalog = BuildCatalog();
  // offset + limit wraps past SIZE_MAX; the page must still be
  // "everything after the offset" on every ordering path.
  auto result =
      catalog->Search("author:mc* offset:1 limit:18446744073709551615");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_matches, 4u);
  EXPECT_EQ(Surnames(*catalog, *result),
            (std::vector<std::string>{"McGinley", "McGinley", "McGraw"}));

  result = catalog->Search(
      "west virginia year:1900.. order:relevance offset:2 "
      "limit:18446744073709551615");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->plan, query::PlanKind::kTitleTerms);
  EXPECT_EQ(result->total_matches, 3u);
  EXPECT_EQ(result->hits.size(), 1u);

  result = catalog->Search(
      "offset:18446744073709551615 limit:18446744073709551615");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_matches, 10u);
  EXPECT_TRUE(result->hits.empty());
}

TEST(ExecutorTest, ResidualTitleTermIsDecodedOncePerQuery) {
  workload::CorpusOptions options;
  options.entries = 20000;
  options.authors = 2000;
  auto catalog = core::AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(workload::GenerateCorpus(options)).ok());
  obs::Counter* decoded = catalog->mutable_metrics()->RegisterCounter(
      "authidx_inverted_postings_decoded_total", "");

  auto prefix_only = catalog->Search("author:mc* limit:10");
  ASSERT_TRUE(prefix_only.ok());
  ASSERT_GT(prefix_only->total_matches, 100u);  // Many candidates.
  const size_t doc_freq = catalog->title_index().DocFreq("coal");
  ASSERT_GT(doc_freq, 0u);

  const uint64_t before = decoded->Value();
  auto result = catalog->Search("author:mc* coal limit:10");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, query::PlanKind::kAuthorPrefix);
  EXPECT_GT(result->total_matches, 0u);
  // One walk of "coal" at most, however many candidates the prefix had.
  EXPECT_LE(decoded->Value() - before, doc_freq);
}

TEST(ExecutorTest, EmptyCatalog) {
  auto catalog = core::AuthorIndex::Create();
  auto result = catalog->Search("anything goes");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 0u);
  result = catalog->Search("");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_matches, 0u);
}

}  // namespace
}  // namespace authidx
