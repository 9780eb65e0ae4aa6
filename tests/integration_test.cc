// End-to-end tests exercising the whole stack: synthetic corpus ->
// persistent AuthorIndex (LSM storage) -> reopen -> structured queries ->
// typeset/export, plus brute-force cross-validation of query results.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "authidx/core/author_index.h"
#include "authidx/core/stats.h"
#include "authidx/format/export.h"
#include "authidx/format/typeset.h"
#include "authidx/query/parser.h"
#include "authidx/text/collate.h"
#include "authidx/text/normalize.h"
#include "authidx/text/tokenize.h"
#include "authidx/workload/corpus.h"

namespace authidx {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/integration_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    workload::CorpusOptions options;
    options.entries = 3000;
    options.authors = 400;
    options.seed = 0xC0FFEE;
    entries_ = workload::GenerateCorpus(options);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::vector<Entry> entries_;
};

TEST_F(IntegrationTest, FullLifecycleWithReopen) {
  {
    auto catalog = core::AuthorIndex::OpenPersistent(dir_);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    // Half in a sealed segment, half in the newest one.
    const size_t half = entries_.size() / 2;
    ASSERT_TRUE((*catalog)
                    ->AddAll({entries_.begin(), entries_.begin() + half})
                    .ok());
    ASSERT_TRUE((*catalog)->Flush().ok());
    ASSERT_TRUE(
        (*catalog)->AddAll({entries_.begin() + half, entries_.end()}).ok());
    EXPECT_EQ((*catalog)->StorageStats().segments, 2u);
  }
  auto catalog = core::AuthorIndex::OpenPersistent(dir_);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_EQ((*catalog)->entry_count(), entries_.size());

  // Every query result cross-validated against a brute-force scan.
  struct Case {
    const char* query;
  };
  const Case cases[] = {
      {"author:miller limit:10000"},
      {"author:mc* limit:10000"},
      {"year:1975..1985 limit:10000"},
      {"vol:82 limit:10000"},
      {"student:yes year:1980..1990 limit:10000"},
      {"title:coal limit:10000"},
      {"mining safety limit:10000"},
      {"title:mining -safety limit:10000"},
  };
  for (const Case& c : cases) {
    auto result = (*catalog)->Search(c.query);
    ASSERT_TRUE(result.ok()) << c.query << ": " << result.status();
    // Brute force evaluation.
    query::Query q = *query::ParseQuery(c.query);
    size_t expected = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (q.author_exact) {
        std::string folded_group =
            text::NormalizeForIndex(e.author.GroupKey());
        std::string folded_surname =
            text::NormalizeForIndex(e.author.surname);
        if (folded_group != *q.author_exact &&
            folded_surname != *q.author_exact) {
          continue;
        }
      }
      if (q.author_prefix) {
        std::string folded =
            text::NormalizeForIndex(e.author.GroupKey());
        if (folded.compare(0, q.author_prefix->size(), *q.author_prefix) !=
            0) {
          continue;
        }
      }
      if (q.year && !q.year->Contains(e.citation.year)) continue;
      if (q.volume && !q.volume->Contains(e.citation.volume)) continue;
      if (q.student && e.author.student_material != *q.student) continue;
      auto tokens = text::Tokenize(e.title);
      bool ok = true;
      for (const std::string& term : q.title_terms) {
        if (std::find(tokens.begin(), tokens.end(), term) == tokens.end()) {
          ok = false;
          break;
        }
      }
      for (const std::string& term : q.not_terms) {
        if (std::find(tokens.begin(), tokens.end(), term) != tokens.end()) {
          ok = false;
          break;
        }
      }
      if (ok) {
        ++expected;
      }
    }
    EXPECT_EQ(result->total_matches, expected) << c.query;
  }
}

TEST_F(IntegrationTest, TypesetAndExportOverPersistentCatalog) {
  {
    auto catalog = core::AuthorIndex::OpenPersistent(dir_);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE((*catalog)->AddAll(entries_).ok());
  }
  auto catalog = core::AuthorIndex::OpenPersistent(dir_);
  ASSERT_TRUE(catalog.ok());

  auto pages = format::TypesetAuthorIndex(**catalog);
  EXPECT_GT(pages.size(), 10u);
  // Total typeset rows == entries: count citation-bearing lines.
  size_t citations = 0;
  for (const auto& page : pages) {
    size_t pos = 0;
    while ((pos = page.text.find(" (19", pos)) != std::string::npos) {
      ++citations;
      pos += 1;
    }
  }
  EXPECT_EQ(citations, entries_.size());

  std::string csv = format::CatalogToCsv(**catalog);
  EXPECT_EQ(static_cast<size_t>(std::count(csv.begin(), csv.end(), '\n')),
            entries_.size() + 1);
  std::string json = format::CatalogToJson(**catalog);
  EXPECT_GT(json.size(), entries_.size() * 40);

  core::CatalogStats stats = core::ComputeStats(**catalog);
  EXPECT_EQ(stats.entries, entries_.size());
  EXPECT_EQ(stats.distinct_authors, (*catalog)->group_count());
}

TEST_F(IntegrationTest, GroupOrderEqualsCollationOfSortKeys) {
  auto catalog = core::AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(entries_).ok());
  auto groups = catalog->GroupsInOrder();
  size_t total = 0;
  for (size_t i = 0; i < groups.size(); ++i) {
    total += groups[i].entries.size();
    if (i > 0) {
      EXPECT_LT(text::Compare(groups[i - 1].display, groups[i].display), 0);
    }
  }
  EXPECT_EQ(total, entries_.size());
}

TEST_F(IntegrationTest, InMemoryAndPersistentAgreeOnQueries) {
  auto mem = core::AuthorIndex::Create();
  ASSERT_TRUE(mem->AddAll(entries_).ok());
  {
    auto disk = core::AuthorIndex::OpenPersistent(dir_);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AddAll(entries_).ok());
  }
  auto disk = core::AuthorIndex::OpenPersistent(dir_);
  ASSERT_TRUE(disk.ok());
  for (const char* q :
       {"author:smith limit:10000", "coal order:relevance limit:50",
        "author:b* year:1970..1980 limit:10000", "student:yes limit:10000"}) {
    auto a = mem->Search(q);
    auto b = (*disk)->Search(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->total_matches, b->total_matches) << q;
    ASSERT_EQ(a->hits.size(), b->hits.size()) << q;
    for (size_t i = 0; i < a->hits.size(); ++i) {
      EXPECT_EQ(a->hits[i].id, b->hits[i].id) << q << " hit " << i;
    }
  }
}

}  // namespace
}  // namespace authidx
