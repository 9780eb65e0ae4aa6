#include "authidx/core/author_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "authidx/model/serde.h"
#include "authidx/obs/log.h"
#include "authidx/text/collate.h"
#include "authidx/workload/corpus.h"
#include "authidx/workload/sample_data.h"

namespace authidx::core {
namespace {

TEST(AuthorIndexTest, AddAssignsDenseIds) {
  auto catalog = AuthorIndex::Create();
  Entry entry;
  entry.author = {"Minow", "Martha", "", false};
  entry.title = "All in the Family";
  entry.citation = {95, 275, 1992};
  auto id0 = catalog->Add(entry);
  ASSERT_TRUE(id0.ok());
  EXPECT_EQ(*id0, 0u);
  entry.title = "Second Article";
  auto id1 = catalog->Add(entry);
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*id1, 1u);
  EXPECT_EQ(catalog->entry_count(), 2u);
  EXPECT_EQ(catalog->group_count(), 1u);  // Same person.
  EXPECT_EQ(catalog->GetEntry(0)->title, "All in the Family");
  EXPECT_EQ(catalog->GetEntry(99), nullptr);
}

TEST(AuthorIndexTest, InvalidEntryRejected) {
  auto catalog = AuthorIndex::Create();
  Entry bad;
  bad.title = "No author";
  bad.citation = {1, 1, 1990};
  EXPECT_TRUE(catalog->Add(bad).status().IsInvalidArgument());
  EXPECT_EQ(catalog->entry_count(), 0u);
}

TEST(AuthorIndexTest, GroupsInOrderMatchesPrintedIndex) {
  auto entries = workload::LoadSampleEntries();
  ASSERT_TRUE(entries.ok());
  auto catalog = AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(std::move(entries).value()).ok());
  auto groups = catalog->GroupsInOrder();
  ASSERT_FALSE(groups.empty());
  // First group of the sample is Abdalla, last is Zlotnick.
  EXPECT_EQ(groups.front().display.substr(0, 7), "Abdalla");
  EXPECT_EQ(groups.back().display.substr(0, 8), "Zlotnick");
  // Display keys ascend in collation order.
  for (size_t i = 1; i < groups.size(); ++i) {
    EXPECT_LT(text::Compare(groups[i - 1].display, groups[i].display), 0)
        << groups[i - 1].display << " !< " << groups[i].display;
  }
  // Multi-entry groups list citations in (volume, page) order.
  for (const auto& group : groups) {
    for (size_t i = 1; i < group.entries.size(); ++i) {
      const Citation& a = catalog->GetEntry(group.entries[i - 1])->citation;
      const Citation& b = catalog->GetEntry(group.entries[i])->citation;
      EXPECT_LE(std::make_pair(a.volume, a.page),
                std::make_pair(b.volume, b.page));
    }
  }
}

// Entries whose names fold to one key belong to one group, and the
// printed index shows that group once, under its first-seen form. Sort
// keys break ties on raw bytes, so ordering entries rather than groups
// would put "SMITH, J." between the two spellings of "smith, j".
TEST(AuthorIndexTest, GroupsInOrderKeepsFoldedVariantsTogether) {
  auto catalog = AuthorIndex::Create();
  Entry entry;
  entry.title = "Title";
  entry.citation = {80, 1, 1978};
  for (const auto& [surname, given] :
       {std::pair{"Smith", "J"}, {"SMITH", "J."}, {"SMITH", "J"}}) {
    entry.author = {surname, given, "", false};
    ASSERT_TRUE(catalog->Add(entry).ok());
  }
  ASSERT_EQ(catalog->group_count(), 2u);
  auto groups = catalog->GroupsInOrder();
  ASSERT_EQ(groups.size(), catalog->group_count());
  auto smith = std::find_if(groups.begin(), groups.end(), [](const auto& g) {
    return g.entries.size() == 2;
  });
  ASSERT_NE(smith, groups.end());
  EXPECT_EQ(smith->display, "Smith, J");
  EXPECT_EQ(smith->entries, (std::vector<EntryId>{0, 2}));
}

// Prefix lookups walk the folded group keys in byte order.
TEST(AuthorIndexTest, AuthorPrefixWalksFoldedKeys) {
  auto catalog = AuthorIndex::Create();
  Entry entry;
  entry.title = "Title";
  entry.citation = {80, 1, 1978};
  for (const char* surname : {"McGinley", "McGraw", "Means", "\u03a9mega",
                              "\u03a8ara"}) {
    entry.author = {surname, "A.", "", false};
    ASSERT_TRUE(catalog->Add(entry).ok());
  }
  using Ids = std::vector<EntryId>;
  EXPECT_EQ(catalog->AuthorPrefix("mc"), (Ids{0, 1}));
  EXPECT_EQ(catalog->AuthorPrefix(""), (Ids{0, 1, 2, 3, 4}));
  // A whole key is its own prefix; one byte more matches nothing.
  EXPECT_EQ(catalog->AuthorPrefix("mcgraw, a."), (Ids{1}));
  EXPECT_TRUE(catalog->AuthorPrefix("mcgraw, a.x").empty());
  // Past the last key.
  EXPECT_TRUE(catalog->AuthorPrefix("zz").empty());
  EXPECT_TRUE(catalog->AuthorPrefix("\xcf").empty());
  // Non-ASCII first byte: folding leaves Greek as is, and its UTF-8 lead
  // byte 0xce sorts after every ASCII key.
  EXPECT_EQ(catalog->AuthorPrefix("\xce"), (Ids{3, 4}));
  EXPECT_EQ(catalog->AuthorPrefix("\u03a9"), (Ids{3}));
}

TEST(AuthorIndexTest, StudentNoteAndArticleGroupTogether) {
  auto catalog = AuthorIndex::Create();
  Entry note;
  note.author = {"Barrett", "Joshua I.", "", true};
  note.title = "Citizen Participation in the Regulation of Surface Mining";
  note.citation = {81, 675, 1979};
  Entry article;
  article.author = {"Barrett", "Joshua I.", "", false};
  article.title = "Longwall Mining and SMCRA";
  article.citation = {94, 693, 1992};
  ASSERT_TRUE(catalog->AddAll({note, article}).ok());
  EXPECT_EQ(catalog->group_count(), 1u);
  auto groups = catalog->GroupsInOrder();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].entries.size(), 2u);
}

TEST(AuthorIndexTest, CoauthorsOf) {
  auto entries = workload::LoadSampleEntries();
  ASSERT_TRUE(entries.ok());
  auto catalog = AuthorIndex::Create();
  ASSERT_TRUE(catalog->AddAll(std::move(entries).value()).ok());
  auto coauthors = catalog->CoauthorsOf("ameri, samuel j.");
  ASSERT_EQ(coauthors.size(), 3u);  // Lewin, Peng, Sirwandane.
  EXPECT_EQ(coauthors[0].substr(0, 5), "Lewin");
  EXPECT_TRUE(catalog->CoauthorsOf("nonexistent").empty());
}

TEST(AuthorIndexTest, SortKeyStableAndOrdered) {
  auto catalog = AuthorIndex::Create();
  Entry a;
  a.author = {"Zimarowski", "James B.", "", false};
  a.title = "T1";
  a.citation = {90, 387, 1987};
  Entry b;
  b.author = {"Abrams", "Dennis M.", "", false};
  b.title = "T2";
  b.citation = {82, 1241, 1980};
  ASSERT_TRUE(catalog->AddAll({a, b}).ok());
  EXPECT_GT(catalog->SortKey(0), catalog->SortKey(1));
  EXPECT_EQ(catalog->SortKey(12345), "");
}

TEST(AuthorIndexPersistenceTest, ReopenRebuildsEverything) {
  std::string dir = ::testing::TempDir() + "/authoridx_persist";
  std::filesystem::remove_all(dir);
  workload::CorpusOptions copt;
  copt.entries = 500;
  copt.authors = 120;
  std::vector<Entry> entries = workload::GenerateCorpus(copt);
  std::vector<AuthorIndex::Group> groups_before;
  {
    auto catalog = AuthorIndex::OpenPersistent(dir);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    ASSERT_TRUE((*catalog)->AddAll(entries).ok());
    groups_before = (*catalog)->GroupsInOrder();
    ASSERT_TRUE((*catalog)->Flush().ok());
  }
  {
    auto catalog = AuthorIndex::OpenPersistent(dir);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    EXPECT_EQ((*catalog)->entry_count(), entries.size());
    // Identical group structure after recovery.
    auto groups_after = (*catalog)->GroupsInOrder();
    ASSERT_EQ(groups_after.size(), groups_before.size());
    for (size_t i = 0; i < groups_after.size(); ++i) {
      EXPECT_EQ(groups_after[i].display, groups_before[i].display);
      EXPECT_EQ(groups_after[i].entries, groups_before[i].entries);
    }
    // Entries byte-identical.
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(*(*catalog)->GetEntry(static_cast<EntryId>(i)), entries[i]);
    }
    // Queries work over the recovered catalog.
    auto result = (*catalog)->Search("author:mc* limit:1000");
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->total_matches, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(AuthorIndexPersistenceTest, RecoveryFromWalWithoutFlush) {
  std::string dir = ::testing::TempDir() + "/authoridx_wal";
  std::filesystem::remove_all(dir);
  Entry entry;
  entry.author = {"Cox", "Archibald", "", false};
  entry.title = "Ethics in Government";
  entry.citation = {94, 281, 1991};
  {
    storage::EngineOptions options;
    options.sync_writes = true;
    auto catalog = AuthorIndex::OpenPersistent(dir, options);
    ASSERT_TRUE(catalog.ok());
    ASSERT_TRUE((*catalog)->Add(entry).ok());
    // No Flush: destructor Close() flushes, but a crash before that is
    // covered by engine_test; here we check the normal close path.
  }
  auto catalog = AuthorIndex::OpenPersistent(dir);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_EQ((*catalog)->entry_count(), 1u);
  EXPECT_EQ(*(*catalog)->GetEntry(0), entry);
  std::filesystem::remove_all(dir);
}

// Restart is visible as phases: the engine's open scan, then the
// catalog rebuilt from one replay of the log.
TEST(AuthorIndexPersistenceTest, OpenLogsEngineOpenThenCatalogReady) {
  std::string dir = ::testing::TempDir() + "/authoridx_ready";
  std::filesystem::remove_all(dir);
  {
    auto catalog = AuthorIndex::OpenPersistent(dir);
    ASSERT_TRUE(catalog.ok()) << catalog.status();
    ASSERT_TRUE((*catalog)->AddAll(*workload::LoadSampleEntries()).ok());
    ASSERT_TRUE((*catalog)->Flush().ok());
    ASSERT_TRUE((*catalog)->Add((*workload::LoadSampleEntries())[0]).ok());
  }
  const size_t entries = workload::LoadSampleEntries()->size() + 1;
  const uint64_t log_bytes =
      std::filesystem::file_size(storage::WalFileName(dir, 1)) +
      std::filesystem::file_size(storage::WalFileName(dir, 2));

  obs::Logger logger(obs::LogLevel::kInfo);
  auto sink = std::make_unique<obs::VectorSink>();
  obs::VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  storage::EngineOptions options;
  options.logger = &logger;
  auto catalog = AuthorIndex::OpenPersistent(dir, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  ASSERT_EQ((*catalog)->entry_count(), entries);

  auto index_of = [&](std::string_view needle) {
    const auto& all = lines->lines();
    for (size_t i = 0; i < all.size(); ++i) {
      if (all[i].find(needle) != std::string::npos) {
        return i;
      }
    }
    ADD_FAILURE() << "no log line contains " << needle;
    return all.size();
  };
  const size_t open_line = index_of("event=engine_open");
  const size_t ready_line = index_of("event=catalog_ready");
  EXPECT_LT(open_line, ready_line);
  const std::string& open = lines->lines()[open_line];
  EXPECT_NE(open.find("segments=3"), std::string::npos) << open;
  EXPECT_NE(open.find("duration_ns="), std::string::npos) << open;
  const std::string& ready = lines->lines()[ready_line];
  EXPECT_NE(ready.find("entries=" + std::to_string(entries)),
            std::string::npos)
      << ready;
  EXPECT_NE(ready.find("bytes_replayed=" + std::to_string(log_bytes)),
            std::string::npos)
      << ready;
  EXPECT_NE(ready.find("duration_ns="), std::string::npos) << ready;
  std::filesystem::remove_all(dir);
}

// Ids are assigned in log order, so a log whose entry ids skip one
// cannot be this catalog's: the open fails instead of renumbering.
TEST(AuthorIndexPersistenceTest, NonDenseEntryIdsInTheLogAreCorruption) {
  std::string dir = ::testing::TempDir() + "/authoridx_sparse";
  std::filesystem::remove_all(dir);
  {
    auto engine = storage::StorageEngine::Open(dir, {});
    ASSERT_TRUE(engine.ok()) << engine.status();
    const std::string value =
        EncodeEntryToString((*workload::LoadSampleEntries())[0]);
    ASSERT_TRUE((*engine)->Put(std::string("e\0\0\0\0", 5), value).ok());
    ASSERT_TRUE((*engine)->Put(std::string("e\0\0\0\2", 5), value).ok());
  }
  auto catalog = AuthorIndex::OpenPersistent(dir);
  ASSERT_FALSE(catalog.ok());
  EXPECT_TRUE(catalog.status().IsCorruption()) << catalog.status();
  EXPECT_NE(catalog.status().ToString().find("not dense"), std::string::npos)
      << catalog.status();
  std::filesystem::remove_all(dir);
}

TEST(AuthorIndexTest, StorageStatsEmptyForInMemory) {
  auto catalog = AuthorIndex::Create();
  EXPECT_EQ(catalog->StorageStats().puts, 0u);
  EXPECT_TRUE(catalog->Flush().ok());
  EXPECT_TRUE(catalog->CompactStorage().ok());
}

}  // namespace
}  // namespace authidx::core
