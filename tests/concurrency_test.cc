// Thread-safety stress tests for the storage engine and the catalog
// (run under the tsan preset in CI; see docs/ARCHITECTURE.md §threading).
//
// These tests are about *absence of races and hangs*, not timing: every
// assertion holds for any legal interleaving, including the fully
// serialized one a single-core machine produces.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "authidx/common/strings.h"
#include "authidx/core/author_index.h"
#include "authidx/model/record.h"
#include "authidx/storage/engine.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

std::string FreshDir(const char* tag) {
  std::string dir = ::testing::TempDir() + "/authidx_conc_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

uint64_t MetricValueOf(const StorageEngine& engine, std::string_view name) {
  obs::MetricsSnapshot snapshot = engine.metrics().Snapshot();
  const obs::MetricValue* metric = snapshot.Find(name);
  return metric != nullptr ? static_cast<uint64_t>(metric->counter) : 0;
}

// Env decorator whose file Sync takes ~1ms. On a single core this is
// what makes group commit observable: while the leader sleeps inside
// the WAL fsync, the other writer threads get scheduled and enqueue, so
// the next leader commits a multi-writer group.
class SlowSyncEnv final : public Env {
 public:
  explicit SlowSyncEnv(Env* base) : base_(base) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    AUTHIDX_ASSIGN_OR_RETURN(auto base, base_->NewWritableFile(path));
    return std::unique_ptr<WritableFile>(
        std::make_unique<SlowSyncFile>(std::move(base)));
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Status WriteStringToFileSync(const std::string& path,
                               std::string_view data) override {
    return base_->WriteStringToFileSync(path, data);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

 private:
  class SlowSyncFile final : public WritableFile {
   public:
    explicit SlowSyncFile(std::unique_ptr<WritableFile> base)
        : base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
  };

  Env* base_;
};

TEST(EngineConcurrencyTest, ParallelWritersAndReadersWithBackgroundWork) {
  std::string dir = FreshDir("rw");
  EngineOptions options;
  options.memtable_bytes = 16 * 1024;  // Force seals + flushes mid-run.
  options.l0_compaction_trigger = 4;   // And background compactions.
  auto opened = StorageEngine::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& engine = *opened;

  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kKeysPerWriter = 200;
  std::atomic<bool> stop{false};
  std::atomic<int> write_failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        std::string key = StringPrintf("w%d-key%05d", w, i);
        std::string value = StringPrintf("value-%d-%d", w, i);
        if (!engine->Put(key, value).ok()) {
          ++write_failures;
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      uint64_t probe = static_cast<uint64_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        int w = static_cast<int>(probe % kWriters);
        int i = static_cast<int>(probe % kKeysPerWriter);
        probe = probe * 2862933555777941757ULL + 3037000493ULL;
        // Iterators pin their own snapshot; scanning one while flushes
        // and compactions retire files underneath must stay valid.
        auto state = tests::ScanToMap(*engine->NewIterator());
        ASSERT_TRUE(state.ok()) << state.status();
        auto found = state->find(StringPrintf("w%d-key%05d", w, i));
        if (found != state->end()) {
          // A value, once visible, is exactly what its writer put.
          EXPECT_EQ(found->second, StringPrintf("value-%d-%d", w, i));
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads[t].join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }

  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_TRUE(engine->background_error().ok());
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      auto found = state->find(StringPrintf("w%d-key%05d", w, i));
      ASSERT_NE(found, state->end()) << "w" << w << " i" << i;
      EXPECT_EQ(found->second, StringPrintf("value-%d-%d", w, i));
    }
  }
  EXPECT_GT(engine->stats().flushes, 0u);
  ASSERT_TRUE(engine->Close().ok());
}

TEST(EngineConcurrencyTest, MetricsAndIntegrityScansDuringWrites) {
  std::string dir = FreshDir("verify");
  EngineOptions options;
  options.memtable_bytes = 16 * 1024;
  // Compaction disabled: VerifyIntegrity scans files without the engine
  // lock, so a concurrent compaction may legally retire a table mid-scan
  // and surface as a transient per-file error. With flush-only
  // background work the store stays append-only and every scan is clean.
  options.l0_compaction_trigger = 1 << 20;
  auto opened = StorageEngine::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& engine = *opened;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(
          engine->Put(StringPrintf("key%05d", i), std::string(100, 'v'))
              .ok());
    }
    stop.store(true, std::memory_order_relaxed);
  });
  while (!stop.load(std::memory_order_relaxed)) {
    auto report = engine->VerifyIntegrity();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->corrupt_files, 0u);
    EXPECT_TRUE(report->manifest_status.ok()) << report->manifest_status;
    (void)engine->stats();
    (void)engine->metrics().Snapshot();
    EXPECT_FALSE(engine->degraded());
  }
  writer.join();
  ASSERT_TRUE(engine->Close().ok());
}

TEST(EngineConcurrencyTest, CloseRacesWithWritersFlushAndCompact) {
  std::string dir = FreshDir("close");
  EngineOptions options;
  options.memtable_bytes = 16 * 1024;
  options.l0_compaction_trigger = 4;
  auto opened = StorageEngine::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& engine = *opened;

  // Every operation racing Close must return definitively — OK if it got
  // in before the barrier, FailedPrecondition("engine closed") after —
  // and nothing may hang or crash.
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 300; ++i) {
        Status s = engine->Put(StringPrintf("w%d-%05d", w, i), "v");
        if (!s.ok()) {
          EXPECT_TRUE(s.IsFailedPrecondition()) << s;
          break;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      Status s = engine->Flush();
      if (!s.ok()) {
        EXPECT_TRUE(s.IsFailedPrecondition()) << s;
        break;
      }
    }
  });
  threads.emplace_back([&] {
    Status s = engine->Compact();
    if (!s.ok()) {
      EXPECT_TRUE(s.IsFailedPrecondition()) << s;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(engine->Close().ok());
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(engine->Put("after", "v").IsFailedPrecondition());

  // Everything that was acked before Close is durable across reopen.
  auto reopened = StorageEngine::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto report = (*reopened)->VerifyIntegrity();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_files, 0u);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST(EngineConcurrencyTest, GroupCommitAmortizesSyncsAcrossWriters) {
  std::string dir = FreshDir("group");
  SlowSyncEnv slow_env(Env::Default());
  EngineOptions options;
  options.env = &slow_env;
  options.sync_writes = true;
  auto opened = StorageEngine::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  auto& engine = *opened;

  constexpr int kWriters = 8;
  constexpr int kWritesEach = 25;
  constexpr uint64_t kTotalWrites = kWriters * kWritesEach;
  uint64_t syncs_before = MetricValueOf(*engine, "authidx_wal_syncs_total");
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kWritesEach; ++i) {
        ASSERT_TRUE(
            engine->Put(StringPrintf("w%d-%04d", w, i), "value").ok());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  // Every write went through group commit...
  EXPECT_EQ(MetricValueOf(*engine, "authidx_group_commit_writes_total"),
            kTotalWrites);
  uint64_t batches =
      MetricValueOf(*engine, "authidx_group_commit_batches_total");
  EXPECT_GT(batches, 0u);
  EXPECT_LE(batches, kTotalWrites);
  // ...and with 8 writers queueing behind a deliberately slow fsync,
  // batching MUST have occurred: strictly fewer fsyncs than writes, and
  // exactly one fsync per commit group.
  uint64_t syncs =
      MetricValueOf(*engine, "authidx_wal_syncs_total") - syncs_before;
  EXPECT_EQ(syncs, batches);
  EXPECT_LT(batches, kTotalWrites);

  // Group commit must not have weakened durability: everything acked is
  // there after reopen with no Close (the crash case).
  auto state = tests::ScanToMap(*engine->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kWritesEach; ++i) {
      ASSERT_EQ(state->count(StringPrintf("w%d-%04d", w, i)), 1u);
    }
  }
  ASSERT_TRUE(engine->Close().ok());
}

TEST(CatalogConcurrencyTest, SearchesRunAgainstConcurrentIngest) {
  std::string dir = FreshDir("catalog");
  auto catalog = core::AuthorIndex::OpenPersistent(dir);
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  constexpr int kEntries = 150;
  std::thread ingester([&] {
    for (int i = 0; i < kEntries; ++i) {
      Entry entry;
      entry.author.surname = StringPrintf("Surname%03d", i);
      entry.author.given = "Given";
      entry.title = StringPrintf("Title number %d of collected works", i);
      entry.citation.volume = 80 + (i % 20);
      entry.citation.page = 1 + i;
      entry.citation.year = 1990 + (i % 30);
      auto added = (*catalog)->Add(std::move(entry));
      ASSERT_TRUE(added.ok()) << added.status();
    }
  });
  std::atomic<bool> done{false};
  std::thread prober([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto result = (*catalog)->Search("author:surname007");
      ASSERT_TRUE(result.ok()) << result.status();
      auto groups = (*catalog)->GroupsInOrder();
      // Group walk sees a consistent catalog: every listed entry id
      // resolves (entries are append-only, ids dense).
      for (const auto& group : groups) {
        for (EntryId id : group.entries) {
          EXPECT_NE((*catalog)->GetEntry(id), nullptr);
        }
      }
      (void)(*catalog)->GetMetricsSnapshot();
      (void)(*catalog)->group_count();
    }
  });
  ingester.join();
  done.store(true, std::memory_order_relaxed);
  prober.join();

  auto result = (*catalog)->Search("author:surname042");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 1u);
  EXPECT_EQ((*catalog)->group_count(), static_cast<size_t>(kEntries));
  ASSERT_TRUE((*catalog)->Flush().ok());
}

}  // namespace
}  // namespace authidx::storage
