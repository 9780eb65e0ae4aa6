#include "authidx/obs/log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "authidx/storage/engine.h"

// Global allocation counter, same pattern as metrics_test.cc: the
// no-allocation tests snapshot it around Log() calls to prove the
// formatting path never touches the heap.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// noinline: when GCC inlines replaced global operators it pairs the
// caller's new with the inlined free() and emits a spurious
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) {
    return ptr;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* ptr) noexcept { std::free(ptr); }
[[gnu::noinline]] void operator delete(void* ptr, std::size_t) noexcept {
  std::free(ptr);
}

namespace authidx::obs {
namespace {

// Sink that discards lines without allocating; lets the no-alloc tests
// exercise the full format-and-dispatch path.
class NullSink final : public LogSink {
 public:
  void Write(LogLevel, std::string_view) override { ++writes; }
  uint64_t writes = 0;
};

TEST(LogLevelTest, RoundTripNames) {
  EXPECT_EQ(LogLevelToString(LogLevel::kDebug), "DEBUG");
  EXPECT_EQ(LogLevelToString(LogLevel::kInfo), "INFO");
  EXPECT_EQ(LogLevelToString(LogLevel::kWarn), "WARN");
  EXPECT_EQ(LogLevelToString(LogLevel::kError), "ERROR");
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("Error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_EQ(level, LogLevel::kError);  // Untouched on failure.
}

TEST(LoggerTest, FormatsStructuredFields) {
  Logger logger(LogLevel::kDebug);
  auto sink = std::make_unique<VectorSink>();
  VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  logger.Log(LogLevel::kInfo, "flush",
             {{"table", uint64_t{7}},
              {"signed", int64_t{-3}},
              {"text", "with space"},
              {"bare", "plain"},
              {"ok", true},
              {"ratio", 0.25}});
  ASSERT_EQ(lines->lines().size(), 1u);
  const std::string& line = lines->lines()[0];
  EXPECT_NE(line.find(" level=INFO event=flush"), std::string::npos) << line;
  EXPECT_NE(line.find(" table=7"), std::string::npos) << line;
  EXPECT_NE(line.find(" signed=-3"), std::string::npos) << line;
  EXPECT_NE(line.find(" text=\"with space\""), std::string::npos) << line;
  EXPECT_NE(line.find(" bare=plain"), std::string::npos) << line;
  EXPECT_NE(line.find(" ok=true"), std::string::npos) << line;
  EXPECT_NE(line.find(" ratio=0.25"), std::string::npos) << line;
  // ISO-8601 UTC timestamp prefix: ts=YYYY-MM-DDTHH:MM:SS.mmmZ
  EXPECT_EQ(line.rfind("ts=20", 0), 0u) << line;
  EXPECT_NE(line.find('T'), std::string::npos) << line;
  EXPECT_NE(line.find('Z'), std::string::npos) << line;
}

TEST(LoggerTest, EscapesQuotesAndControlBytes) {
  Logger logger;
  auto sink = std::make_unique<VectorSink>();
  VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  logger.Log(LogLevel::kInfo, "q", {{"v", "say \"hi\"\n"}});
  ASSERT_EQ(lines->lines().size(), 1u);
  EXPECT_NE(lines->lines()[0].find("v=\"say \\\"hi\\\"\\x0a\""),
            std::string::npos)
      << lines->lines()[0];
}

TEST(LoggerTest, MinLevelFiltersAndIsAdjustable) {
  Logger logger(LogLevel::kWarn);
  auto sink = std::make_unique<VectorSink>();
  VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  EXPECT_FALSE(logger.Enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.Enabled(LogLevel::kWarn));
  logger.Log(LogLevel::kInfo, "dropped", {});
  logger.Log(LogLevel::kWarn, "kept", {});
  EXPECT_EQ(lines->lines().size(), 1u);
  logger.set_min_level(LogLevel::kDebug);
  EXPECT_EQ(logger.min_level(), LogLevel::kDebug);
  logger.Log(LogLevel::kDebug, "now kept", {});
  EXPECT_EQ(lines->lines().size(), 2u);
}

TEST(LoggerTest, NoSinksMeansDisabled) {
  Logger logger(LogLevel::kDebug);
  EXPECT_FALSE(logger.Enabled(LogLevel::kError));
  EXPECT_FALSE(Logger::Disabled()->Enabled(LogLevel::kError));
  // Safe no-op.
  Logger::Disabled()->Log(LogLevel::kError, "dropped", {{"k", 1}});
  EXPECT_EQ(Logger::Disabled()->error_count(), 0u);
}

TEST(LoggerTest, TracksErrorCountAndLastError) {
  Logger logger;
  auto sink = std::make_unique<VectorSink>();
  logger.AddSink(std::move(sink));
  EXPECT_EQ(logger.error_count(), 0u);
  EXPECT_EQ(logger.last_error(), "");
  logger.Log(LogLevel::kError, "boom", {{"file", uint64_t{3}}});
  logger.Log(LogLevel::kInfo, "fine", {});
  EXPECT_EQ(logger.error_count(), 1u);
  EXPECT_NE(logger.last_error().find("event=boom"), std::string::npos);
  EXPECT_NE(logger.last_error().find("file=3"), std::string::npos);
}

TEST(LoggerTest, TruncatesOverlongLinesVisibly) {
  Logger logger;
  auto sink = std::make_unique<VectorSink>();
  VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  std::string big(5000, 'x');
  logger.Log(LogLevel::kInfo, "big", {{"payload", big}});
  ASSERT_EQ(lines->lines().size(), 1u);
  EXPECT_LE(lines->lines()[0].size(), 1024u);
  EXPECT_EQ(lines->lines()[0].substr(lines->lines()[0].size() - 3), "...");
}

TEST(LoggerTest, DisabledLevelDoesNotAllocate) {
  Logger logger(LogLevel::kInfo);
  NullSink sink;
  logger.AddBorrowedSink(&sink);
  std::string value = "some value";
  logger.Log(LogLevel::kDebug, "warm", {{"k", value}});
  uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    logger.Log(LogLevel::kDebug, "dropped",
               {{"k", value}, {"i", i}, {"b", true}});
  }
  uint64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled log level allocated";
  EXPECT_EQ(sink.writes, 0u);
}

TEST(LoggerTest, EnabledFormattingDoesNotAllocate) {
  Logger logger(LogLevel::kInfo);
  NullSink sink;
  logger.AddBorrowedSink(&sink);
  std::string value = "bare";
  logger.Log(LogLevel::kInfo, "warm", {{"k", value}});
  uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    logger.Log(LogLevel::kInfo, "event",
               {{"k", value},
                {"quoted", "needs quoting"},
                {"i", i},
                {"u", uint64_t{42}},
                {"d", 2.5},
                {"b", false}});
  }
  uint64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "log formatting allocated";
  EXPECT_EQ(sink.writes, 1001u);  // Warm-up write + 1000 in the loop.
}

TEST(LoggerTest, ConcurrentLoggingIsSerialized) {
  Logger logger(LogLevel::kInfo);
  auto sink = std::make_unique<VectorSink>();
  VectorSink* lines = sink.get();
  logger.AddSink(std::move(sink));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kPerThread; ++i) {
        logger.Log(LogLevel::kInfo, "tick", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(lines->lines().size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (const std::string& line : lines->lines()) {
    EXPECT_NE(line.find("event=tick"), std::string::npos);
  }
}

TEST(RotatingFileSinkTest, WritesAndRotatesBySize) {
  std::string dir = ::testing::TempDir() + "/rotating_sink";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string path = dir + "/app.log";
  RotatingFileSink::Options options;
  options.max_file_bytes = 100;
  options.max_files = 2;
  auto sink = RotatingFileSink::Open(Env::Default(), path, options);
  ASSERT_TRUE(sink.ok()) << sink.status();
  std::string line(60, 'a');
  for (int i = 0; i < 6; ++i) {
    (*sink)->Write(LogLevel::kInfo, line);
  }
  ASSERT_TRUE((*sink)->status().ok()) << (*sink)->status();
  ASSERT_TRUE((*sink)->Flush().ok());
  EXPECT_TRUE(Env::Default()->FileExists(path));
  EXPECT_TRUE(Env::Default()->FileExists(path + ".1"));
  // max_files = 2: nothing beyond .2 may exist.
  EXPECT_FALSE(Env::Default()->FileExists(path + ".3"));
  auto contents = Env::Default()->ReadFileToString(path + ".1");
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find(line), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(RotatingFileSinkTest, OpenRotatesExistingLiveFile) {
  std::string dir = ::testing::TempDir() + "/rotating_sink_reopen";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string path = dir + "/app.log";
  {
    auto sink = RotatingFileSink::Open(Env::Default(), path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    (*sink)->Write(LogLevel::kInfo, "first process");
  }
  {
    auto sink = RotatingFileSink::Open(Env::Default(), path);
    ASSERT_TRUE(sink.ok()) << sink.status();
    (*sink)->Write(LogLevel::kInfo, "second process");
  }
  auto rotated = Env::Default()->ReadFileToString(path + ".1");
  ASSERT_TRUE(rotated.ok());
  EXPECT_NE(rotated->find("first process"), std::string::npos);
  auto live = Env::Default()->ReadFileToString(path);
  ASSERT_TRUE(live.ok());
  EXPECT_NE(live->find("second process"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// The engine's put hot path must not gain a single allocation from
// having a live INFO logger attached (events fire on open, segment
// rolls and close only). Same workload, logged vs unlogged, equal counts.
TEST(EngineLoggingTest, PutHotPathIsLogFree) {
  std::string base = ::testing::TempDir() + "/engine_log_free";
  std::filesystem::remove_all(base + "_logged");
  std::filesystem::remove_all(base + "_plain");

  Logger logger(LogLevel::kInfo);
  NullSink sink;
  logger.AddBorrowedSink(&sink);

  storage::EngineOptions logged_options;
  logged_options.logger = &logger;
  auto logged = storage::StorageEngine::Open(base + "_logged",
                                             logged_options);
  ASSERT_TRUE(logged.ok()) << logged.status();
  auto plain = storage::StorageEngine::Open(base + "_plain", {});
  ASSERT_TRUE(plain.ok()) << plain.status();

  auto run = [](storage::StorageEngine* engine) {
    for (int i = 0; i < 200; ++i) {
      std::string key = "key" + std::to_string(i % 50);
      ASSERT_TRUE(engine->Put(key, "value-" + std::to_string(i)).ok());
    }
  };
  // Warm-up round (lazy init, arena growth) then a measured round on
  // identical engine states.
  run(logged->get());
  run(plain->get());
  uint64_t before_logged = g_heap_allocations.load(std::memory_order_relaxed);
  run(logged->get());
  uint64_t logged_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - before_logged;
  uint64_t before_plain = g_heap_allocations.load(std::memory_order_relaxed);
  run(plain->get());
  uint64_t plain_allocs =
      g_heap_allocations.load(std::memory_order_relaxed) - before_plain;
  EXPECT_EQ(logged_allocs, plain_allocs)
      << "attaching a logger changed the put allocation count";

  ASSERT_TRUE((*logged)->Close().ok());
  ASSERT_TRUE((*plain)->Close().ok());
  std::filesystem::remove_all(base + "_logged");
  std::filesystem::remove_all(base + "_plain");
}

}  // namespace
}  // namespace authidx::obs
