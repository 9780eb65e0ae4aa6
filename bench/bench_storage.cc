// B7: storage engine — WAL append (buffered vs synced), engine fill,
// full scans and compaction (DESIGN.md §3).

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"
#include "authidx/storage/wal.h"

namespace authidx::storage {
namespace {

std::string FreshDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/authidx_bench_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void BM_WalAppendBuffered(benchmark::State& state) {
  std::string dir = FreshDir("walbuf");
  std::string record(static_cast<size_t>(state.range(0)), 'r');
  auto writer = WalWriter::Open(Env::Default(), dir + "/bench.wal");
  for (auto _ : state) {
    benchmark::DoNotOptimize((*writer)->Append(record).ok());
  }
  AUTHIDX_CHECK_OK((*writer)->Close());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendBuffered)->Arg(128)->Arg(1024)->Arg(16384);

void BM_WalAppendSynced(benchmark::State& state) {
  std::string dir = FreshDir("walsync");
  std::string record(static_cast<size_t>(state.range(0)), 'r');
  auto writer = WalWriter::Open(Env::Default(), dir + "/bench.wal");
  for (auto _ : state) {
    AUTHIDX_CHECK_OK((*writer)->Append(record));
    benchmark::DoNotOptimize((*writer)->Sync().ok());
  }
  AUTHIDX_CHECK_OK((*writer)->Close());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendSynced)->Arg(128)->Arg(1024);

void BM_EngineFill(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("fill");
    EngineOptions options;
    options.memtable_bytes = 1 << 20;
    auto engine = StorageEngine::Open(dir, options);
    state.ResumeTiming();
    for (size_t i = 0; i < n; ++i) {
      AUTHIDX_CHECK_OK((*engine)->Put(StringPrintf("key%010zu", i),
                                      "value-payload-0123456789"));
    }
    AUTHIDX_CHECK_OK((*engine)->Flush());
    state.PauseTiming();
    AUTHIDX_CHECK_OK((*engine)->Close());
    engine->reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EngineFill)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// Shared read-only engine for the scan benchmark.
struct ReadFixture {
  std::string dir;
  std::unique_ptr<StorageEngine> engine;
  size_t n = 200000;

  ReadFixture() {
    dir = FreshDir("read");
    EngineOptions options;
    options.memtable_bytes = 1 << 20;
    auto opened = StorageEngine::Open(dir, options);
    engine = std::move(opened).value();
    for (size_t i = 0; i < n; ++i) {
      AUTHIDX_CHECK_OK(engine->Put(StringPrintf("key%010zu", i),
                                   "value-payload-0123456789"));
    }
    AUTHIDX_CHECK_OK(engine->Compact());
  }
};

ReadFixture& Reads() {
  static ReadFixture* fixture = new ReadFixture();
  return *fixture;
}

void BM_EngineFullScan(benchmark::State& state) {
  ReadFixture& f = Reads();
  for (auto _ : state) {
    auto it = f.engine->NewIterator();
    size_t count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.n));
}
BENCHMARK(BM_EngineFullScan)->Unit(benchmark::kMillisecond);

void BM_CompactionThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("compact");
    EngineOptions options;
    options.memtable_bytes = 256 * 1024;
    options.l0_compaction_trigger = 1000;  // Manual compaction only.
    auto engine = StorageEngine::Open(dir, options);
    for (size_t i = 0; i < 50000; ++i) {
      AUTHIDX_CHECK_OK((*engine)->Put(StringPrintf("key%010zu", i * 3 % 60000), "v"));
    }
    AUTHIDX_CHECK_OK((*engine)->Flush());
    state.ResumeTiming();
    AUTHIDX_CHECK_OK((*engine)->Compact());
    state.PauseTiming();
    AUTHIDX_CHECK_OK((*engine)->Close());
    engine->reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 50000);
}
BENCHMARK(BM_CompactionThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace authidx::storage
