// B7: storage engine — WAL append (buffered vs synced), engine fill,
// and the replay pass that every open runs (DESIGN.md §3).

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
    auto engine = StorageEngine::Open(dir, EngineOptions{});
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

// Shared read-only log for the replay benchmark: 200 000 puts, half as
// one bulk batch (a record far larger than the read buffer, like a bulk
// load) and half as single puts, in two segments.
struct ReplayFixture {
  std::string dir;
  std::unique_ptr<StorageEngine> engine;
  size_t n = 200000;

  ReplayFixture() {
    dir = FreshDir("replay");
    engine = std::move(StorageEngine::Open(dir, EngineOptions{})).value();
    WriteBatch batch;
    for (size_t i = 0; i < n / 2; ++i) {
      batch.Put(StringPrintf("key%010zu", i), "value-payload-0123456789");
    }
    AUTHIDX_CHECK_OK(engine->Apply(batch));
    AUTHIDX_CHECK_OK(engine->Flush());
    for (size_t i = n / 2; i < n; ++i) {
      AUTHIDX_CHECK_OK(engine->Put(StringPrintf("key%010zu", i),
                                   "value-payload-0123456789"));
    }
  }
};

// One Replay pass (CRC check + decode of every put), the storage part
// of every restart.
void BM_EngineReplay(benchmark::State& state) {
  static ReplayFixture* f = new ReplayFixture();
  for (auto _ : state) {
    size_t count = 0;
    Result<WalScan> replayed =
        f->engine->Replay([&count](std::string_view, std::string_view) {
          ++count;
          return Status::OK();
        });
    AUTHIDX_CHECK_OK(replayed.status());
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f->n));
}
BENCHMARK(BM_EngineReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace authidx::storage
