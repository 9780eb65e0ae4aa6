// B12: storage concurrency — synced-write group commit at 1/2/4/8
// threads.
//
// Write scaling under sync_writes comes from the writer queue's group
// commit (one leader fsync covers every queued writer). NOTE: thread-count
// scaling is only observable with as many physical cores; on a
// single-core host the per-thread rates collapse onto the 1-thread curve
// (see docs/BENCHMARKS.md for the recorded numbers and hardware).

#include <benchmark/benchmark.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "authidx/common/strings.h"
#include "authidx/storage/engine.h"

namespace authidx::storage {
namespace {

std::string FreshDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/authidx_bench_conc_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Synced writes from N threads: with sync_writes every commit is an
// fsync, and the group-commit leader amortizes it over all writers
// queued behind it — the per-write cost should FALL as threads rise.
void BM_GroupCommitSyncedWrites(benchmark::State& state) {
  static std::string dir = FreshDir("sync");
  static StorageEngine* engine = [] {
    EngineOptions options;
    options.sync_writes = true;
    options.memtable_bytes = 8 << 20;
    auto opened = StorageEngine::Open(dir, options);
    return std::move(opened).value().release();
  }();
  static std::atomic<uint64_t> next_key{0};
  for (auto _ : state) {
    uint64_t key = next_key.fetch_add(1, std::memory_order_relaxed);
    AUTHIDX_CHECK_OK(
        engine->Put(StringPrintf("key%012zu", key), "value-payload"));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    obs::MetricsSnapshot snapshot = engine->metrics().Snapshot();
    const obs::MetricValue* batches =
        snapshot.Find("authidx_group_commit_batches_total");
    const obs::MetricValue* writes =
        snapshot.Find("authidx_group_commit_writes_total");
    if (batches != nullptr && writes != nullptr && batches->counter > 0) {
      state.counters["mean_group_size"] =
          static_cast<double>(writes->counter) /
          static_cast<double>(batches->counter);
    }
  }
}
BENCHMARK(BM_GroupCommitSyncedWrites)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace authidx::storage
