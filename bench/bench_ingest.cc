// B8: ingest throughput — into AuthorIndex in memory vs persistent, and
// into the storage engine one put vs one batch per write (DESIGN.md §3).

#include <benchmark/benchmark.h>

#include <filesystem>

#include "authidx/common/strings.h"
#include "authidx/core/author_index.h"
#include "authidx/storage/engine.h"
#include "authidx/workload/corpus.h"

namespace authidx::core {
namespace {

const std::vector<Entry>& Corpus() {
  static const std::vector<Entry>* corpus = [] {
    workload::CorpusOptions options;
    options.entries = 50000;
    options.authors = 5000;
    return new std::vector<Entry>(workload::GenerateCorpus(options));
  }();
  return *corpus;
}

void BM_IngestInMemory(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const auto& corpus = Corpus();
  for (auto _ : state) {
    auto catalog = AuthorIndex::Create();
    for (size_t i = 0; i < n; ++i) {
      AUTHIDX_CHECK_OK(catalog->Add(corpus[i % corpus.size()]));
    }
    benchmark::DoNotOptimize(catalog->entry_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_IngestInMemory)
    ->Arg(1000)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_IngestPersistent(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  const auto& corpus = Corpus();
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = std::filesystem::temp_directory_path().string() +
                      "/authidx_bench_ingest";
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    {
      auto catalog = AuthorIndex::OpenPersistent(dir);
      for (size_t i = 0; i < n; ++i) {
        AUTHIDX_CHECK_OK((*catalog)->Add(corpus[i % corpus.size()]));
      }
      AUTHIDX_CHECK_OK((*catalog)->Flush());
    }
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_IngestPersistent)
    ->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_ReopenPersistent(benchmark::State& state) {
  // Restart cost against corpus size: reopen a persisted catalog (one
  // replay of the log) and rebuild the indexes. Entries past the 50 000
  // distinct corpus entries repeat it.
  size_t n = static_cast<size_t>(state.range(0));
  const auto& corpus = Corpus();
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/authidx_bench_reopen";
  std::filesystem::remove_all(dir);
  {
    auto catalog = AuthorIndex::OpenPersistent(dir);
    for (size_t i = 0; i < n; ++i) {
      AUTHIDX_CHECK_OK((*catalog)->Add(corpus[i % corpus.size()]));
    }
    AUTHIDX_CHECK_OK((*catalog)->Flush());
  }
  for (auto _ : state) {
    auto catalog = AuthorIndex::OpenPersistent(dir);
    benchmark::DoNotOptimize((*catalog)->entry_count());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_ReopenPersistent)
    ->Arg(10000)->Arg(50000)->Arg(200000)->Unit(benchmark::kMillisecond);

// Batch vs single-op ingest into the storage engine (WAL framing and
// sync amortization). range(0): puts per write; 1 = Put, else Apply.
void BM_AblateBatchIngest(benchmark::State& state) {
  size_t batch_size = static_cast<size_t>(state.range(0));
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/authidx_bench_batch";
  std::filesystem::remove_all(dir);
  storage::EngineOptions options;
  options.sync_writes = true;  // Where batching matters most.
  auto engine = storage::StorageEngine::Open(dir, options);
  size_t i = 0;
  for (auto _ : state) {
    if (batch_size <= 1) {
      AUTHIDX_CHECK_OK((*engine)->Put(StringPrintf("key%010zu", i++), "value"));
    } else {
      storage::WriteBatch batch;
      for (size_t j = 0; j < batch_size; ++j) {
        batch.Put(StringPrintf("key%010zu", i++), "value");
      }
      AUTHIDX_CHECK_OK((*engine)->Apply(batch));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch_size ? batch_size : 1));
  AUTHIDX_CHECK_OK((*engine)->Close());
  engine->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_AblateBatchIngest)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace authidx::core
