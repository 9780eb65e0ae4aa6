// Proceedings-scale round trip: generates a synthetic corpus the size of
// a large conference proceedings (the VLDB 2000 substitution; DESIGN.md
// §4), persists it through the append-only log, reopens the
// directory, and runs a query batch over the recovered catalog.
//
//   ./proceedings_index [--entries N] [--dir PATH]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "authidx/core/author_index.h"
#include "authidx/core/stats.h"
#include "authidx/query/planner.h"
#include "authidx/workload/corpus.h"

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace authidx;

  size_t entries = 20000;
  std::string dir =
      std::filesystem::temp_directory_path().string() + "/proceedings_index";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--entries") == 0) {
      entries = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--dir") == 0) {
      dir = argv[i + 1];
    }
  }
  std::filesystem::remove_all(dir);

  workload::CorpusOptions copt;
  copt.entries = entries;
  copt.authors = entries / 8 + 2;
  std::vector<Entry> corpus = workload::GenerateCorpus(copt);
  std::printf("generated %zu entries\n", corpus.size());

  // Phase 1: ingest through the storage engine.
  auto start = std::chrono::steady_clock::now();
  {
    Result<std::unique_ptr<core::AuthorIndex>> catalog =
        core::AuthorIndex::OpenPersistent(dir);
    if (!catalog.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   catalog.status().ToString().c_str());
      return 1;
    }
    Status ingest = (*catalog)->AddAll(corpus);
    if (!ingest.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", ingest.ToString().c_str());
      return 1;
    }
    Status flush = (*catalog)->Flush();
    if (!flush.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", flush.ToString().c_str());
      return 1;
    }
    auto stats = (*catalog)->StorageStats();
    std::printf(
        "ingested+persisted in %.2fs (%.0f entries/s); log segments=%llu\n",
        Seconds(start), static_cast<double>(entries) / Seconds(start),
        static_cast<unsigned long long>(stats.segments));
  }

  // Phase 2: reopen (recovery) and query.
  start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<core::AuthorIndex>> catalog =
      core::AuthorIndex::OpenPersistent(dir);
  if (!catalog.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }
  std::printf("reopened %zu entries in %.2fs\n\n",
              (*catalog)->entry_count(), Seconds(start));

  const char* queries[] = {
      "author:miller limit:5",
      "author:mc* limit:5",
      "author~milner limit:5",
      "coal mining limit:5",
      "title:reform year:1975..1985 limit:5",
      "mining safety order:relevance limit:5",
      "student:yes vol:82 limit:5",
  };
  for (const char* q : queries) {
    auto qstart = std::chrono::steady_clock::now();
    Result<query::QueryResult> result = (*catalog)->Search(q);
    if (!result.ok()) {
      std::fprintf(stderr, "query '%s' failed: %s\n", q,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-45s %6zu matches  %8.1fus  [%s]\n", q,
                result->total_matches, Seconds(qstart) * 1e6,
                std::string(query::PlanKindToString(result->plan)).c_str());
    for (const query::Hit& hit : result->hits) {
      const Entry* entry = (*catalog)->GetEntry(hit.id);
      std::printf("    %-30s %s\n", entry->author.ToIndexForm().c_str(),
                  entry->citation.ToString().c_str());
    }
  }

  core::CatalogStats stats = core::ComputeStats(**catalog, 5);
  std::printf("\n%s", stats.ToString().c_str());
  std::filesystem::remove_all(dir);
  return 0;
}
