// B6: fuzzy author matching — full DP vs banded Levenshtein vs
// phonetic-bucket prefilter over a 100k-surname dictionary (DESIGN.md §3).

#include <benchmark/benchmark.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/text/distance.h"
#include "authidx/text/normalize.h"
#include "authidx/text/phonetic.h"
#include "authidx/workload/namegen.h"

namespace authidx {
namespace {

using text::BoundedLevenshtein;
using text::JaroWinkler;
using text::Levenshtein;
using text::WithinEditDistance;

constexpr size_t kDictSize = 100000;
constexpr size_t kMaxEdits = 2;

struct Dict {
  std::vector<std::string> surnames;
  std::unordered_map<std::string, std::vector<size_t>> by_metaphone;
};

const Dict& Dictionary() {
  static const Dict* dict = [] {
    workload::NameGenerator gen(31);
    Random rng(32);
    auto* d = new Dict();
    d->surnames.reserve(kDictSize);
    for (size_t i = 0; i < kDictSize; ++i) {
      // Perturb pool surnames so the dictionary has realistic variety.
      std::string s = text::NormalizeForIndex(gen.NextSurname());
      if (rng.OneIn(3)) {
        s += static_cast<char>('a' + rng.Uniform(26));
      }
      if (rng.OneIn(7) && s.size() > 3) {
        s[1 + rng.Uniform(s.size() - 2)] =
            static_cast<char>('a' + rng.Uniform(26));
      }
      d->by_metaphone[text::Metaphone(s)].push_back(d->surnames.size());
      d->surnames.push_back(std::move(s));
    }
    return d;
  }();
  return *dict;
}

std::string Probe(Random* rng) {
  const Dict& dict = Dictionary();
  std::string s = dict.surnames[rng->Uniform(dict.surnames.size())];
  // One random edit so the probe is close-but-not-exact.
  if (!s.empty()) {
    s[rng->Uniform(s.size())] = static_cast<char>('a' + rng->Uniform(26));
  }
  return s;
}

void BM_FullLevenshteinScan(benchmark::State& state) {
  const Dict& dict = Dictionary();
  Random rng(77);
  size_t matches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string probe = Probe(&rng);
    state.ResumeTiming();
    for (const std::string& surname : dict.surnames) {
      if (Levenshtein(surname, probe) <= kMaxEdits) {
        ++matches;
      }
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDictSize));
}
BENCHMARK(BM_FullLevenshteinScan)->Unit(benchmark::kMillisecond);

void BM_BandedLevenshteinScan(benchmark::State& state) {
  const Dict& dict = Dictionary();
  Random rng(77);
  size_t matches = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string probe = Probe(&rng);
    state.ResumeTiming();
    for (const std::string& surname : dict.surnames) {
      if (WithinEditDistance(surname, probe, kMaxEdits)) {
        ++matches;
      }
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kDictSize));
}
BENCHMARK(BM_BandedLevenshteinScan)->Unit(benchmark::kMillisecond);

void BM_PhoneticPrefilteredScan(benchmark::State& state) {
  const Dict& dict = Dictionary();
  Random rng(77);
  size_t matches = 0;
  size_t candidates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string probe = Probe(&rng);
    state.ResumeTiming();
    auto bucket = dict.by_metaphone.find(text::Metaphone(probe));
    if (bucket != dict.by_metaphone.end()) {
      candidates += bucket->second.size();
      for (size_t idx : bucket->second) {
        if (WithinEditDistance(dict.surnames[idx], probe, kMaxEdits)) {
          ++matches;
        }
      }
    }
  }
  benchmark::DoNotOptimize(matches);
  state.counters["candidates_frac"] =
      static_cast<double>(candidates) /
      (static_cast<double>(state.iterations()) * kDictSize);
}
BENCHMARK(BM_PhoneticPrefilteredScan)->Unit(benchmark::kMicrosecond);

void BM_PairwiseDistance(benchmark::State& state) {
  Random rng(9);
  const Dict& dict = Dictionary();
  for (auto _ : state) {
    const std::string& a = dict.surnames[rng.Uniform(kDictSize)];
    const std::string& b = dict.surnames[rng.Uniform(kDictSize)];
    switch (state.range(0)) {
      case 0:
        benchmark::DoNotOptimize(Levenshtein(a, b));
        break;
      case 1:
        benchmark::DoNotOptimize(BoundedLevenshtein(a, b, kMaxEdits));
        break;
      case 3:
        benchmark::DoNotOptimize(JaroWinkler(a, b));
        break;
    }
  }
}
BENCHMARK(BM_PairwiseDistance)
    ->Arg(0)->Arg(1)->Arg(3);

}  // namespace
}  // namespace authidx
