// Unit tests of the benchmark's own arithmetic and generators:
//   python3 perfbench/run.py --self-test

#include "lib.h"

#include <gtest/gtest.h>

#include <cmath>

#include "authidx/workload/corpus.h"

namespace perfbench {
namespace {

using authidx::obs::Trace;

const std::vector<Entry>& SmallCorpus() {
  static const std::vector<Entry>* corpus = [] {
    authidx::workload::CorpusOptions options;
    options.entries = 3000;
    options.authors = 400;
    return new std::vector<Entry>(authidx::workload::GenerateCorpus(options));
  }();
  return *corpus;
}

TEST(QueryGeneratorTest, SameSeedGivesSameStream) {
  QueryGenerator a(SmallCorpus(), 42);
  QueryGenerator b(SmallCorpus(), 42);
  QueryGenerator c(SmallCorpus(), 43);
  bool differs = false;
  for (int i = 0; i < 2000; ++i) {
    QuerySpec qa = a.Next();
    QuerySpec qb = b.Next();
    QuerySpec qc = c.Next();
    ASSERT_EQ(qa.text, qb.text);
    ASSERT_EQ(qa.shape, qb.shape);
    differs = differs || qa.text != qc.text;
  }
  EXPECT_TRUE(differs);
}

TEST(QueryGeneratorTest, EachDeckHasTheWeightedMix) {
  QueryGenerator generator(SmallCorpus(), 3);
  ShapeWeights weights = ReadMixWeights();
  double sum = 0;
  for (double w : weights) {
    sum += w;
  }
  for (int deck = 0; deck < 2; ++deck) {
    std::array<size_t, kShapeCount> seen{};
    for (size_t i = 0; i < generator.deck_size(); ++i) {
      ++seen[static_cast<size_t>(generator.Next().shape)];
    }
    for (size_t s = 0; s < seen.size(); ++s) {
      EXPECT_EQ(seen[s], static_cast<size_t>(std::lround(1000 * weights[s] / sum)));
      EXPECT_GT(seen[s], 0u);
    }
  }
}

TEST(QueryGeneratorTest, EveryShapeAppearsAndTextsMatchTemplates) {
  QueryGenerator generator(SmallCorpus(), 7);
  for (int s = 0; s < kShapeCount; ++s) {
    QuerySpec spec = generator.Make(static_cast<Shape>(s));
    EXPECT_FALSE(spec.text.empty());
    switch (spec.shape) {
      case Shape::kAuthorPrefix:
        EXPECT_EQ(spec.text, "author:" + spec.author + "* limit:10");
        EXPECT_EQ(spec.author.size(), 2u);
        break;
      case Shape::kAuthorFuzzy:
        EXPECT_EQ(spec.text.rfind("author~", 0), 0u);
        break;
      case Shape::kTitleFiltered:
        EXPECT_NE(spec.text.find(" year:"), std::string::npos);
        EXPECT_LE(spec.year_lo, spec.year_hi);
        break;
      case Shape::kTitleNegation:
        EXPECT_NE(spec.text.find(" -" + spec.negated), std::string::npos);
        break;
      default:
        break;
    }
  }
}

TEST(QueryGeneratorTest, DistinctQueriesAreDistinctAndSeeded) {
  std::vector<QuerySpec> a = DistinctQueries(SmallCorpus(), 5, 64);
  std::vector<QuerySpec> b = DistinctQueries(SmallCorpus(), 5, 64);
  ASSERT_EQ(a.size(), 64u);
  std::set<std::string> texts;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    texts.insert(a[i].text);
  }
  EXPECT_EQ(texts.size(), 64u);
  std::set<Shape> shapes;
  for (const QuerySpec& spec : a) {
    shapes.insert(spec.shape);
  }
  EXPECT_EQ(shapes.size(), static_cast<size_t>(kShapeCount));
}

TEST(ShuffledCycleTest, EachPassVisitsEveryIndexOnce) {
  ShuffledCycle a(50, 11);
  ShuffledCycle b(50, 11);
  ShuffledCycle c(50, 12);
  bool differs = false;
  for (int pass = 0; pass < 3; ++pass) {
    std::set<size_t> seen;
    for (int i = 0; i < 50; ++i) {
      size_t index = a.Next();
      ASSERT_EQ(index, b.Next());
      differs = differs || index != c.Next();
      EXPECT_LT(index, 50u);
      seen.insert(index);
    }
    EXPECT_EQ(seen.size(), 50u);
  }
  EXPECT_TRUE(differs);
  ShuffledCycle one(1, 3);
  EXPECT_EQ(one.Next(), 0u);
  EXPECT_EQ(one.Next(), 0u);
}

TEST(AddStreamTest, SameSeedGivesSameBatches) {
  AddStream a(SmallCorpus(), 9, 64);
  AddStream b(SmallCorpus(), 9, 64);
  AddStream c(SmallCorpus(), 10, 64);
  EXPECT_EQ(a.Batch(0), b.Batch(0));
  EXPECT_EQ(a.Batch(100), b.Batch(100));  // Wraps around the pool.
  EXPECT_EQ(a.Batch(0).size(), 64u);
  EXPECT_NE(a.Batch(0), c.Batch(0));
  EXPECT_EQ(a.PoolIndex(1, 0), (a.PoolIndex(0, 0) + 64) % SmallCorpus().size());
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.25), 3);
  EXPECT_EQ(Median({5, 1, 3}), 3);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
}

TEST(SubWindowTest, MediansAcrossEqualSubWindows) {
  // Window [0, 5 s) in five 1 s parts; part 3 is a slow spell.
  std::vector<uint64_t> done;
  std::vector<double> values;
  for (int part = 0; part < 5; ++part) {
    int events = part == 3 ? 2 : 10;
    for (int e = 0; e < events; ++e) {
      done.push_back(static_cast<uint64_t>(part) * 1000000000 +
                     static_cast<uint64_t>(e) * 1000000);
      values.push_back(part == 3 ? 100.0 : 1.0 + e % 3);
    }
  }
  done.push_back(6000000000);  // After the window: ignored.
  values.push_back(1000.0);
  WindowStats stats = SubWindowMedians(done, values, 0, 5000000000, 5);
  EXPECT_DOUBLE_EQ(stats.rate_per_s, 10.0);
  EXPECT_DOUBLE_EQ(stats.median, 2.0);
  EXPECT_DOUBLE_EQ(SubWindowMedians({}, {}, 0, 1000, 5).rate_per_s, 0.0);
}

TEST(TailP99Test, MedianOfRunsOnlyWithEnoughSamples) {
  // 5 runs of 1000: one slow spell lifts a whole run's tail.
  std::vector<double> values;
  for (int run = 0; run < 5; ++run) {
    for (int i = 0; i < 1000; ++i) {
      values.push_back(run == 2 ? 100.0 : static_cast<double>(i % 100));
    }
  }
  EXPECT_EQ(TailP99(values, 5), 98.0);  // Rank 990 of 0..99 x10.
  EXPECT_EQ(TailP99(values, 1), 100.0);  // Pooled: the spell dominates.
  // Under 1000 per run: the pooled p99.
  std::vector<double> few(values.begin(), values.begin() + 4000);
  EXPECT_EQ(TailP99(few, 5), 100.0);
}

Trace::Span S(const char* name, int depth, uint64_t start, uint64_t dur) {
  Trace::Span span;
  span.name = name;
  span.depth = depth;
  span.start_ns = start;
  span.duration_ns = dur;
  return span;
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // root [0,100): a [10,30), b [40,90) -> b has child c [50,70).
  std::vector<Trace::Span> spans = {S("root", 0, 0, 100), S("a", 1, 10, 20),
                                    S("b", 1, 40, 50), S("c", 2, 50, 20)};
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self, (std::vector<uint64_t>{30, 20, 30, 20}));
  uint64_t sum = 0;
  for (uint64_t v : self) {
    sum += v;
  }
  EXPECT_EQ(sum, 100u);  // Self times partition the root.
}

TEST(SelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  // Children overlap each other and one runs past its parent's end.
  std::vector<Trace::Span> spans = {S("p", 0, 100, 50), S("x", 1, 100, 30),
                                    S("y", 1, 120, 20), S("z", 1, 140, 40)};
  std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 0u);  // [100,150) fully covered.
  EXPECT_EQ(self[1], 30u);
}

TEST(SelfTimeTest, ZeroDurationMarkersAndSiblings) {
  std::vector<Trace::Span> spans = {S("r", 0, 0, 10), S("m", 1, 5, 0),
                                    S("r2", 0, 20, 5)};
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{10, 0, 5}));
}

TEST(SpanPathTest, JoinsAncestorNames) {
  std::vector<Trace::Span> spans = {
      S("rpc/QUERY", 0, 0, 10), S("execute", 1, 0, 9), S("query", 2, 0, 8),
      S("parse", 3, 0, 1),      S("execute", 3, 1, 6), S("plan", 4, 1, 1),
      S("decode", 1, 9, 1)};
  std::vector<std::string> paths = SpanPaths(spans);
  EXPECT_EQ(paths[3], "rpc/QUERY>execute>query>parse");
  EXPECT_EQ(paths[5], "rpc/QUERY>execute>query>execute>plan");
  EXPECT_EQ(paths[6], "rpc/QUERY>decode");
}

TEST(PrometheusTest, ParsesSeriesWithLabels) {
  std::map<std::string, double> m = ParsePrometheusText(
      "# HELP a_total A\n# TYPE a_total counter\na_total 12\n"
      "r_total{op=\"QUERY\"} 7\nh_sum 1.5e3\n\n");
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m["a_total"], 12);
  EXPECT_EQ(m["r_total{op=\"QUERY\"}"], 7);
  EXPECT_EQ(m["h_sum"], 1500);
}

TEST(NaiveCatalogTest, LiteralShapesFollowTheirDefinition) {
  NaiveCatalog naive(SmallCorpus());
  QuerySpec spec;
  spec.shape = Shape::kAuthorExact;
  spec.author = "smith";
  spec.limit = 1000000;
  NaiveAnswer all = naive.Evaluate(spec);
  size_t smiths = 0;
  for (const Entry& entry : SmallCorpus()) {
    smiths += entry.author.surname == "Smith";
  }
  EXPECT_EQ(all.total_matches, smiths);
  spec.limit = 3;
  EXPECT_EQ(naive.Evaluate(spec).ids.size(), std::min<size_t>(3, smiths));

  spec.shape = Shape::kTitleNegation;
  spec.author.clear();
  spec.words = {"mining"};
  spec.negated = "surface";
  spec.limit = 1000000;
  NaiveAnswer negated = naive.Evaluate(spec);
  for (EntryId id : negated.ids) {
    EXPECT_EQ(SmallCorpus()[id].title.find("Surface"), std::string::npos);
  }
}

}  // namespace
}  // namespace perfbench
