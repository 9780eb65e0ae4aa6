#ifndef PERFBENCH_LIB_H_
#define PERFBENCH_LIB_H_

// Pure, unit-tested pieces of the serving benchmark: the seeded query
// and ADD stream generators, the naive reference evaluator for the
// literal query shapes, percentile selection, span self-time arithmetic
// and the /metrics text parser. Nothing here touches sockets or
// processes (see proc.h for those).

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/random.h"
#include "authidx/model/record.h"
#include "authidx/obs/trace.h"

namespace perfbench {

using authidx::Entry;
using authidx::EntryId;

/// The eight query shapes of the read_mix stream.
enum class Shape : int {
  kAuthorExact,          // author:<surname>
  kAuthorPrefix,         // author:<2 letters>* limit:10
  kAuthorFuzzy,          // author~<1-edit misspelling>
  kTitleTopK,            // w1 w2 order:relevance limit:10
  kTitleFiltered,        // w1 w2 year:a..b limit:10
  kTitleRankedFiltered,  // w1 w2 year:a..b order:relevance limit:10
  kAuthorPrefixTitle,    // author:<2 letters>* w limit:10
  kTitleNegation,        // w1 -w2 limit:10
};
inline constexpr int kShapeCount = 8;

/// Stable lower_snake_case name ("author_exact").
std::string_view ShapeName(Shape shape);

/// True for the shapes whose answer the naive evaluator computes from
/// the definition alone (author_exact, title_filtered, title_negation).
bool IsLiteralShape(Shape shape);

/// Relative draw weight per shape, indexed by Shape.
using ShapeWeights = std::array<double, kShapeCount>;

/// The read_mix weights: chosen so that no shape takes more than about
/// a third of server execute time on the benchmark corpus.
ShapeWeights ReadMixWeights();

/// One generated query: its text plus the parameters it was built from,
/// so the checker can evaluate it without parsing the text.
struct QuerySpec {
  Shape shape = Shape::kAuthorExact;
  std::string text;
  /// Surname, 2-letter prefix or misspelling, by shape.
  std::string author;
  /// Conjunctive title words, raw (the server tokenizes them).
  std::vector<std::string> words;
  /// Excluded title word (title_negation).
  std::string negated;
  /// Inclusive year filter; year_lo == 0 means none.
  uint32_t year_lo = 0;
  uint32_t year_hi = 0;
  size_t limit = 100;
};

/// Lower-cased alphabetic words of `title` that are not stopwords and
/// have at least three letters, in title order.
std::vector<std::string> ContentWords(std::string_view title);

/// Seeded generator of query texts over the templates above. Every
/// parameter is drawn from `corpus` (surnames, title words, years), so
/// queries match the catalog's data. Shapes come from a shuffled deck
/// holding each shape in proportion to its weight (per thousand), so
/// every deck's worth of queries has the same mix; only the order and
/// the parameters vary. Same corpus and seed, same stream.
class QueryGenerator {
 public:
  /// `corpus` must outlive the generator.
  QueryGenerator(const std::vector<Entry>& corpus, uint64_t seed);

  /// Next query, shape dealt from the deck.
  QuerySpec Next();

  /// Queries per deck: a stream prefix of this length has exactly the
  /// weighted mix.
  size_t deck_size() const { return counts_total_; }

  /// Next query of the given shape.
  QuerySpec Make(Shape shape);

 private:
  const Entry& RandomEntry();
  std::string RandomPrefix();

  const std::vector<Entry>& corpus_;
  std::array<size_t, kShapeCount> counts_{};
  size_t counts_total_ = 0;
  std::vector<Shape> deck_;  // Remaining shapes of the current deck.
  uint32_t min_year_ = 0;
  uint32_t max_year_ = 0;
  authidx::Random rng_;
};

/// `count` distinct query texts (first occurrences of a QueryGenerator
/// stream), the working set of repeat_cached. Shapes the prefix misses
/// (rare ones, at count ≪ 1000) replace its last texts, so every shape
/// is in the set.
std::vector<QuerySpec> DistinctQueries(const std::vector<Entry>& corpus,
                                       uint64_t seed, size_t count);

/// Seeded endless stream of indexes into `count` items: each pass
/// visits every index once, in a freshly shuffled order. Every pass
/// weights the items alike, so the mix a run sends does not depend on
/// which items the seed happened to rank first. Same seed, same stream.
class ShuffledCycle {
 public:
  /// `count` must be at least 1.
  ShuffledCycle(size_t count, uint64_t seed);

  size_t Next();

 private:
  std::vector<size_t> order_;
  size_t next_ = 0;
  authidx::Random rng_;
};

/// The ADD stream: batches of TSV lines taken from a pool of entries
/// that the prepared catalog does not hold, starting at a seed-chosen
/// offset and wrapping around.
class AddStream {
 public:
  /// `pool` must outlive the stream and be non-empty.
  AddStream(const std::vector<Entry>& pool, uint64_t seed,
            size_t batch_size);

  /// Pool index of line `i` of batch `k`.
  size_t PoolIndex(size_t k, size_t i) const;

  /// TSV lines of batch `k`.
  std::vector<std::string> Batch(size_t k) const;

 private:
  const std::vector<Entry>& pool_;
  size_t offset_;
  size_t batch_size_;
};

/// 64-bit FNV-1a, for stream fingerprints.
uint64_t Fnv1a(std::string_view data, uint64_t hash = 0xcbf29ce484222325ULL);

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(q * n), q in [0, 1]. Returns 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (nearest-rank); 0 when empty.
double Median(std::vector<double> values);

/// Rate and typical value of events over a timed window.
struct WindowStats {
  /// Median over sub-windows of events completed per second.
  double rate_per_s = 0;
  /// Median over sub-windows of the median event value.
  double median = 0;
  /// The per-sub-window rates and medians behind the two figures.
  std::vector<double> part_rates;
  std::vector<double> part_medians;
};

/// Splits [begin_ns, end_ns) into `parts` equal sub-windows, takes per
/// sub-window the completion rate and the median of `values` of the
/// events completing in it (`done_ns[i]` is event i's completion time;
/// events outside the window are ignored), and returns the medians of
/// both across sub-windows. A slow spell shorter than half the window
/// moves neither.
WindowStats SubWindowMedians(const std::vector<uint64_t>& done_ns,
                             const std::vector<double>& values,
                             uint64_t begin_ns, uint64_t end_ns, int parts);

/// The p99 of a sample, robust to a slow spell: `values` in completion
/// order is cut into `parts` runs of equal length and the median of
/// their p99s returned, when each run holds at least 1000 values (so
/// ten or more lie beyond its p99); otherwise the p99 of all values.
double TailP99(const std::vector<double>& values, int parts);

/// Per span, its duration minus the part of its interval covered by
/// its direct children (a span's children are the following spans one
/// level deeper, up to the next span at its own depth or shallower).
std::vector<uint64_t> SelfTimes(const std::vector<authidx::obs::Trace::Span>& spans);

/// Per span, the '>'-joined names from the root down to it
/// ("rpc/QUERY>execute>query>parse").
std::vector<std::string> SpanPaths(
    const std::vector<authidx::obs::Trace::Span>& spans);

/// Parses the Prometheus text exposition format into series name
/// (labels included, as printed) -> value. Comment lines are skipped.
std::map<std::string, double> ParsePrometheusText(std::string_view text);

/// The expected answer to a literal-shape query.
struct NaiveAnswer {
  uint64_t total_matches = 0;
  std::vector<EntryId> ids;  // The returned page, in order.
};

/// Reference evaluator for the literal shapes: a scan over every entry
/// applying each predicate as defined, using only the text layer's
/// public functions (folding, tokenizing, sort keys). Entry ids are
/// positions in `entries`.
class NaiveCatalog {
 public:
  explicit NaiveCatalog(const std::vector<Entry>& entries);

  /// The answer to `spec`; `spec` must be a literal shape.
  NaiveAnswer Evaluate(const QuerySpec& spec) const;

 private:
  struct Row {
    std::string folded_surname;
    std::string folded_group;
    std::string sort_key;
    std::vector<std::string> tokens;  // Sorted, distinct.
    uint32_t volume = 0;
    uint32_t page = 0;
    uint32_t year = 0;
  };
  std::vector<Row> rows_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LIB_H_
