#ifndef AUTHIDX_INDEX_RANKER_H_
#define AUTHIDX_INDEX_RANKER_H_

#include <string>
#include <vector>

#include "authidx/index/inverted.h"
#include "authidx/model/record.h"

namespace authidx {

/// A ranked document.
struct ScoredDoc {
  EntryId doc = 0;
  double score = 0.0;

  friend bool operator==(const ScoredDoc&, const ScoredDoc&) = default;
};

/// BM25 parameters (Robertson/Sparck Jones defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

// Shared scoring primitives. Both rankers (exhaustive and pruned) go
// through these exact functions, and they are noinline on purpose: one
// machine-code rounding sequence per formula, so per-call-site FP
// contraction cannot make the two paths disagree in the last bit. The
// pruned ranker's bit-identical-results guarantee rests on this.

/// BM25+-style idf with a positivity floor: log(1 + (n-df+0.5)/(df+0.5)).
[[gnu::noinline]] double Bm25Idf(double n, double df);

/// One term's BM25 contribution to one document's score.
[[gnu::noinline]] double Bm25Contribution(double idf, double tf,
                                          double doc_len, double avg_len,
                                          const Bm25Params& params);

/// Upper bound on Bm25Contribution for any posting with tf <= max_freq
/// and doc_len >= min_doc_len: the numerator is evaluated at max_freq,
/// the denominator at tf = 1 and doc_len = min_doc_len. Slightly looser
/// than the classic f(max_freq, min_len) bound but provably >= every
/// floating-point-evaluated contribution (each IEEE op is monotone), so
/// pruning on it can never drop a true top-k document.
[[gnu::noinline]] double Bm25ImpactBound(double idf, double max_freq,
                                         double min_doc_len, double avg_len,
                                         const Bm25Params& params);

/// Scores documents matching any query term with Okapi BM25 over `index`
/// and returns the top `k`, highest score first (doc id breaks ties for
/// determinism). Terms must be pre-analyzed with the index's analyzer.
/// Exhaustive: it reads every posting of every term through a Cursor.
/// No serving path calls it; it is the reference the pruned ranker and
/// the executor's relevance order are tested against.
std::vector<ScoredDoc> RankBm25(const InvertedIndex& index,
                                const std::vector<std::string>& terms,
                                size_t k, const Bm25Params& params = {});

/// Work accounting for RankBm25TopKConjunctive.
struct TopKStats {
  /// Postings actually decoded (block granularity).
  uint64_t postings_decoded = 0;
  /// Postings provably skipped without decoding.
  uint64_t postings_skipped = 0;
  /// Conjunctive matches that were aligned and scored. Exact match
  /// count when `pruned` is false; a lower bound otherwise.
  uint64_t matches_seen = 0;
  /// True when any candidate range was skipped unscored (so counts
  /// derived from this run are lower bounds).
  bool pruned = false;
};

/// Block-Max-WAND-style conjunctive top-k: documents containing *every*
/// term, scored with BM25, top `k` by (score desc, doc asc). Produces
/// bit-identical (ids and fixed64 scores) output to ranking the full
/// conjunction through RankBm25, but decodes only postings blocks whose
/// max-impact bound can still enter the top k — whole blocks are
/// skipped via the index's skip metadata once the heap threshold rises
/// above their bound. `stats` (optional) receives work accounting.
std::vector<ScoredDoc> RankBm25TopKConjunctive(
    const InvertedIndex& index, const std::vector<std::string>& terms,
    size_t k, const Bm25Params& params = {}, TopKStats* stats = nullptr);

}  // namespace authidx

#endif  // AUTHIDX_INDEX_RANKER_H_
