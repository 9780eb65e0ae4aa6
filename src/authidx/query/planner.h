#ifndef AUTHIDX_QUERY_PLANNER_H_
#define AUTHIDX_QUERY_PLANNER_H_

#include <cstdint>
#include <string>

#include "authidx/query/ast.h"

namespace authidx::query {

/// Primary access path for a query.
enum class PlanKind {
  kAuthorExact,   // Ordered-map lookup of one author group.
  kAuthorPrefix,  // Ordered-map walk over the groups with the prefix.
  kAuthorFuzzy,   // Phonetic bucket + edit distance.
  kTitleTerms,    // Postings intersection over the inverted index.
  kFullScan,      // Filter-only query: scan all entries.
  kTitleTopK,     // Block-max pruned BM25 top-k over title terms.
};

/// Number of PlanKind values (for per-kind metric arrays).
inline constexpr size_t kPlanKindCount = 6;

/// Largest offset + limit the pruned top-k path accepts: past this the
/// heap threshold rises too slowly for block skipping to pay for its
/// bookkeeping, so the planner falls back to kTitleTerms.
inline constexpr size_t kMaxTopKResults = 4096;

std::string_view PlanKindToString(PlanKind kind);

/// Statistics the planner consults (doc frequencies of the query terms,
/// corpus size).
struct PlannerStats {
  size_t entry_count = 0;
  /// Doc frequency of the rarest title term (0 when no terms or a term
  /// is unknown, which proves an empty result).
  size_t min_term_df = 0;
  /// Sum of all title terms' doc frequencies — the postings the
  /// exhaustive ranked path would decode. The pruned path's
  /// decoded/skipped split (QueryResult, ExecObs) is measured against
  /// this total.
  size_t total_term_df = 0;
  bool has_title_terms = false;
  bool unknown_term = false;  // Some term has df == 0.
};

/// The chosen plan with its cost estimate (candidate rows to touch).
struct Plan {
  PlanKind kind = PlanKind::kFullScan;
  uint64_t estimated_candidates = 0;
  /// Result is provably empty (e.g. a conjunctive term is unknown).
  bool provably_empty = false;
};

/// Picks the cheapest access path:
///  * author clauses always win over title terms (author groups are
///    far more selective in an author index);
///  * relevance-ranked pure keyword queries with a bounded page
///    (offset + limit <= kMaxTopKResults) and no residual filters take
///    the pruned top-k path (kTitleTopK) — same results as kTitleTerms,
///    bit for bit, but most postings are never decoded;
///  * title terms beat a full scan unless a term is unknown (then the
///    result is empty);
///  * otherwise full scan.
Plan ChoosePlan(const Query& query, const PlannerStats& stats);

}  // namespace authidx::query

#endif  // AUTHIDX_QUERY_PLANNER_H_
