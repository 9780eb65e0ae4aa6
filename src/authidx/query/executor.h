#ifndef AUTHIDX_QUERY_EXECUTOR_H_
#define AUTHIDX_QUERY_EXECUTOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/result.h"
#include "authidx/index/inverted.h"
#include "authidx/model/record.h"
#include "authidx/obs/metrics.h"
#include "authidx/obs/trace.h"
#include "authidx/query/ast.h"
#include "authidx/query/planner.h"

namespace authidx::query {

/// What the executor's filter and order stages read of one entry, packed
/// so those loops touch no Entry.
struct EntryRow {
  /// text::SortKeyPrefix(sort_key): decides most collation compares.
  uint64_t key_prefix = 0;
  /// The entry's memcmp-ordered author collation key (printed order);
  /// read only when two prefixes tie.
  std::string_view sort_key;
  uint32_t volume = 0;
  uint32_t page = 0;
  uint32_t year = 0;
  EntryId id = 0;
  bool student = false;
};

/// The read surface the executor runs against. Implemented by
/// core::AuthorIndex; defined here so the query library does not depend
/// on the core layer.
class CatalogView {
 public:
  virtual ~CatalogView() = default;

  /// Entry lookup; nullptr for unknown ids.
  virtual const Entry* GetEntry(EntryId id) const = 0;

  /// Total entries (ids are dense 0..entry_count-1).
  virtual size_t entry_count() const = 0;

  /// Inverted index over analyzed titles.
  virtual const InvertedIndex& title_index() const = 0;

  /// Entry ids of the author group exactly matching the folded group key
  /// ("surname, given[, suffix]" after NormalizeForIndex). Sorted.
  virtual std::vector<EntryId> AuthorExact(
      std::string_view folded_group) const = 0;

  /// Entry ids of all author groups whose folded key starts with
  /// `folded_prefix`. Sorted, deduped.
  virtual std::vector<EntryId> AuthorPrefix(
      std::string_view folded_prefix) const = 0;

  /// Entry ids of author groups whose surname is within `max_edits` of
  /// `folded_name` (candidates pre-filtered by phonetic bucket). Sorted.
  virtual std::vector<EntryId> AuthorFuzzy(std::string_view folded_name,
                                           size_t max_edits) const = 0;

  /// Replaces `rows` with one row per id of the sorted `ids`, in order.
  /// Ids the catalog does not hold get no row.
  virtual void FillRows(const std::vector<EntryId>& ids,
                        std::vector<EntryRow>* rows) const = 0;
};

/// One query hit.
struct Hit {
  EntryId id = 0;
  /// BM25 score when ranked by relevance; 0 in collation order.
  double score = 0.0;

  friend bool operator==(const Hit&, const Hit&) = default;
};

/// Executor output.
struct QueryResult {
  std::vector<Hit> hits;
  /// Matches before offset/limit. On the pruned top-k path this counts
  /// only the matches the pruning loop actually verified — a lower
  /// bound whenever total_is_lower_bound is set (Lucene-style
  /// "greater than or equal" totals).
  size_t total_matches = 0;
  /// True when pruning skipped candidates unscored, making
  /// total_matches a lower bound rather than an exact count.
  bool total_is_lower_bound = false;
  /// The access path the planner chose (exposed for tests/benchmarks).
  PlanKind plan = PlanKind::kFullScan;
  /// Postings decoded / provably skipped by the pruned top-k path
  /// (both 0 on every other path, whose decoding is counted only by
  /// authidx_inverted_postings_decoded_total).
  uint64_t postings_decoded = 0;
  uint64_t postings_skipped = 0;
};

/// Optional observability hooks for Execute. Histogram/counter pointers
/// are instruments owned by a caller's obs::MetricsRegistry (recorded
/// into without allocation, thread-safe); `trace` is a per-request span
/// buffer (single-threaded, owned by the caller). Any field may be
/// null; a default-constructed ExecObs disables everything.
struct ExecObs {
  /// Per-request span buffer; receives one span per executor stage.
  obs::Trace* trace = nullptr;
  /// Stage latency histograms, all in ns.
  obs::LatencyHistogram* stage_plan_ns = nullptr;
  obs::LatencyHistogram* stage_candidates_ns = nullptr;
  obs::LatencyHistogram* stage_filter_ns = nullptr;
  obs::LatencyHistogram* stage_order_ns = nullptr;
  /// Chosen-access-path counters, indexed by static_cast<size_t>(PlanKind).
  obs::Counter* plan_chosen[kPlanKindCount] = {};
  /// Postings the pruned top-k path proved it could skip undecoded
  /// (authidx_postings_skipped_total). The decoded complement is
  /// recorded by the inverted index itself.
  obs::Counter* postings_skipped = nullptr;
  /// Queries where top-k pruning actually skipped work
  /// (authidx_topk_pruned_queries_total).
  obs::Counter* topk_pruned_queries = nullptr;
};

/// Plans and runs `query` against `catalog`. When `hooks` is non-null,
/// stage timings, the chosen plan, and (if hooks->trace is set) a span
/// tree are recorded into it.
Result<QueryResult> Execute(const Query& query, const CatalogView& catalog,
                            const ExecObs* hooks = nullptr);

}  // namespace authidx::query

#endif  // AUTHIDX_QUERY_EXECUTOR_H_
