#include "authidx/query/executor.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <tuple>

#include "authidx/index/ranker.h"
#include "authidx/text/normalize.h"

namespace authidx::query {
namespace {

// Candidate generation for the chosen access path. Returns sorted ids.
// `terms` are the title terms rarest first; kTitleTerms seeds from the
// rarest and Execute intersects the rest.
Result<std::vector<EntryId>> Candidates(
    const Query& query, const Plan& plan, const CatalogView& catalog,
    const std::vector<std::string_view>& terms) {
  switch (plan.kind) {
    case PlanKind::kAuthorExact:
      return catalog.AuthorExact(*query.author_exact);
    case PlanKind::kAuthorPrefix:
      return catalog.AuthorPrefix(*query.author_prefix);
    case PlanKind::kAuthorFuzzy:
      return catalog.AuthorFuzzy(*query.author_fuzzy,
                                 query.fuzzy_max_edits);
    case PlanKind::kTitleTerms:
      return catalog.title_index().GetDocs(terms.front());
    case PlanKind::kFullScan: {
      std::vector<EntryId> all(catalog.entry_count());
      for (size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<EntryId>(i);
      }
      return all;
    }
    case PlanKind::kTitleTopK:
      // Handled by Execute before candidate generation; the pruned
      // ranker never materializes a candidate set.
      return Status::Internal("kTitleTopK has no candidate stage");
  }
  return Status::Internal("unreachable plan kind");
}

// Walks `term`'s postings against the sorted `ids`, calling
// visit(i, freq) for each ids[i] the term contains, in ascending order.
// A skip-aware cursor decodes only the blocks that can hold one of
// `ids`. No postings list is materialized: with a list-sized buffer
// per dense probe, the server's ingest after a read-heavy window was
// measurably slower (docs/BENCHMARKS.md).
template <typename Visit>
void ProbeTerm(const InvertedIndex& index, std::string_view term,
               const std::vector<EntryId>& ids, Visit visit) {
  InvertedIndex::Cursor cursor = index.OpenCursor(term);
  if (cursor.empty()) {
    return;
  }
  for (size_t i = 0; i < ids.size() && cursor.ShallowSeek(ids[i]); ++i) {
    cursor.Seek(ids[i]);
    if (cursor.doc() == ids[i]) {
      visit(i, cursor.freq());
    }
  }
}

// The ids of sorted `ids` that contain `term` (keep_present) or lack it.
std::vector<EntryId> FilterByTerm(const InvertedIndex& index,
                                  std::string_view term,
                                  const std::vector<EntryId>& ids,
                                  bool keep_present) {
  std::vector<bool> present(ids.size());
  ProbeTerm(index, term, ids, [&](size_t i, uint32_t) { present[i] = true; });
  std::vector<EntryId> kept;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (present[i] == keep_present) {
      kept.push_back(ids[i]);
    }
  }
  return kept;
}

// True if `row` passes every per-entry predicate. Title terms are not
// checked here: Execute applies them once per term in `candidates`.
// Only coauthor: reads the Entry itself.
bool PassesFilters(const Query& query, const EntryRow& row,
                   const CatalogView& catalog) {
  if (query.year && !query.year->Contains(row.year)) {
    return false;
  }
  if (query.volume && !query.volume->Contains(row.volume)) {
    return false;
  }
  if (query.student && row.student != *query.student) {
    return false;
  }
  if (query.coauthor) {
    for (const std::string& coauthor : catalog.GetEntry(row.id)->coauthors) {
      std::string folded = text::NormalizeForIndex(coauthor);
      if (folded.find(*query.coauthor) != std::string::npos) {
        return true;
      }
    }
    return false;
  }
  return true;
}

// The sorted `matches` as hits scored with BM25 over the title terms.
// Folds the terms left to right in query order through the shared
// Bm25Idf and Bm25Contribution, exactly as RankBm25 does, so the score
// bits agree.
std::vector<Hit> ScoreMatches(const InvertedIndex& index,
                              const std::vector<std::string>& terms,
                              const std::vector<EntryId>& matches) {
  std::vector<Hit> hits(matches.size());
  std::vector<double> doc_len(matches.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    hits[i].id = matches[i];
    doc_len[i] = static_cast<double>(index.DocLength(matches[i]));
  }
  const double n = static_cast<double>(index.doc_count());
  const double avg_len =
      static_cast<double>(index.total_tokens()) / std::max(1.0, n);
  for (const std::string& term : terms) {
    const double idf = Bm25Idf(n, static_cast<double>(index.DocFreq(term)));
    ProbeTerm(index, term, matches, [&](size_t i, uint32_t freq) {
      hits[i].score += Bm25Contribution(idf, static_cast<double>(freq),
                                        doc_len[i], avg_len, Bm25Params{});
    });
  }
  return hits;
}

}  // namespace

Result<QueryResult> Execute(const Query& query, const CatalogView& catalog,
                            const ExecObs* hooks) {
  static const ExecObs kNoObs;
  if (hooks == nullptr) {
    hooks = &kNoObs;
  }

  // Plan.
  PlannerStats stats;
  Plan plan;
  {
    obs::TraceSpan span(hooks->trace, hooks->stage_plan_ns, "plan");
    stats.entry_count = catalog.entry_count();
    stats.has_title_terms = !query.title_terms.empty();
    if (stats.has_title_terms) {
      stats.min_term_df = std::numeric_limits<size_t>::max();
      for (const std::string& term : query.title_terms) {
        size_t df = catalog.title_index().DocFreq(term);
        stats.min_term_df = std::min(stats.min_term_df, df);
        stats.total_term_df += df;
        if (df == 0) {
          stats.unknown_term = true;
        }
      }
      if (stats.unknown_term) {
        stats.min_term_df = 0;
      }
    }
    plan = ChoosePlan(query, stats);
  }
  if (obs::Counter* chosen =
          hooks->plan_chosen[static_cast<size_t>(plan.kind)]) {
    chosen->Inc();
  }

  // Hits the page needs in order; saturates so a huge limit means "all".
  constexpr size_t kMaxSize = std::numeric_limits<size_t>::max();
  size_t need = query.limit > kMaxSize - query.offset
                    ? kMaxSize
                    : query.offset + query.limit;

  QueryResult result;
  result.plan = plan.kind;
  if (plan.provably_empty) {
    return result;
  }

  if (plan.kind == PlanKind::kTitleTopK) {
    // Pruned BM25 top-k: the ranker drives the skip-aware cursors
    // directly — no candidate materialization, no residual filters (the
    // planner only picks this path when none apply). Results are
    // bit-identical to the exhaustive kTitleTerms + relevance path.
    obs::TraceSpan span(hooks->trace, hooks->stage_order_ns, "topk_prune");
    TopKStats tstats;
    std::vector<ScoredDoc> top = RankBm25TopKConjunctive(
        catalog.title_index(), query.title_terms, need, Bm25Params{},
        &tstats);
    result.total_matches = static_cast<size_t>(tstats.matches_seen);
    result.total_is_lower_bound = tstats.pruned;
    result.postings_decoded = tstats.postings_decoded;
    result.postings_skipped = tstats.postings_skipped;
    const size_t begin = std::min(query.offset, top.size());
    result.hits.reserve(top.size() - begin);
    for (size_t i = begin; i < top.size(); ++i) {
      result.hits.push_back(Hit{top[i].doc, top[i].score});
    }
    if (hooks->postings_skipped != nullptr && tstats.postings_skipped > 0) {
      hooks->postings_skipped->Inc(tstats.postings_skipped);
    }
    if (hooks->topk_pruned_queries != nullptr && tstats.pruned) {
      hooks->topk_pruned_queries->Inc();
    }
    return result;
  }

  // Candidates: the access path, then each title term it did not apply
  // (rarest first), then each exclusion — one postings walk per term.
  std::vector<EntryId> candidates;
  {
    obs::TraceSpan span(hooks->trace, hooks->stage_candidates_ns,
                        "candidates");
    const InvertedIndex& index = catalog.title_index();
    std::vector<std::string_view> terms(query.title_terms.begin(),
                                        query.title_terms.end());
    std::sort(terms.begin(), terms.end(),
              [&](std::string_view a, std::string_view b) {
                return index.DocFreq(a) < index.DocFreq(b);
              });
    AUTHIDX_ASSIGN_OR_RETURN(candidates,
                             Candidates(query, plan, catalog, terms));
    for (size_t i = plan.kind == PlanKind::kTitleTerms ? 1 : 0;
         i < terms.size() && !candidates.empty(); ++i) {
      candidates = FilterByTerm(index, terms[i], candidates,
                                /*keep_present=*/true);
    }
    for (const std::string& term : query.not_terms) {
      candidates = FilterByTerm(index, term, candidates,
                                /*keep_present=*/false);
    }
  }
  // Filter: one dense row per candidate, which the order stage reuses.
  std::vector<EntryRow> rows;
  {
    obs::TraceSpan span(hooks->trace, hooks->stage_filter_ns, "filter");
    catalog.FillRows(candidates, &rows);
    std::erase_if(rows, [&](const EntryRow& row) {
      return !PassesFilters(query, row, catalog);
    });
  }
  result.total_matches = rows.size();

  // Order: only the first `need` hits are put in order, then paginated.
  obs::TraceSpan order_span(hooks->trace, hooks->stage_order_ns, "order");
  need = std::min(need, rows.size());
  const size_t begin = std::min(query.offset, need);
  if (begin == need) {
    return result;
  }
  if (query.rank == RankMode::kRelevance && !query.title_terms.empty()) {
    std::vector<EntryId> matches(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      matches[i] = rows[i].id;
    }
    std::vector<Hit> ranked =
        ScoreMatches(catalog.title_index(), query.title_terms, matches);
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<ptrdiff_t>(need),
                      ranked.end(), [](const Hit& a, const Hit& b) {
                        if (a.score != b.score) {
                          return a.score > b.score;
                        }
                        return a.id < b.id;
                      });
    result.hits.assign(ranked.begin() + static_cast<ptrdiff_t>(begin),
                       ranked.begin() + static_cast<ptrdiff_t>(need));
    return result;
  }
  // Printed order: author collation key, volume, page, then id. The
  // key prefix decides most comparisons; the full keys are compared
  // only when the prefixes tie.
  std::partial_sort(
      rows.begin(), rows.begin() + static_cast<ptrdiff_t>(need), rows.end(),
      [&](const EntryRow& a, const EntryRow& b) {
        if (a.key_prefix != b.key_prefix) {
          return a.key_prefix < b.key_prefix;
        }
        if (int c = a.sort_key.compare(b.sort_key); c != 0) {
          return c < 0;
        }
        return std::tie(a.volume, a.page, a.id) <
               std::tie(b.volume, b.page, b.id);
      });
  result.hits.reserve(need - begin);
  for (size_t i = begin; i < need; ++i) {
    result.hits.push_back(Hit{rows[i].id, 0.0});
  }
  return result;
}

}  // namespace authidx::query
