#include "authidx/query/planner.h"

namespace authidx::query {

std::string_view PlanKindToString(PlanKind kind) {
  switch (kind) {
    case PlanKind::kAuthorExact:
      return "author-exact";
    case PlanKind::kAuthorPrefix:
      return "author-prefix";
    case PlanKind::kAuthorFuzzy:
      return "author-fuzzy";
    case PlanKind::kTitleTerms:
      return "title-terms";
    case PlanKind::kFullScan:
      return "full-scan";
    case PlanKind::kTitleTopK:
      return "title-topk";
  }
  return "unknown";
}

namespace {

// True when the pruned top-k path can serve the query: relevance
// ranking over title terms only, with every filter absent (the pruned
// ranker scores the raw conjunction; residual predicates would need
// post-filtering, which breaks its "top k of what I scored" contract)
// and a bounded result window.
bool TopKPrunable(const Query& query) {
  return query.rank == RankMode::kRelevance && query.not_terms.empty() &&
         !query.coauthor && !query.year && !query.volume && !query.student &&
         query.limit > 0 && query.limit <= kMaxTopKResults &&
         query.offset <= kMaxTopKResults - query.limit;
}

}  // namespace

Plan ChoosePlan(const Query& query, const PlannerStats& stats) {
  Plan plan;
  if (query.author_exact) {
    plan.kind = PlanKind::kAuthorExact;
    plan.estimated_candidates = 4;  // Typical entries per author.
    return plan;
  }
  if (query.author_prefix) {
    plan.kind = PlanKind::kAuthorPrefix;
    // A prefix covers a key range; assume a small slice of the corpus.
    plan.estimated_candidates = stats.entry_count / 64 + 4;
    return plan;
  }
  if (query.author_fuzzy) {
    plan.kind = PlanKind::kAuthorFuzzy;
    plan.estimated_candidates = stats.entry_count / 128 + 4;
    return plan;
  }
  if (stats.has_title_terms) {
    plan.kind = PlanKind::kTitleTerms;
    if (stats.unknown_term) {
      plan.provably_empty = true;
      plan.estimated_candidates = 0;
    } else {
      // Conjunction is bounded by the rarest term's postings.
      plan.estimated_candidates = stats.min_term_df;
      if (TopKPrunable(query)) {
        plan.kind = PlanKind::kTitleTopK;
      }
    }
    return plan;
  }
  plan.kind = PlanKind::kFullScan;
  plan.estimated_candidates = stats.entry_count;
  return plan;
}

}  // namespace authidx::query
