#include "authidx/index/ranker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

namespace authidx {

double Bm25Idf(double n, double df) {
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

double Bm25Contribution(double idf, double tf, double doc_len, double avg_len,
                        const Bm25Params& params) {
  const double norm =
      params.k1 * (1.0 - params.b + params.b * doc_len / avg_len);
  return idf * (tf * (params.k1 + 1.0)) / (tf + norm);
}

double Bm25ImpactBound(double idf, double max_freq, double min_doc_len,
                       double avg_len, const Bm25Params& params) {
  const double norm =
      params.k1 * (1.0 - params.b + params.b * min_doc_len / avg_len);
  // Numerator at tf = max_freq, denominator at tf = 1 (the smallest
  // frequency a posting can carry): each factor bounds its side
  // monotonically, so the quotient bounds every real contribution even
  // after IEEE rounding. See the header comment.
  return idf * (max_freq * (params.k1 + 1.0)) / (1.0 + norm);
}

std::vector<ScoredDoc> RankBm25(const InvertedIndex& index,
                                const std::vector<std::string>& terms,
                                size_t k, const Bm25Params& params) {
  if (k == 0 || index.doc_count() == 0) {
    return {};
  }
  const double n = static_cast<double>(index.doc_count());
  const double avg_len =
      static_cast<double>(index.total_tokens()) / std::max(1.0, n);

  std::unordered_map<EntryId, double> scores;
  for (const std::string& term : terms) {
    // Walk every posting: seek one past the doc just read.
    InvertedIndex::Cursor cursor = index.OpenCursor(term);
    const double idf = Bm25Idf(n, static_cast<double>(cursor.doc_freq()));
    for (EntryId target = 0; cursor.ShallowSeek(target);
         target = cursor.doc() + 1) {
      cursor.Seek(target);
      const double tf = static_cast<double>(cursor.freq());
      const double doc_len = static_cast<double>(index.DocLength(cursor.doc()));
      scores[cursor.doc()] +=
          Bm25Contribution(idf, tf, doc_len, avg_len, params);
    }
  }

  std::vector<ScoredDoc> ranked;
  ranked.reserve(scores.size());
  for (const auto& [doc, score] : scores) {
    ranked.push_back(ScoredDoc{doc, score});
  }
  auto better = [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.doc < b.doc;
  };
  if (ranked.size() > k) {
    std::partial_sort(ranked.begin(), ranked.begin() + static_cast<long>(k),
                      ranked.end(), better);
    ranked.resize(k);
  } else {
    std::sort(ranked.begin(), ranked.end(), better);
  }
  return ranked;
}

std::vector<ScoredDoc> RankBm25TopKConjunctive(
    const InvertedIndex& index, const std::vector<std::string>& terms,
    size_t k, const Bm25Params& params, TopKStats* stats) {
  TopKStats local;
  TopKStats& st = stats != nullptr ? *stats : local;
  st = TopKStats{};
  if (k == 0 || terms.empty() || index.doc_count() == 0) {
    return {};
  }
  const double n = static_cast<double>(index.doc_count());
  const double avg_len =
      static_cast<double>(index.total_tokens()) / std::max(1.0, n);
  const double min_len = static_cast<double>(index.min_doc_tokens());

  const size_t m = terms.size();
  std::vector<InvertedIndex::Cursor> cursors;
  cursors.reserve(m);
  std::vector<double> idf(m);
  for (size_t i = 0; i < m; ++i) {
    cursors.push_back(index.OpenCursor(terms[i]));
    if (cursors.back().empty()) {
      return {};  // Conjunctive: an unknown term empties the result.
    }
    idf[i] = Bm25Idf(n, static_cast<double>(cursors[i].doc_freq()));
  }
  // List-level bound, folded in term order — the same left-to-right
  // fold the scorer uses, so FP monotonicity carries through the sum.
  double full_bound = 0.0;
  for (size_t i = 0; i < m; ++i) {
    full_bound += Bm25ImpactBound(idf[i],
                                  static_cast<double>(cursors[i].max_freq()),
                                  min_len, avg_len, params);
  }
  // Alignment probes run rarest-list-first so mismatches are discovered
  // after decoding as little as possible.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (cursors[a].doc_freq() != cursors[b].doc_freq()) {
      return cursors[a].doc_freq() < cursors[b].doc_freq();
    }
    return a < b;
  });

  auto better = [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.doc < b.doc;
  };
  // Min-heap of the best k so far: `better` as the heap comparator
  // makes heap.front() the *worst* kept doc — the pruning threshold.
  std::vector<ScoredDoc> heap;
  heap.reserve(k);

  constexpr EntryId kMaxDoc = std::numeric_limits<EntryId>::max();
  EntryId target = 0;
  bool exhausted = false;
  while (!exhausted) {
    // Phase 1: shallow-align every cursor's block window to `target`
    // using only skip metadata.
    for (size_t i = 0; i < m; ++i) {
      if (!cursors[i].ShallowSeek(target)) {
        exhausted = true;
        break;
      }
    }
    if (exhausted) {
      break;
    }
    if (heap.size() == k) {
      const double theta = heap.front().score;
      // Docs processed from here on have larger ids than everything in
      // the heap, so they must score strictly above theta to enter:
      // a bound <= theta proves the whole range hopeless.
      if (full_bound <= theta) {
        st.pruned = true;
        break;
      }
      double block_bound = 0.0;
      for (size_t i = 0; i < m; ++i) {
        block_bound += Bm25ImpactBound(
            idf[i], static_cast<double>(cursors[i].current_block_max_freq()),
            min_len, avg_len, params);
      }
      if (block_bound <= theta) {
        // Skip to just past the nearest block boundary — no decoding.
        EntryId boundary = kMaxDoc;
        for (size_t i = 0; i < m; ++i) {
          boundary = std::min(boundary, cursors[i].current_block_last_doc());
        }
        st.pruned = true;
        if (boundary == kMaxDoc) {
          break;
        }
        target = boundary + 1;
        continue;
      }
    }
    // Phase 2: decode-align at `target`, rarest list first. The first
    // cursor that lands past `target` restarts the loop (and its
    // pruning checks) at the doc it landed on.
    bool aligned = true;
    for (size_t oi = 0; oi < m; ++oi) {
      InvertedIndex::Cursor& c = cursors[order[oi]];
      if (!c.ShallowSeek(target)) {
        exhausted = true;
        aligned = false;
        break;
      }
      c.Seek(target);
      if (c.doc() != target) {
        target = c.doc();
        aligned = false;
        break;
      }
    }
    if (!aligned) {
      continue;
    }
    // Phase 3: score the aligned doc, accumulating contributions in
    // original term order — the exact fold RankBm25 performs, so the
    // resulting double is bit-identical to the exhaustive ranker's.
    const EntryId d = target;
    const double doc_len = static_cast<double>(index.DocLength(d));
    double score = 0.0;
    for (size_t i = 0; i < m; ++i) {
      score += Bm25Contribution(idf[i],
                                static_cast<double>(cursors[i].freq()),
                                doc_len, avg_len, params);
    }
    ++st.matches_seen;
    const ScoredDoc scored{d, score};
    if (heap.size() < k) {
      heap.push_back(scored);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(scored, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = scored;
      std::push_heap(heap.begin(), heap.end(), better);
    }
    if (d == kMaxDoc) {
      break;
    }
    target = d + 1;
  }

  uint64_t total_df = 0;
  uint64_t decoded = 0;
  for (const InvertedIndex::Cursor& c : cursors) {
    total_df += c.doc_freq();
    decoded += c.decoded_postings();
  }
  st.postings_decoded = decoded;
  st.postings_skipped = total_df - decoded;
  std::sort(heap.begin(), heap.end(), better);
  return heap;
}

}  // namespace authidx
