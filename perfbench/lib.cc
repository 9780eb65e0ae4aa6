#include "lib.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <tuple>

#include "authidx/parse/tsv.h"
#include "authidx/text/collate.h"
#include "authidx/text/normalize.h"
#include "authidx/text/tokenize.h"

namespace perfbench {

std::string_view ShapeName(Shape shape) {
  static constexpr std::string_view kNames[kShapeCount] = {
      "author_exact",          "author_prefix",
      "author_fuzzy",          "title_topk",
      "title_filtered",        "title_ranked_filtered",
      "author_prefix_title",   "title_negation",
  };
  return kNames[static_cast<int>(shape)];
}

bool IsLiteralShape(Shape shape) {
  return shape == Shape::kAuthorExact || shape == Shape::kTitleFiltered ||
         shape == Shape::kTitleNegation;
}

ShapeWeights ReadMixWeights() {
  // Indexed by Shape. author_prefix_title costs two orders of magnitude
  // more than the others (it decodes the title postings once per prefix
  // match), so it is drawn rarely; README.md records each shape's share.
  return {0.18, 0.10, 0.14, 0.20, 0.20, 0.08, 0.002, 0.12};
}

std::vector<std::string> ContentWords(std::string_view title) {
  std::vector<std::string> words;
  std::string folded = authidx::text::FoldCase(title);
  std::string word;
  auto flush = [&] {
    if (word.size() >= 3 && !authidx::text::IsStopword(word)) {
      words.push_back(word);
    }
    word.clear();
  };
  for (char c : folded) {
    if (c >= 'a' && c <= 'z') {
      word.push_back(c);
    } else {
      flush();
    }
  }
  flush();
  return words;
}

QueryGenerator::QueryGenerator(const std::vector<Entry>& corpus,
                               uint64_t seed)
    : corpus_(corpus), rng_(seed) {
  const ShapeWeights weights = ReadMixWeights();
  double sum = 0;
  for (double w : weights) {
    sum += w;
  }
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] = static_cast<size_t>(std::lround(1000 * weights[i] / sum));
    counts_total_ += counts_[i];
  }
  min_year_ = UINT32_MAX;
  for (const Entry& entry : corpus_) {
    min_year_ = std::min(min_year_, entry.citation.year);
    max_year_ = std::max(max_year_, entry.citation.year);
  }
}

const Entry& QueryGenerator::RandomEntry() {
  return corpus_[rng_.Uniform(corpus_.size())];
}

std::string QueryGenerator::RandomPrefix() {
  while (true) {
    std::string folded =
        authidx::text::NormalizeForIndex(RandomEntry().author.surname);
    if (folded.size() >= 2 && authidx::text::IsAsciiAlpha(folded[0]) &&
        authidx::text::IsAsciiAlpha(folded[1])) {
      return folded.substr(0, 2);
    }
  }
}

QuerySpec QueryGenerator::Next() {
  if (deck_.empty()) {
    for (size_t i = 0; i < counts_.size(); ++i) {
      deck_.insert(deck_.end(), counts_[i], static_cast<Shape>(i));
    }
    for (size_t i = deck_.size() - 1; i > 0; --i) {
      std::swap(deck_[i], deck_[rng_.Uniform(i + 1)]);
    }
  }
  Shape shape = deck_.back();
  deck_.pop_back();
  return Make(shape);
}

QuerySpec QueryGenerator::Make(Shape shape) {
  QuerySpec spec;
  spec.shape = shape;
  // Two distinct content words of one title, so conjunctions match.
  auto two_words = [&](const Entry** from) {
    while (true) {
      const Entry& entry = RandomEntry();
      std::vector<std::string> words = ContentWords(entry.title);
      std::sort(words.begin(), words.end());
      words.erase(std::unique(words.begin(), words.end()), words.end());
      if (words.size() < 2) {
        continue;
      }
      size_t a = rng_.Uniform(words.size());
      size_t b = rng_.Uniform(words.size() - 1);
      if (b >= a) {
        ++b;
      }
      *from = &entry;
      return std::vector<std::string>{words[a], words[b]};
    }
  };
  auto one_word = [&](const Entry& entry) -> std::string {
    std::vector<std::string> words = ContentWords(entry.title);
    return words.empty() ? std::string()
                         : words[rng_.Uniform(words.size())];
  };
  // A year window around `year`, so the filter keeps some matches.
  auto year_window = [&](uint32_t year) {
    spec.year_lo = std::max(min_year_, year - static_cast<uint32_t>(
                                                  rng_.Uniform(7)));
    spec.year_hi = std::min(max_year_, year + static_cast<uint32_t>(
                                                  rng_.Uniform(7)));
  };
  auto year_clause = [&] {
    return " year:" + std::to_string(spec.year_lo) + ".." +
           std::to_string(spec.year_hi);
  };
  const Entry* from = nullptr;
  switch (shape) {
    case Shape::kAuthorExact:
      spec.author =
          authidx::text::NormalizeForIndex(RandomEntry().author.surname);
      spec.text = "author:" + spec.author;
      break;
    case Shape::kAuthorPrefix:
      spec.author = RandomPrefix();
      spec.limit = 10;
      spec.text = "author:" + spec.author + "* limit:10";
      break;
    case Shape::kAuthorFuzzy: {
      std::string letters;
      for (char c : authidx::text::NormalizeForIndex(
               RandomEntry().author.surname)) {
        if (authidx::text::IsAsciiAlpha(c)) {
          letters.push_back(c);
        }
      }
      // One edit after the first letter: substitute, delete or insert.
      size_t pos = 1 + rng_.Uniform(letters.size() - 1);
      char letter = static_cast<char>('a' + rng_.Uniform(26));
      switch (letters.size() < 4 ? 0 : rng_.Uniform(3)) {
        case 0:
          if (letters[pos] == letter) {
            letter = letter == 'z' ? 'a' : static_cast<char>(letter + 1);
          }
          letters[pos] = letter;
          break;
        case 1:
          letters.erase(pos, 1);
          break;
        default:
          letters.insert(pos, 1, letter);
          break;
      }
      spec.author = letters;
      spec.text = "author~" + spec.author;
      break;
    }
    case Shape::kTitleTopK:
      spec.words = two_words(&from);
      spec.limit = 10;
      spec.text = spec.words[0] + " " + spec.words[1] +
                  " order:relevance limit:10";
      break;
    case Shape::kTitleFiltered:
      spec.words = two_words(&from);
      year_window(from->citation.year);
      spec.limit = 10;
      spec.text = spec.words[0] + " " + spec.words[1] + year_clause() +
                  " limit:10";
      break;
    case Shape::kTitleRankedFiltered:
      spec.words = two_words(&from);
      year_window(from->citation.year);
      spec.limit = 10;
      spec.text = spec.words[0] + " " + spec.words[1] + year_clause() +
                  " order:relevance limit:10";
      break;
    case Shape::kAuthorPrefixTitle: {
      // Prefix and word from one entry, so the conjunction matches.
      const Entry* entry = nullptr;
      std::string folded;
      std::string word;
      while (word.empty() || folded.size() < 2 ||
             !authidx::text::IsAsciiAlpha(folded[0]) ||
             !authidx::text::IsAsciiAlpha(folded[1])) {
        entry = &RandomEntry();
        folded = authidx::text::NormalizeForIndex(entry->author.surname);
        word = one_word(*entry);
      }
      spec.author = folded.substr(0, 2);
      spec.words = {word};
      spec.limit = 10;
      spec.text = "author:" + spec.author + "* " + word + " limit:10";
      break;
    }
    case Shape::kTitleNegation: {
      std::string word;
      while (word.empty()) {
        word = one_word(RandomEntry());
      }
      std::string negated;
      while (negated.empty() || negated == word) {
        negated = one_word(RandomEntry());
      }
      spec.words = {word};
      spec.negated = negated;
      spec.limit = 10;
      spec.text = word + " -" + negated + " limit:10";
      break;
    }
  }
  return spec;
}

std::vector<QuerySpec> DistinctQueries(const std::vector<Entry>& corpus,
                                       uint64_t seed, size_t count) {
  QueryGenerator generator(corpus, seed);
  std::set<std::string> seen;
  std::vector<QuerySpec> out;
  for (size_t tries = 0; out.size() < count && tries < count * 1000;
       ++tries) {
    QuerySpec spec = generator.Next();
    if (seen.insert(spec.text).second) {
      out.push_back(std::move(spec));
    }
  }
  std::array<bool, kShapeCount> present{};
  for (const QuerySpec& spec : out) {
    present[static_cast<size_t>(spec.shape)] = true;
  }
  size_t slot = out.size();
  for (int s = 0; s < kShapeCount && slot > 0; ++s) {
    if (!present[static_cast<size_t>(s)]) {
      QuerySpec spec = generator.Make(static_cast<Shape>(s));
      while (!seen.insert(spec.text).second) {
        spec = generator.Make(static_cast<Shape>(s));
      }
      out[--slot] = std::move(spec);
    }
  }
  return out;
}

ShuffledCycle::ShuffledCycle(size_t count, uint64_t seed)
    : order_(count), rng_(seed) {
  for (size_t i = 0; i < count; ++i) {
    order_[i] = i;
  }
}

size_t ShuffledCycle::Next() {
  if (next_ == 0) {
    for (size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng_.Uniform(i + 1)]);
    }
  }
  size_t index = order_[next_];
  next_ = (next_ + 1) % order_.size();
  return index;
}

AddStream::AddStream(const std::vector<Entry>& pool, uint64_t seed,
                     size_t batch_size)
    : pool_(pool),
      offset_(static_cast<size_t>(
          authidx::Random(seed ^ 0xadd5eedULL).Uniform(pool.size()))),
      batch_size_(batch_size) {}

size_t AddStream::PoolIndex(size_t k, size_t i) const {
  return (offset_ + k * batch_size_ + i) % pool_.size();
}

std::vector<std::string> AddStream::Batch(size_t k) const {
  std::vector<std::string> lines;
  lines.reserve(batch_size_);
  for (size_t i = 0; i < batch_size_; ++i) {
    lines.push_back(authidx::EntryToTsvLine(pool_[PoolIndex(k, i)]));
  }
  return lines;
}

uint64_t Fnv1a(std::string_view data, uint64_t hash) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

WindowStats SubWindowMedians(const std::vector<uint64_t>& done_ns,
                             const std::vector<double>& values,
                             uint64_t begin_ns, uint64_t end_ns, int parts) {
  WindowStats stats;
  if (end_ns <= begin_ns || parts <= 0) {
    return stats;
  }
  const uint64_t span = end_ns - begin_ns;
  std::vector<std::vector<double>> buckets(static_cast<size_t>(parts));
  for (size_t i = 0; i < done_ns.size() && i < values.size(); ++i) {
    if (done_ns[i] < begin_ns || done_ns[i] >= end_ns) {
      continue;
    }
    size_t b = static_cast<size_t>(static_cast<double>(done_ns[i] - begin_ns) *
                                   parts / static_cast<double>(span));
    buckets[std::min(b, buckets.size() - 1)].push_back(values[i]);
  }
  const double part_s = static_cast<double>(span) / 1e9 / parts;
  for (const std::vector<double>& bucket : buckets) {
    stats.part_rates.push_back(static_cast<double>(bucket.size()) / part_s);
    if (!bucket.empty()) {
      stats.part_medians.push_back(Median(bucket));
    }
  }
  stats.rate_per_s = Median(stats.part_rates);
  stats.median = Median(stats.part_medians);
  return stats;
}

double TailP99(const std::vector<double>& values, int parts) {
  const size_t part = parts > 0 ? values.size() / static_cast<size_t>(parts) : 0;
  if (part < 1000) {
    std::vector<double> all = values;
    std::sort(all.begin(), all.end());
    return Percentile(all, 0.99);
  }
  std::vector<double> p99s;
  for (int i = 0; i < parts; ++i) {
    auto begin = values.begin() + static_cast<std::ptrdiff_t>(part * static_cast<size_t>(i));
    std::vector<double> run(begin, begin + static_cast<std::ptrdiff_t>(part));
    std::sort(run.begin(), run.end());
    p99s.push_back(Percentile(run, 0.99));
  }
  return Median(p99s);
}

std::vector<uint64_t> SelfTimes(
    const std::vector<authidx::obs::Trace::Span>& spans) {
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t begin = spans[i].start_ns;
    const uint64_t end = begin + spans[i].duration_ns;
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    for (size_t j = i + 1;
         j < spans.size() && spans[j].depth > spans[i].depth; ++j) {
      if (spans[j].depth != spans[i].depth + 1) {
        continue;
      }
      uint64_t lo = std::max(begin, spans[j].start_ns);
      uint64_t hi = std::min(end, spans[j].start_ns + spans[j].duration_ns);
      if (lo < hi) {
        covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    uint64_t union_ns = 0;
    uint64_t reach = begin;
    for (const auto& [lo, hi] : covered) {
      uint64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    self[i] = spans[i].duration_ns - union_ns;
  }
  return self;
}

std::vector<std::string> SpanPaths(
    const std::vector<authidx::obs::Trace::Span>& spans) {
  std::vector<std::string> paths;
  std::vector<std::string> stack;  // stack[d] = path of the open depth-d span.
  for (const authidx::obs::Trace::Span& span : spans) {
    size_t depth = static_cast<size_t>(std::max(span.depth, 0));
    stack.resize(depth);
    stack.push_back(depth == 0 ? span.name : stack.back() + ">" + span.name);
    paths.push_back(stack.back());
  }
  return paths;
}

std::map<std::string, double> ParsePrometheusText(std::string_view text) {
  std::map<std::string, double> series;
  while (!text.empty()) {
    size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string_view::npos) {
      continue;
    }
    std::string value(line.substr(space + 1));
    series[std::string(line.substr(0, space))] =
        std::strtod(value.c_str(), nullptr);
  }
  return series;
}

NaiveCatalog::NaiveCatalog(const std::vector<Entry>& entries) {
  rows_.reserve(entries.size());
  for (const Entry& entry : entries) {
    Row row;
    std::string group = entry.author.GroupKey();
    row.folded_surname = authidx::text::NormalizeForIndex(entry.author.surname);
    row.folded_group = authidx::text::NormalizeForIndex(group);
    row.sort_key = authidx::text::MakeSortKey(group);
    row.tokens = authidx::text::Tokenize(entry.title);
    std::sort(row.tokens.begin(), row.tokens.end());
    row.tokens.erase(std::unique(row.tokens.begin(), row.tokens.end()),
                     row.tokens.end());
    row.volume = entry.citation.volume;
    row.page = entry.citation.page;
    row.year = entry.citation.year;
    rows_.push_back(std::move(row));
  }
}

NaiveAnswer NaiveCatalog::Evaluate(const QuerySpec& spec) const {
  auto has = [](const Row& row, const std::string& token) {
    return std::binary_search(row.tokens.begin(), row.tokens.end(), token);
  };
  std::vector<std::string> terms;
  for (const std::string& word : spec.words) {
    for (std::string& token : authidx::text::Tokenize(word)) {
      terms.push_back(std::move(token));
    }
  }
  std::vector<std::string> excluded =
      spec.negated.empty() ? std::vector<std::string>()
                           : authidx::text::Tokenize(spec.negated);
  std::string author = authidx::text::NormalizeForIndex(spec.author);
  // author:<x> names a whole group when one has that key, else every
  // group with that surname.
  bool group_match = false;
  if (spec.shape == Shape::kAuthorExact) {
    for (const Row& row : rows_) {
      if (row.folded_group == author) {
        group_match = true;
        break;
      }
    }
  }
  std::vector<EntryId> matches;
  for (size_t id = 0; id < rows_.size(); ++id) {
    const Row& row = rows_[id];
    if (spec.shape == Shape::kAuthorExact &&
        (group_match ? row.folded_group : row.folded_surname) != author) {
      continue;
    }
    if (spec.year_lo != 0 && (row.year < spec.year_lo || row.year > spec.year_hi)) {
      continue;
    }
    bool ok = true;
    for (const std::string& term : terms) {
      ok = ok && has(row, term);
    }
    for (const std::string& term : excluded) {
      ok = ok && !has(row, term);
    }
    if (ok) {
      matches.push_back(static_cast<EntryId>(id));
    }
  }
  // Printed-index order: collation key, then volume, page, id.
  std::sort(matches.begin(), matches.end(), [&](EntryId a, EntryId b) {
    const Row& ra = rows_[a];
    const Row& rb = rows_[b];
    return std::tie(ra.sort_key, ra.volume, ra.page, a) <
           std::tie(rb.sort_key, rb.volume, rb.page, b);
  });
  NaiveAnswer answer;
  answer.total_matches = matches.size();
  matches.resize(std::min(matches.size(), spec.limit));
  answer.ids = std::move(matches);
  return answer;
}

}  // namespace perfbench
