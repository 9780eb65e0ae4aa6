#include "authidx/core/author_index.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <tuple>

#include "authidx/common/coding.h"
#include "authidx/common/strings.h"
#include "authidx/model/serde.h"
#include "authidx/text/collate.h"
#include "authidx/text/distance.h"
#include "authidx/text/normalize.h"
#include "authidx/text/phonetic.h"
#include "authidx/text/tokenize.h"

namespace authidx::core {
namespace {

// Storage key for an entry: big-endian id so byte order == numeric order.
std::string EntryKey(EntryId id) {
  std::string key(5, '\0');
  key[0] = 'e';
  key[1] = static_cast<char>(id >> 24);
  key[2] = static_cast<char>((id >> 16) & 0xFF);
  key[3] = static_cast<char>((id >> 8) & 0xFF);
  key[4] = static_cast<char>(id & 0xFF);
  return key;
}

// Inverse of EntryKey: true when `key` is an entry key, extracting the
// dense id.
bool ParseEntryKey(std::string_view key, EntryId* id) {
  if (key.size() != 5 || key.front() != 'e') {
    return false;
  }
  *id = (static_cast<EntryId>(static_cast<unsigned char>(key[1])) << 24) |
        (static_cast<EntryId>(static_cast<unsigned char>(key[2])) << 16) |
        (static_cast<EntryId>(static_cast<unsigned char>(key[3])) << 8) |
        static_cast<EntryId>(static_cast<unsigned char>(key[4]));
  return true;
}

}  // namespace

AuthorIndex::~AuthorIndex() = default;

AuthorIndex::AuthorIndex()
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      slowlog_(std::make_unique<obs::SlowQueryLog>()),
      log_(obs::Logger::Disabled()) {
  queries_total_ =
      metrics_->RegisterCounter("authidx_queries_total", "Queries executed");
  slow_queries_total_ = metrics_->RegisterCounter(
      "authidx_slow_queries_total",
      "Queries exceeding the slow-query threshold");
  query_ns_ = metrics_->RegisterLatencyHistogram(
      "authidx_query_duration_ns", "End-to-end query execution latency, ns");
  rebuild_ns_ = metrics_->RegisterLatencyHistogram(
      "authidx_catalog_open_duration_ns",
      "Time from OpenPersistent's start to a rebuilt catalog (engine open "
      "plus log replay into the indexes), ns");
  exec_obs_.stage_plan_ns = metrics_->RegisterLatencyHistogram(
      "authidx_query_stage_plan_duration_ns",
      "Query planning stage latency, ns");
  exec_obs_.stage_candidates_ns = metrics_->RegisterLatencyHistogram(
      "authidx_query_stage_candidates_duration_ns",
      "Candidate-generation stage latency, ns");
  exec_obs_.stage_filter_ns = metrics_->RegisterLatencyHistogram(
      "authidx_query_stage_filter_duration_ns",
      "Residual-filter stage latency, ns");
  exec_obs_.stage_order_ns = metrics_->RegisterLatencyHistogram(
      "authidx_query_stage_order_duration_ns",
      "Ordering/pagination stage latency, ns");
  static constexpr const char* kPlanCounterNames[query::kPlanKindCount] = {
      "authidx_query_plan_author_exact_total",
      "authidx_query_plan_author_prefix_total",
      "authidx_query_plan_author_fuzzy_total",
      "authidx_query_plan_title_terms_total",
      "authidx_query_plan_full_scan_total",
      "authidx_query_plan_title_topk_total",
  };
  for (size_t kind = 0; kind < query::kPlanKindCount; ++kind) {
    exec_obs_.plan_chosen[kind] = metrics_->RegisterCounter(
        kPlanCounterNames[kind], "Queries the planner routed to this path");
  }
  exec_obs_.postings_skipped = metrics_->RegisterCounter(
      "authidx_postings_skipped_total",
      "Postings skipped undecoded by block-max top-k pruning");
  exec_obs_.topk_pruned_queries = metrics_->RegisterCounter(
      "authidx_topk_pruned_queries_total",
      "Queries where top-k pruning skipped at least one candidate range");
  // Index-layer instrument, recorded into by the index itself.
  inverted_.BindMetrics(metrics_->RegisterCounter(
      "authidx_inverted_postings_decoded_total",
      "Postings decoded by title-index lookups"));
}

std::unique_ptr<AuthorIndex> AuthorIndex::Create() {
  return std::unique_ptr<AuthorIndex>(new AuthorIndex());
}

Result<std::unique_ptr<AuthorIndex>> AuthorIndex::OpenPersistent(
    const std::string& dir, storage::EngineOptions options) {
  const uint64_t start_ns = obs::MonotonicNowNs();
  auto catalog = std::unique_ptr<AuthorIndex>(new AuthorIndex());
  if (options.metrics == nullptr) {
    // Storage metrics land in the catalog's registry so one snapshot
    // covers every layer.
    options.metrics = catalog->metrics_.get();
  }
  if (options.logger != nullptr) {
    // Catalog-level events (slow queries) share the engine's logger.
    catalog->log_ = options.logger;
  }
  // Rebuild the in-memory indexes from the engine's open scan, one
  // pass over the log. Ids are assigned in log order, so the n-th entry
  // put must carry id n.
  AuthorIndex* c = catalog.get();
  const storage::WalOpSink rebuild =
      [c](std::string_view key, std::string_view value) -> Status {
    // Open runs under index_mu_, held exclusively below.
    c->index_mu_.AssertHeld();
    EntryId id = 0;
    if (!ParseEntryKey(key, &id)) {
      return Status::OK();
    }
    if (id != c->entries_.size()) {
      return Status::Corruption(StringPrintf(
          "entry ids in the log are not dense: expected %zu, found %u",
          c->entries_.size(), id));
    }
    AUTHIDX_ASSIGN_OR_RETURN(Entry entry, DecodeEntryExact(value));
    c->IndexEntry(std::move(entry));
    return Status::OK();
  };
  {
    // Exclusive for the whole rebuild: nothing else can reference the
    // catalog yet, but IndexEntry's contract (REQUIRES(index_mu_)) is
    // uniform whether it runs under recovery or a live Add.
    WriterMutexLock lock(c->index_mu_);
    AUTHIDX_ASSIGN_OR_RETURN(
        c->engine_, storage::StorageEngine::Open(dir, options, &rebuild));
  }
  const uint64_t duration_ns = obs::MonotonicNowNs() - start_ns;
  catalog->rebuild_ns_->Record(duration_ns);
  catalog->log_->Log(obs::LogLevel::kInfo, "catalog_ready",
                     {{"entries", catalog->entry_count()},
                      {"bytes_replayed",
                       catalog->engine_->stats().wal_replayed_bytes},
                      {"duration_ns", duration_ns}});
  return catalog;
}

Result<std::unique_ptr<AuthorIndex>> AuthorIndex::OpenReplica(
    const std::string& dir, storage::EngineOptions options) {
  options.apply_only = true;
  // A follower acks nothing to clients, but its durable position must
  // never run ahead of its WAL: synced applies keep the
  // "position committed after data" invariant cheap to reason about.
  options.sync_writes = true;
  AUTHIDX_ASSIGN_OR_RETURN(std::unique_ptr<AuthorIndex> catalog,
                           OpenPersistent(dir, options));
  catalog->is_replica_ = true;
  return catalog;
}

Status AuthorIndex::ApplyReplicatedRecord(std::string_view record) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition(
        "in-memory catalog cannot apply replicated records");
  }
  // Decode outside the lock: collect the entry puts the record carries.
  struct PendingEntry {
    EntryId id;
    std::string_view value;  // Aliases `record`.
    Entry entry;
  };
  std::vector<PendingEntry> pending;
  size_t ops = 0;
  Status parsed = storage::ForEachRecordOp(
      record, [&](std::string_view key, std::string_view value) -> Status {
        ++ops;
        EntryId id = 0;
        if (!ParseEntryKey(key, &id)) {
          return Status::OK();  // Not an entry: nothing to index.
        }
        Result<Entry> entry = DecodeEntryExact(value);
        if (!entry.ok()) {
          return entry.status().WithContext("decoding replicated entry");
        }
        pending.push_back({id, value, std::move(entry).value()});
        return Status::OK();
      });
  AUTHIDX_RETURN_NOT_OK(parsed);

  WriterMutexLock lock(index_mu_);
  // Entries below next_id are duplicates: a re-delivery after a
  // follower crash, possibly of half a record. The rest must continue
  // the ids densely — checked before anything reaches the log, which
  // the next open replays and requires dense.
  const EntryId next_id = static_cast<EntryId>(entries_.size());
  size_t fresh = 0;
  for (const PendingEntry& p : pending) {
    if (p.id < next_id) {
      continue;
    }
    if (p.id != next_id + fresh) {
      return Status::Corruption(
          "replicated record carries a non-dense entry id");
    }
    ++fresh;
  }
  if (fresh == 0) {
    return Status::OK();  // Everything already durable and indexed.
  }
  if (fresh == ops) {
    AUTHIDX_RETURN_NOT_OK(engine_->ApplyReplicated(record));
  } else {
    // Keep only the new entries, so the follower's log stays dense.
    storage::WriteBatch batch;
    for (const PendingEntry& p : pending) {
      if (p.id >= next_id) {
        batch.Put(EntryKey(p.id), p.value);
      }
    }
    AUTHIDX_RETURN_NOT_OK(
        engine_->ApplyReplicated(storage::kWalBatch + batch.rep()));
  }
  for (PendingEntry& p : pending) {
    if (p.id >= next_id) {
      IndexEntry(std::move(p.entry));
    }
  }
  // Follower reads must never serve pre-apply cached results.
  data_epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

EntryId AuthorIndex::IndexEntry(Entry entry) {
  EntryId id = static_cast<EntryId>(entries_.size());

  std::string group_key = entry.author.GroupKey();
  std::string sort_key = text::MakeSortKey(group_key);

  // Author groups (exact, prefix, surname, phonetic surfaces, printed
  // order).
  auto [found, inserted] = group_by_folded_.try_emplace(
      text::NormalizeForIndex(group_key), groups_.size());
  const size_t group_idx = found->second;
  if (inserted) {
    GroupRecord group;
    group.display = group_key;
    group.sort_key = sort_key;
    group.folded_surname = text::NormalizeForIndex(entry.author.surname);
    group.folded_code = text::Metaphone(group.folded_surname);
    groups_by_surname_[group.folded_surname].push_back(group_idx);
    groups_by_phonetic_[text::Metaphone(entry.author.surname)].push_back(
        group_idx);
    groups_.push_back(std::move(group));
  }
  groups_[group_idx].entries.push_back(id);

  // Title index.
  inverted_.AddDocument(id, text::Tokenize(entry.title));

  const std::string_view key = sort_keys_.CopyString(sort_key);
  const Citation& citation = entry.citation;
  rows_.push_back(query::EntryRow{text::SortKeyPrefix(key), key,
                                  citation.volume, citation.page,
                                  citation.year, id,
                                  entry.author.student_material});
  entries_.push_back(std::move(entry));
  return id;
}

Result<EntryId> AuthorIndex::Add(Entry entry) {
  AUTHIDX_RETURN_NOT_OK(ValidateEntry(entry));
  // Exclusive: id assignment, the durable write, and index maintenance
  // must be one atomic step or concurrent Adds could interleave ids.
  WriterMutexLock lock(index_mu_);
  EntryId id = static_cast<EntryId>(entries_.size());
  if (engine_ != nullptr) {
    AUTHIDX_RETURN_NOT_OK(
        engine_->Put(EntryKey(id), EncodeEntryToString(entry)));
  }
  id = IndexEntry(std::move(entry));
  data_epoch_.fetch_add(1, std::memory_order_release);
  return id;
}

Status AuthorIndex::AddAll(std::vector<Entry> entries) {
  // Validate everything first so a bad entry cannot leave a partially
  // ingested batch.
  for (const Entry& entry : entries) {
    AUTHIDX_RETURN_NOT_OK(ValidateEntry(entry));
  }
  WriterMutexLock lock(index_mu_);
  if (engine_ != nullptr) {
    // One atomic storage batch per AddAll: amortizes WAL framing/syncs
    // and recovers all-or-nothing (bench_ingest BM_AblateBatchIngest).
    storage::WriteBatch batch;
    EntryId id = static_cast<EntryId>(entries_.size());
    for (const Entry& entry : entries) {
      batch.Put(EntryKey(id++), EncodeEntryToString(entry));
    }
    AUTHIDX_RETURN_NOT_OK(engine_->Apply(batch));
  }
  for (Entry& entry : entries) {
    IndexEntry(std::move(entry));
  }
  if (!entries.empty()) {
    data_epoch_.fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
}

Result<query::QueryResult> AuthorIndex::Search(
    std::string_view query_text) const {
  return SearchTraced(query_text, nullptr);
}

Result<query::QueryResult> AuthorIndex::SearchTraced(
    std::string_view query_text, obs::Trace* trace) const {
  uint64_t threshold = slow_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == 0) {
    return SearchInternal(query_text, trace);
  }
  // Armed: trace opportunistically (into a local buffer when the caller
  // brought none) so a slow query's span tree is always available. This
  // branch may allocate — acceptable, the threshold was opted into.
  obs::Trace local_trace;
  obs::Trace* capture = trace != nullptr ? trace : &local_trace;
  uint64_t start_ns = obs::MonotonicNowNs();
  Result<query::QueryResult> result = SearchInternal(query_text, capture);
  uint64_t duration_ns = obs::MonotonicNowNs() - start_ns;
  if (duration_ns >= threshold) {
    RecordSlowQuery(query_text, duration_ns, *capture, result);
  }
  return result;
}

Result<query::QueryResult> AuthorIndex::SearchInternal(
    std::string_view query_text, obs::Trace* trace) const {
  obs::TraceSpan root(trace, nullptr, "query");
  query::Query q;
  {
    obs::TraceSpan span(trace, nullptr, "parse");
    AUTHIDX_ASSIGN_OR_RETURN(q, query::ParseQuery(query_text));
  }
  return RunTraced(q, trace);
}

void AuthorIndex::RecordSlowQuery(
    std::string_view query_text, uint64_t duration_ns,
    const obs::Trace& trace,
    const Result<query::QueryResult>& result) const {
  slow_queries_total_->Inc();
  obs::SlowQueryEntry entry;
  entry.unix_ms = obs::WallUnixMillis();
  entry.duration_ns = duration_ns;
  if (!trace.trace_id().IsZero()) {
    entry.trace_id = trace.trace_id().ToHex();
  }
  entry.query = std::string(query_text);
  entry.plan = result.ok()
                   ? std::string(query::PlanKindToString(result->plan))
                   : "error: " + result.status().message();
  entry.spans = trace.spans();
  log_->Log(obs::LogLevel::kWarn, "slow_query",
            {{"trace_id", entry.trace_id},
             {"query", entry.query},
             {"plan", entry.plan},
             {"duration_ns", duration_ns},
             {"spans", static_cast<uint64_t>(entry.spans.size())}});
  slowlog_->Record(std::move(entry));
}

void AuthorIndex::SetSlowQueryThreshold(uint64_t threshold_ns) {
  slow_threshold_ns_.store(threshold_ns, std::memory_order_relaxed);
}

std::vector<obs::SlowQueryEntry> AuthorIndex::SlowQueries() const {
  return slowlog_->Snapshot();
}

void AuthorIndex::SetLogger(obs::Logger* logger) {
  log_ = logger != nullptr ? logger : obs::Logger::Disabled();
}

Result<query::QueryResult> AuthorIndex::Run(const query::Query& q) const {
  uint64_t threshold = slow_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == 0) {
    return RunTraced(q, nullptr);
  }
  // Armed: same capture envelope as SearchTraced, so pre-parsed queries
  // show up in the slow-query log too (reconstructed via ToString()).
  obs::Trace local_trace;
  uint64_t start_ns = obs::MonotonicNowNs();
  Result<query::QueryResult> result = RunTraced(q, &local_trace);
  uint64_t duration_ns = obs::MonotonicNowNs() - start_ns;
  if (duration_ns >= threshold) {
    RecordSlowQuery(q.ToString(), duration_ns, local_trace, result);
  }
  return result;
}

// Pre-locked CatalogView the query entry points hand to the executor:
// RunTraced already holds index_mu_ shared for the whole plan+execute
// pass, so the callbacks must not re-acquire it (recursive shared
// locking is UB and can deadlock against a queued writer). The analysis
// cannot see that invariant across the executor's virtual calls, so
// every callback re-states it with AssertReaderHeld() — a no-op at
// runtime that re-establishes the shared capability for the checker.
class AuthorIndex::RawView final : public query::CatalogView {
 public:
  explicit RawView(const AuthorIndex& index)
      AUTHIDX_REQUIRES_SHARED(index.index_mu_)
      : index_(index) {}

  const Entry* GetEntry(EntryId id) const override {
    index_.index_mu_.AssertReaderHeld();
    return index_.GetEntryUnlocked(id);
  }
  size_t entry_count() const override {
    index_.index_mu_.AssertReaderHeld();
    return index_.entries_.size();
  }
  const InvertedIndex& title_index() const override {
    index_.index_mu_.AssertReaderHeld();
    return index_.inverted_;
  }
  std::vector<EntryId> AuthorExact(
      std::string_view folded_group) const override {
    index_.index_mu_.AssertReaderHeld();
    return index_.AuthorExactUnlocked(folded_group);
  }
  std::vector<EntryId> AuthorPrefix(
      std::string_view folded_prefix) const override {
    index_.index_mu_.AssertReaderHeld();
    return index_.AuthorPrefixUnlocked(folded_prefix);
  }
  std::vector<EntryId> AuthorFuzzy(std::string_view folded_name,
                                   size_t max_edits) const override {
    index_.index_mu_.AssertReaderHeld();
    return index_.AuthorFuzzyUnlocked(folded_name, max_edits);
  }
  void FillRows(const std::vector<EntryId>& ids,
                std::vector<query::EntryRow>* rows) const override {
    index_.index_mu_.AssertReaderHeld();
    index_.FillRowsUnlocked(ids, rows);
  }

 private:
  const AuthorIndex& index_;
};

Result<query::QueryResult> AuthorIndex::RunTraced(const query::Query& q,
                                                  obs::Trace* trace) const {
  queries_total_->Inc();
  obs::TraceSpan span(trace, query_ns_, "execute");
  if (result_cache_ == nullptr) {
    return RunUncached(q, trace);
  }
  const std::string key = ResultCache::KeyFor(q);
  // Epoch read BEFORE execution, epoch bumps happen inside exclusive
  // mutation sections: an ingest racing with this query can only make
  // the inserted entry immediately stale (a harmless extra miss), never
  // mark post-ingest data with a pre-ingest epoch.
  const uint64_t epoch = data_epoch_.load(std::memory_order_acquire);
  {
    obs::TraceSpan probe(trace, nullptr, "cache_probe");
    std::optional<query::QueryResult> hit = result_cache_->Probe(key, epoch);
    if (trace != nullptr) {
      // Zero-duration marker child recording the probe outcome, so
      // /tracez and remote --trace show where a hit short-circuited.
      size_t marker =
          trace->StartSpan(hit.has_value() ? "cache_hit" : "cache_miss");
      trace->EndSpan(marker, 0);
    }
    if (hit.has_value()) {
      return std::move(*hit);
    }
  }
  Result<query::QueryResult> result = RunUncached(q, trace);
  if (result.ok()) {
    result_cache_->Insert(key, epoch, *result);
  }
  return result;
}

Result<query::QueryResult> AuthorIndex::RunUncached(const query::Query& q,
                                                    obs::Trace* trace) const {
  query::ExecObs hooks = exec_obs_;
  hooks.trace = trace;
  // Shared for the whole plan+execute pass: the executor's CatalogView
  // callbacks (and the index structures they walk) see one consistent
  // catalog while ingests are excluded.
  ReaderMutexLock lock(index_mu_);
  RawView view(*this);
  return query::Execute(q, view, &hooks);
}

void AuthorIndex::EnableResultCache(size_t capacity_bytes) {
  if (capacity_bytes == 0) {
    result_cache_.reset();
    return;
  }
  result_cache_ = std::make_unique<ResultCache>(capacity_bytes);
  ResultCache::Instruments instruments;
  instruments.hits = metrics_->RegisterCounter(
      "authidx_result_cache_hits_total", "Result-cache probes that hit");
  instruments.misses = metrics_->RegisterCounter(
      "authidx_result_cache_misses_total", "Result-cache probes that missed");
  instruments.evictions = metrics_->RegisterCounter(
      "authidx_result_cache_evictions_total",
      "Result-cache entries evicted by capacity pressure");
  instruments.invalidations = metrics_->RegisterCounter(
      "authidx_result_cache_invalidations_total",
      "Result-cache entries dropped because the data epoch moved");
  instruments.bytes = metrics_->RegisterGauge(
      "authidx_result_cache_bytes", "Bytes currently charged to the cache");
  result_cache_->BindMetrics(instruments);
}

obs::MetricsSnapshot AuthorIndex::GetMetricsSnapshot() const {
  return metrics_->Snapshot();
}

const Entry* AuthorIndex::GetEntry(EntryId id) const {
  ReaderMutexLock lock(index_mu_);
  return GetEntryUnlocked(id);
}

size_t AuthorIndex::entry_count() const {
  ReaderMutexLock lock(index_mu_);
  return entries_.size();
}

std::vector<EntryId> AuthorIndex::AuthorExact(
    std::string_view folded_group) const {
  ReaderMutexLock lock(index_mu_);
  return AuthorExactUnlocked(folded_group);
}

std::vector<EntryId> AuthorIndex::AuthorPrefix(
    std::string_view folded_prefix) const {
  ReaderMutexLock lock(index_mu_);
  return AuthorPrefixUnlocked(folded_prefix);
}

std::vector<EntryId> AuthorIndex::AuthorFuzzy(std::string_view folded_name,
                                              size_t max_edits) const {
  ReaderMutexLock lock(index_mu_);
  return AuthorFuzzyUnlocked(folded_name, max_edits);
}

std::string_view AuthorIndex::SortKey(EntryId id) const {
  ReaderMutexLock lock(index_mu_);
  return id < rows_.size() ? rows_[id].sort_key : std::string_view();
}

void AuthorIndex::FillRows(const std::vector<EntryId>& ids,
                           std::vector<query::EntryRow>* rows) const {
  ReaderMutexLock lock(index_mu_);
  FillRowsUnlocked(ids, rows);
}

const Entry* AuthorIndex::GetEntryUnlocked(EntryId id) const {
  return id < entries_.size() ? &entries_[id] : nullptr;
}

std::vector<EntryId> AuthorIndex::AuthorExactUnlocked(
    std::string_view folded_group) const {
  std::vector<EntryId> out;
  auto it = group_by_folded_.find(folded_group);
  if (it != group_by_folded_.end()) {
    out = groups_[it->second].entries;
  } else {
    // Fall back to surname-only match: "author:minow" should find
    // "Minow, Martha".
    auto surname_it = groups_by_surname_.find(std::string(folded_group));
    if (surname_it != groups_by_surname_.end()) {
      for (size_t group_idx : surname_it->second) {
        const auto& entries = groups_[group_idx].entries;
        out.insert(out.end(), entries.begin(), entries.end());
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EntryId> AuthorIndex::AuthorPrefixUnlocked(
    std::string_view folded_prefix) const {
  std::vector<EntryId> out;
  for (auto it = group_by_folded_.lower_bound(folded_prefix);
       it != group_by_folded_.end() && it->first.starts_with(folded_prefix);
       ++it) {
    const auto& entries = groups_[it->second].entries;
    out.insert(out.end(), entries.begin(), entries.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<EntryId> AuthorIndex::AuthorFuzzyUnlocked(
    std::string_view folded_name, size_t max_edits) const {
  // Phonetic bucket prefilter, then exact bounded edit distance on the
  // folded surname. Also probe the Soundex-distinct-but-close cases by
  // scanning the candidate's own bucket only — a deliberate recall
  // trade-off measured in bench_fuzzy.
  std::vector<EntryId> out;
  std::string code = text::Metaphone(folded_name);
  auto bucket = groups_by_phonetic_.find(code);
  if (bucket != groups_by_phonetic_.end()) {
    for (size_t group_idx : bucket->second) {
      const GroupRecord& group = groups_[group_idx];
      if (text::WithinEditDistance(group.folded_surname, folded_name,
                                   max_edits)) {
        out.insert(out.end(), group.entries.begin(), group.entries.end());
      }
    }
  }
  // Surnames at distance <= max_edits can still land in another bucket;
  // catch the common first-letter-preserved cases by walking the groups
  // whose key starts with the same first byte. Groups of one surname sit
  // next to each other in key order, so the distance is computed once
  // per run of groups sharing a folded surname.
  if (!folded_name.empty()) {
    const std::string_view first = folded_name.substr(0, 1);
    const std::string* run_surname = nullptr;
    bool run_within = false;
    for (auto it = group_by_folded_.lower_bound(first);
         it != group_by_folded_.end() && it->first.starts_with(first); ++it) {
      const GroupRecord& group = groups_[it->second];
      if (group.folded_code == code) {
        continue;  // Already considered above.
      }
      if (run_surname == nullptr || *run_surname != group.folded_surname) {
        run_surname = &group.folded_surname;
        run_within = text::WithinEditDistance(group.folded_surname,
                                              folded_name, max_edits);
      }
      if (run_within) {
        out.insert(out.end(), group.entries.begin(), group.entries.end());
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void AuthorIndex::FillRowsUnlocked(const std::vector<EntryId>& ids,
                                   std::vector<query::EntryRow>* rows) const {
  rows->clear();
  rows->reserve(ids.size());
  for (EntryId id : ids) {
    if (id < rows_.size()) {
      rows->push_back(rows_[id]);
    }
  }
}

size_t AuthorIndex::group_count() const {
  ReaderMutexLock lock(index_mu_);
  return groups_.size();
}

std::vector<AuthorIndex::Group> AuthorIndex::GroupsInOrder() const {
  ReaderMutexLock lock(index_mu_);
  // Groups in collation order of their first-seen display form.
  std::vector<size_t> order(groups_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    index_mu_.AssertReaderHeld();
    return std::tie(groups_[a].sort_key, a) < std::tie(groups_[b].sort_key, b);
  });
  std::vector<Group> out;
  out.reserve(order.size());
  for (size_t group_idx : order) {
    const GroupRecord& record = groups_[group_idx];
    Group& group = out.emplace_back(Group{record.display, record.entries});
    // Within a group, order by (volume, page) as the printed index does.
    std::sort(group.entries.begin(), group.entries.end(),
              [&](EntryId a, EntryId b) {
                // Lambda bodies are analyzed standalone; re-state the
                // shared lock held by the enclosing scope.
                index_mu_.AssertReaderHeld();
                const Citation& ca = entries_[a].citation;
                const Citation& cb = entries_[b].citation;
                if (ca.volume != cb.volume) return ca.volume < cb.volume;
                if (ca.page != cb.page) return ca.page < cb.page;
                return a < b;
              });
  }
  return out;
}

std::vector<std::string> AuthorIndex::CoauthorsOf(
    std::string_view folded_group) const {
  ReaderMutexLock lock(index_mu_);
  std::vector<std::string> out;
  auto it = group_by_folded_.find(folded_group);
  if (it == group_by_folded_.end()) {
    return out;
  }
  for (EntryId id : groups_[it->second].entries) {
    for (const std::string& coauthor : entries_[id].coauthors) {
      out.push_back(coauthor);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status AuthorIndex::Flush() {
  // No epoch bump: a flush makes already-indexed entries durable and
  // changes no query result, so cached results stay valid.
  return engine_ != nullptr ? engine_->Flush() : Status::OK();
}

Status AuthorIndex::CompactStorage() { return Flush(); }

storage::EngineStats AuthorIndex::StorageStats() const {
  return engine_ != nullptr ? engine_->stats() : storage::EngineStats{};
}

Status AuthorIndex::StorageBackgroundError() const {
  return engine_ != nullptr ? engine_->background_error() : Status::OK();
}

bool AuthorIndex::StorageDegraded() const {
  return engine_ != nullptr && engine_->degraded();
}

Status AuthorIndex::VerifyStorageIntegrity() {
  return engine_ != nullptr ? engine_->VerifyIntegrity() : Status::OK();
}

}  // namespace authidx::core
