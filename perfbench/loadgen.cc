// perfbench_loadgen — end-to-end serving benchmark against a real
// authidx_server child process (README.md describes the workloads and
// every metric).
//
//   perfbench_loadgen --workload read_mix|repeat_cached|ingest_read
//                    --seed N --seconds S --trace 0|1
//                    --server PATH --workdir DIR [--provenance JSON]
//
// One run: prepare the catalog from the benchmark corpus, open a copy
// in-process (the answer checker's reference), start the server several
// times to measure set-up, drive the timed window from closed-loop
// net::Client connections, run the write phase, check the answers, and
// print a report ("# " lines) followed by one JSON result line. With
// --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, taken from traced requests, /metrics
// deltas and in-process timings of layer functions.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "authidx/core/author_index.h"
#include "authidx/net/client.h"
#include "authidx/net/protocol.h"
#include "authidx/parse/tsv.h"
#include "authidx/query/planner.h"
#include "authidx/text/collate.h"
#include "authidx/text/normalize.h"
#include "authidx/text/tokenize.h"
#include "authidx/workload/corpus.h"
#include "lib.h"
#include "proc.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {
namespace {

using authidx::Result;
using authidx::Status;
using authidx::net::WireQueryResult;
using authidx::obs::MonotonicNowNs;
using authidx::obs::Trace;

// The B9 corpus: 100 k entries by 8 k authors, default corpus seed.
constexpr size_t kCatalogEntries = 100000;
constexpr size_t kAuthors = 8000;
// Entries beyond the catalog that the ADD stream draws from.
constexpr size_t kPoolEntries = 200000;
constexpr size_t kAddBatch = 64;
// Set-up is measured this many times per run; the median is reported.
constexpr int kSetupRepeats = 5;
// Write phase of read_mix and repeat_cached: ADD batches for this long
// after the read window, with no concurrent reads. Bounded by time, not
// count, so a slow host cannot stretch the run.
constexpr uint64_t kWritePhaseNs = 6000000000;
// Rates and medians are taken per sub-window; the median of those is
// reported, so a slow spell on the host moves them less.
constexpr int kSubWindows = 10;
// Responses sampled for the answer checker: one in kSampleOneIn.
constexpr uint64_t kSampleOneIn = 8;
// Distinct query texts repeat_cached draws from.
constexpr size_t kWorkingSet = 256;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string provenance = "{}";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--provenance") {
      args->provenance = value;
    } else {
      return false;
    }
  }
  return (args->workload == "read_mix" || args->workload == "repeat_cached" ||
          args->workload == "ingest_read") &&
         args->seconds > 0 && !args->server.empty() && !args->workdir.empty();
}

// A derived seed, so each stream of a run is independent.
uint64_t SubSeed(uint64_t seed, std::string_view salt) {
  return Fnv1a(salt, Fnv1a(std::to_string(seed)));
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));
void Note(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  std::fputs("# ", stdout);
  std::vprintf(format, ap);
  std::fputc('\n', stdout);
  va_end(ap);
}

authidx::net::ClientOptions ClientFor(int port, bool trace) {
  authidx::net::ClientOptions options;
  options.port = port;
  // A shed or failed request must surface as a failure, not a retry.
  options.retry.max_attempts = 1;
  options.io_timeout_ms = 60000;
  options.trace = trace;
  return options;
}

// ---------------------------------------------------------------------------
// Load generation.

struct TracedRequest {
  int shape = -1;  // -1 for ADD.
  uint64_t rtt_ns = 0;
  uint64_t entries = 0;  // ADD batch size.
  std::vector<Trace::Span> spans;
};

struct Sample {
  QuerySpec spec;
  WireQueryResult result;
};

struct ReadLog {
  std::vector<double> ms;  // Untraced successful round trips.
  std::vector<int> shape;         // Parallel to ms.
  std::vector<uint64_t> done_ns;  // Parallel to ms: completion times.
  std::vector<TracedRequest> traced;
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t matches = 0;
  uint64_t hits = 0;
};

// One closed-loop connection: the next query goes out when the previous
// answer is back. With `alternate_trace`, even requests go through an
// untraced client and odd ones through a traced client.
void RunReader(int port, bool alternate_trace, uint64_t deadline_ns,
               const std::function<QuerySpec()>& next, uint64_t sample_seed,
               ReadLog* log) {
  authidx::net::Client plain(ClientFor(port, false));
  authidx::net::Client traced(ClientFor(port, true));
  authidx::Random sampler(sample_seed);
  for (uint64_t i = 0; MonotonicNowNs() < deadline_ns; ++i) {
    QuerySpec spec = next();
    bool use_trace = alternate_trace && (i % 2 == 1);
    authidx::net::Client& client = use_trace ? traced : plain;
    uint64_t start = MonotonicNowNs();
    Result<WireQueryResult> result = client.Query(spec.text);
    uint64_t rtt = MonotonicNowNs() - start;
    ++log->attempted;
    if (!result.ok()) {
      ++log->failed;
      continue;
    }
    log->matches += result->total_matches;
    log->hits += result->hits.size();
    if (use_trace) {
      TracedRequest request;
      request.shape = static_cast<int>(spec.shape);
      request.rtt_ns = rtt;
      request.spans = client.last_trace().spans;
      log->traced.push_back(std::move(request));
    } else {
      log->ms.push_back(Ms(rtt));
      log->shape.push_back(static_cast<int>(spec.shape));
      log->done_ns.push_back(start + rtt);
    }
    if (sampler.OneIn(kSampleOneIn) && log->samples.size() < 1024) {
      log->samples.push_back({std::move(spec), std::move(result).value()});
    }
  }
}

struct WriteLog {
  std::vector<double> ms;
  std::vector<uint64_t> done_ns;  // Parallel to ms: completion times.
  std::vector<TracedRequest> traced;
  std::vector<size_t> acked_batches;  // Batch numbers, in ack order.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t acked_entries = 0;
  uint64_t user_bytes = 0;  // TSV bytes (with newline) of acked lines.
  size_t next_batch = 0;    // Stream position the next write sends.
};

// One closed-loop writer: the next ADD batches of `stream` until the
// deadline.
void RunWriter(int port, bool trace, uint64_t deadline_ns,
               const AddStream& stream, WriteLog* log) {
  authidx::net::Client client(ClientFor(port, trace));
  while (MonotonicNowNs() < deadline_ns) {
    size_t k = log->next_batch++;
    std::vector<std::string> lines = stream.Batch(k);
    uint64_t start = MonotonicNowNs();
    Result<uint64_t> added = client.Add(lines);
    uint64_t rtt = MonotonicNowNs() - start;
    ++log->attempted;
    if (!added.ok() || *added != lines.size()) {
      ++log->failed;
    } else {
      log->ms.push_back(Ms(rtt));
      log->done_ns.push_back(start + rtt);
      log->acked_batches.push_back(k);
      log->acked_entries += *added;
      for (const std::string& line : lines) {
        log->user_bytes += line.size() + 1;
      }
      if (trace) {
        TracedRequest request;
        request.rtt_ns = rtt;
        request.entries = *added;
        request.spans = client.last_trace().spans;
        log->traced.push_back(std::move(request));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics plumbing.

using Series = std::map<std::string, double>;

Result<Series> Scrape(int http_port) {
  AUTHIDX_ASSIGN_OR_RETURN(std::string text, HttpGet(http_port, "/metrics"));
  return ParsePrometheusText(text);
}

double Get(const Series& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

double Delta(const Series& a, const Series& b, const std::string& name) {
  return Get(b, name) - Get(a, name);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Mean of a histogram over a scrape interval, in the histogram's unit.
double HistMean(const Series& a, const Series& b, const std::string& name) {
  return Ratio(Delta(a, b, name + "_sum"), Delta(a, b, name + "_count"));
}

// /metrics scraped around the read window and around the write phase.
struct Scrapes {
  Series window_begin;
  Series window_end;
  Series write_begin;
  Series write_end;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// TSV bytes, newline included, of `entries`: the user bytes they are.
uint64_t TsvBytes(const std::vector<Entry>& entries) {
  uint64_t bytes = 0;
  for (const Entry& entry : entries) {
    bytes += authidx::EntryToTsvLine(entry).size() + 1;
  }
  return bytes;
}

// Mean us per call of `fn` over `items`, median of three passes. The
// timed calls are out-of-line library functions that allocate, so the
// compiler cannot drop them.
template <typename T, typename Fn>
double TimePerItemUs(const std::vector<T>& items, Fn fn) {
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    uint64_t start = MonotonicNowNs();
    for (const T& item : items) {
      fn(item);
    }
    passes.push_back(Us(MonotonicNowNs() - start) /
                     static_cast<double>(std::max<size_t>(items.size(), 1)));
  }
  return Median(passes);
}

// Mean us of one result-cache hit, timed in-process: the run's sampled
// results go into a core::ResultCache of the server's size, and each is
// probed back (the server's cache_probe span covers exactly this call).
double CacheProbeUs(const std::vector<ReadLog>& reads) {
  authidx::core::ResultCache cache(8 * 1024 * 1024);
  std::vector<std::string> keys;
  for (const ReadLog& log : reads) {
    for (const Sample& sample : log.samples) {
      Result<authidx::query::Query> query =
          authidx::query::ParseQuery(sample.spec.text);
      if (!query.ok()) {
        continue;
      }
      authidx::query::QueryResult result;
      result.total_matches = sample.result.total_matches;
      for (const auto& hit : sample.result.hits) {
        result.hits.push_back({hit.id, hit.score});
      }
      keys.push_back(query->ToString());
      cache.Insert(keys.back(), 1, result);
    }
  }
  return TimePerItemUs(keys, [&cache](const std::string& key) {
    return cache.Probe(key, 1).has_value();
  });
}

// Latency-budget rows keyed by span path, in the order first seen.
struct Budget {
  std::vector<std::string> order;
  std::map<std::string, double> sum_ns;
  double rtt_minus_server_ns = 0;
  size_t requests = 0;

  void Add(const TracedRequest& request) {
    std::vector<uint64_t> self = SelfTimes(request.spans);
    std::vector<std::string> paths = SpanPaths(request.spans);
    for (size_t i = 0; i < paths.size(); ++i) {
      if (!sum_ns.count(paths[i])) {
        order.push_back(paths[i]);
      }
      sum_ns[paths[i]] += static_cast<double>(self[i]);
    }
    uint64_t root = request.spans.empty() ? 0 : request.spans[0].duration_ns;
    rtt_minus_server_ns += static_cast<double>(request.rtt_ns) -
                           static_cast<double>(root);
    ++requests;
  }
  double MeanUs(const std::string& path) const {
    auto it = sum_ns.find(path);
    return it == sum_ns.end() || requests == 0
               ? 0.0
               : it->second / 1e3 / static_cast<double>(requests);
  }
};

// ---------------------------------------------------------------------------
// The run.

class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)) {}

  // Returns the process exit code.
  int Main();

 private:
  Status Prepare();
  Result<std::unique_ptr<ServerProcess>> StartServer(bool cache,
                                                     double* setup_s);
  Status Replay(std::vector<Metric>* layer);
  Status LayerMetrics(const std::vector<ReadLog>& reads,
                      const WriteLog& writes, const Scrapes& scrapes,
                      std::vector<Metric>* metrics);
  void CheckSamples(const std::vector<ReadLog>& logs);
  void CheckAcked(int port, const WriteLog& writes, uint64_t id_base);
  std::vector<std::string> ServerArgs(bool cache) const;
  uint64_t StreamHash(int readers) const;
  std::function<QuerySpec()> ReaderStream(int conn,
                                          std::string_view salt) const;

  Args args_;
  std::vector<Entry> catalog_entries_;
  std::vector<Entry> pool_;  // Further entries the ADD stream sends.
  std::vector<QuerySpec> working_set_;
  std::string prepared_dir_;
  double add_all_entries_per_s_ = 0;
  double open_persistent_s_ = 0;
  std::unique_ptr<authidx::core::AuthorIndex> reference_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checked_ = 0;
  int server_count_ = 0;
};

std::vector<std::string> Run::ServerArgs(bool cache) const {
  std::vector<std::string> args = {"--port", "0", "--http-port", "0",
                                   "--workers", "2", "--log-level", "warn"};
  if (cache) {
    args.insert(args.end(), {"--result-cache-mb", "8"});
  }
  return args;
}

Status Run::Prepare() {
  authidx::workload::CorpusOptions options;
  options.entries = kCatalogEntries + kPoolEntries;
  options.authors = kAuthors;
  std::vector<Entry> corpus = authidx::workload::GenerateCorpus(options);
  auto split = corpus.begin() + kCatalogEntries;
  catalog_entries_.assign(std::make_move_iterator(corpus.begin()),
                          std::make_move_iterator(split));
  pool_.assign(std::make_move_iterator(split),
               std::make_move_iterator(corpus.end()));

  prepared_dir_ = args_.workdir + "/prepared";
  std::error_code ec;
  std::filesystem::remove_all(prepared_dir_, ec);
  {
    AUTHIDX_ASSIGN_OR_RETURN(
        std::unique_ptr<authidx::core::AuthorIndex> catalog,
        authidx::core::AuthorIndex::OpenPersistent(prepared_dir_));
    uint64_t start = MonotonicNowNs();
    AUTHIDX_RETURN_NOT_OK(catalog->AddAll(catalog_entries_));
    add_all_entries_per_s_ = static_cast<double>(kCatalogEntries) /
                             Seconds(MonotonicNowNs() - start);
    AUTHIDX_RETURN_NOT_OK(catalog->Flush());
    AUTHIDX_RETURN_NOT_OK(catalog->CompactStorage());
  }
  // The checker's reference: the same catalog opened in-process with
  // the result cache off.
  std::string reference_dir = args_.workdir + "/reference";
  AUTHIDX_RETURN_NOT_OK(CopyDir(prepared_dir_, reference_dir));
  uint64_t start = MonotonicNowNs();
  AUTHIDX_ASSIGN_OR_RETURN(
      reference_, authidx::core::AuthorIndex::OpenPersistent(reference_dir));
  open_persistent_s_ = Seconds(MonotonicNowNs() - start);
  if (args_.workload == "repeat_cached") {
    working_set_ = DistinctQueries(catalog_entries_,
                                   SubSeed(args_.seed, "working_set"),
                                   kWorkingSet);
  }
  return Status::OK();
}

// Starts a server on a fresh copy of the prepared catalog; `*setup_s`
// receives the time from spawn to the first successful QUERY answer.
Result<std::unique_ptr<ServerProcess>> Run::StartServer(bool cache,
                                                        double* setup_s) {
  std::string db = args_.workdir + "/db" + std::to_string(server_count_++);
  AUTHIDX_RETURN_NOT_OK(CopyDir(prepared_dir_, db));
  std::vector<std::string> argv = {"--db", db};
  for (std::string& arg : ServerArgs(cache)) {
    argv.push_back(std::move(arg));
  }
  uint64_t start = MonotonicNowNs();
  AUTHIDX_ASSIGN_OR_RETURN(
      std::unique_ptr<ServerProcess> server,
      ServerProcess::Start(args_.server, argv,
                           args_.workdir + "/server.log"));
  authidx::net::Client client(ClientFor(server->rpc_port(), false));
  AUTHIDX_RETURN_NOT_OK(client.Query("author:smith limit:1").status());
  *setup_s = Seconds(MonotonicNowNs() - start);
  return server;
}

std::function<QuerySpec()> Run::ReaderStream(int conn,
                                             std::string_view salt) const {
  std::string tag = std::string(salt) + "/" + std::to_string(conn);
  if (args_.workload == "repeat_cached") {
    auto cycle = std::make_shared<ShuffledCycle>(working_set_.size(),
                                                 SubSeed(args_.seed, tag));
    return [this, cycle] { return working_set_[cycle->Next()]; };
  }
  auto generator = std::make_shared<QueryGenerator>(
      catalog_entries_, SubSeed(args_.seed, tag));
  return [generator] { return generator->Next(); };
}

uint64_t Run::StreamHash(int readers) const {
  uint64_t hash = Fnv1a(args_.workload);
  for (int conn = 0; conn < readers; ++conn) {
    std::function<QuerySpec()> next = ReaderStream(conn, "window");
    for (int i = 0; i < 2048; ++i) {
      hash = Fnv1a(next().text, hash);
    }
  }
  AddStream adds(pool_, args_.seed, kAddBatch);
  for (size_t k = 0; k < 32; ++k) {
    for (const std::string& line : adds.Batch(k)) {
      hash = Fnv1a(line, hash);
    }
  }
  return hash;
}

// Exact counters: two single-connection replays of one read_mix deck
// against a fresh cache-off server must move the work counters by
// exactly the same amounts. The first pass is traced, and also gives
// the executor's stage times per executed query, which every workload
// reports alike (repeat_cached executes nothing in its own window).
Status Run::Replay(std::vector<Metric>* layer) {
  double unused = 0;
  AUTHIDX_ASSIGN_OR_RETURN(std::unique_ptr<ServerProcess> server,
                           StartServer(/*cache=*/false, &unused));
  // One deck of the read_mix stream: every shape in its weighted share.
  QueryGenerator generator(catalog_entries_, SubSeed(args_.seed, "replay"));
  std::vector<std::string> texts;
  for (size_t i = 0; i < generator.deck_size(); ++i) {
    texts.push_back(generator.Next().text);
  }
  static const char* kCounters[] = {
      "authidx_inverted_postings_decoded_total",
      "authidx_postings_skipped_total",
      "authidx_btree_page_reads_total",
      "authidx_query_plan_author_exact_total",
      "authidx_query_plan_author_prefix_total",
      "authidx_query_plan_author_fuzzy_total",
      "authidx_query_plan_title_terms_total",
      "authidx_query_plan_full_scan_total",
      "authidx_query_plan_title_topk_total",
  };
  std::vector<std::vector<double>> passes;
  Budget stages;
  double trie_scan_us = 0;
  authidx::net::Client client(ClientFor(server->rpc_port(), true));
  for (int pass = 0; pass < 2; ++pass) {
    AUTHIDX_ASSIGN_OR_RETURN(Series before, Scrape(server->http_port()));
    for (const std::string& text : texts) {
      ++attempted_;
      uint64_t start = MonotonicNowNs();
      if (!client.Query(text).ok()) {
        ++failed_;
      } else if (pass == 0) {
        TracedRequest request;
        request.rtt_ns = MonotonicNowNs() - start;
        request.spans = client.last_trace().spans;
        stages.Add(request);
      }
    }
    AUTHIDX_ASSIGN_OR_RETURN(Series after, Scrape(server->http_port()));
    if (pass == 0) {
      trie_scan_us =
          HistMean(before, after, "authidx_trie_prefix_scan_duration_ns") / 1e3;
    }
    std::vector<double> deltas;
    for (const char* name : kCounters) {
      deltas.push_back(Delta(before, after, name));
    }
    passes.push_back(std::move(deltas));
  }
  ++attempted_;
  if (passes[0] != passes[1]) {
    ++failed_;
    Note("exact counters: MISMATCH between the two replays");
  } else {
    Note("exact counters: %zu-query replay repeated exactly "
         "(postings_decoded=%.0f btree_page_reads=%.0f)",
         texts.size(), passes[0][0], passes[0][2]);
  }
  const double n = static_cast<double>(texts.size());
  layer->push_back({"index.postings_decoded_per_query", passes[0][0] / n, "count"});
  layer->push_back({"index.postings_skipped_per_query", passes[0][1] / n, "count"});
  layer->push_back({"index.btree_page_reads_per_query", passes[0][2] / n, "count"});
  for (size_t kind = 0; kind < authidx::query::kPlanKindCount; ++kind) {
    std::string name(authidx::query::PlanKindToString(
        static_cast<authidx::query::PlanKind>(kind)));
    std::replace(name.begin(), name.end(), '-', '_');
    layer->push_back({"query.plan." + name, passes[0][3 + kind], "count"});
  }
  const std::string engine = "rpc/QUERY>execute>query>execute>";
  for (const char* stage :
       {"plan", "candidates", "filter", "order", "topk_prune"}) {
    layer->push_back({std::string("query.") + stage + "_us",
                      stages.MeanUs(engine + stage), "us"});
  }
  layer->push_back({"index.trie_prefix_scan_us", trie_scan_us, "us"});
  return server->Stop();
}

// Checks the sampled responses: literal shapes against the naive scan,
// the rest against the in-process reference catalog (cache off).
void Run::CheckSamples(const std::vector<ReadLog>& logs) {
  NaiveCatalog naive(catalog_entries_);
  std::map<int, uint64_t> per_shape;
  std::map<int, uint64_t> spent_ns;
  uint64_t mismatches = 0;
  for (const ReadLog& log : logs) {
    for (const Sample& sample : log.samples) {
      int shape = static_cast<int>(sample.spec.shape);
      // Bounded effort per shape: at most 40 checks or 0.3 s each.
      if (per_shape[shape] >= 40 || spent_ns[shape] > 300000000) {
        continue;
      }
      uint64_t start = MonotonicNowNs();
      std::vector<EntryId> ids;
      for (const auto& hit : sample.result.hits) {
        ids.push_back(hit.id);
      }
      bool ok = false;
      if (IsLiteralShape(sample.spec.shape)) {
        NaiveAnswer expect = naive.Evaluate(sample.spec);
        ok = expect.total_matches == sample.result.total_matches &&
             expect.ids == ids;
      } else {
        Result<authidx::query::QueryResult> expect =
            reference_->Search(sample.spec.text);
        ok = expect.ok() && expect->total_matches == sample.result.total_matches &&
             expect->hits.size() == ids.size();
        for (size_t i = 0; ok && i < ids.size(); ++i) {
          ok = expect->hits[i].id == ids[i] &&
               std::memcmp(&expect->hits[i].score,
                           &sample.result.hits[i].score, sizeof(double)) == 0;
        }
      }
      spent_ns[shape] += MonotonicNowNs() - start;
      ++per_shape[shape];
      ++checked_;
      if (!ok) {
        ++mismatches;
        Note("wrong answer: %s", sample.spec.text.c_str());
      }
    }
  }
  attempted_ += checked_;  // Re-verifications are operations too.
  failed_ += mismatches;
  std::string by_shape;
  for (const auto& [shape, count] : per_shape) {
    by_shape += " " + std::string(ShapeName(static_cast<Shape>(shape))) +
                "=" + std::to_string(count);
  }
  Note("answer checker: %" PRIu64 " sampled responses checked, %" PRIu64
       " mismatches (%s )", checked_, mismatches, by_shape.c_str());
}

// After the writes: STATS must count every acked entry, and a sample of
// acked entries must come back from an exact query under its own id.
void Run::CheckAcked(int port, const WriteLog& writes, uint64_t id_base) {
  authidx::net::Client client(ClientFor(port, false));
  AddStream stream(pool_, args_.seed, kAddBatch);
  ++attempted_;
  Result<authidx::net::WireStats> stats = client.Stats();
  uint64_t expect = id_base + writes.acked_entries;
  if (!stats.ok() || stats->entry_count != expect) {
    ++failed_;
    Note("STATS entry_count mismatch: want %" PRIu64, expect);
  }
  uint64_t found = 0;
  uint64_t lookups = 0;
  size_t step = std::max<size_t>(1, writes.acked_batches.size() / 32);
  for (size_t j = 0; j < writes.acked_batches.size(); j += step) {
    size_t i = j % kAddBatch;
    const Entry& entry =
        pool_[stream.PoolIndex(writes.acked_batches[j], i)];
    EntryId id = static_cast<EntryId>(id_base + j * kAddBatch + i);
    std::string text = "author:\"" + entry.author.GroupKey() + "\" vol:" +
                       std::to_string(entry.citation.volume) + " limit:1000";
    ++lookups;
    ++attempted_;
    Result<WireQueryResult> result = client.Query(text);
    bool ok = false;
    if (result.ok()) {
      for (const auto& hit : result->hits) {
        ok = ok || (hit.id == id && hit.title == entry.title &&
                    hit.author == entry.author.ToIndexForm() &&
                    hit.citation == entry.citation.ToString());
      }
    }
    if (ok) {
      ++found;
    } else {
      ++failed_;
      Note("acked entry %u not found by %s", id, text.c_str());
    }
  }
  checked_ += lookups;
  Note("acked entries: STATS entry_count=%" PRIu64 " (want %" PRIu64
       "), %" PRIu64 "/%" PRIu64 " sampled entries found",
       stats.ok() ? stats->entry_count : 0, expect, found, lookups);
}

// The per-layer metrics of a traced run: span self times of the traced
// requests, /metrics deltas (read window for the read path, write phase
// for storage), the exact-counter replay, and in-process timings of the
// layers' own functions.
Status Run::LayerMetrics(const std::vector<ReadLog>& reads,
                         const WriteLog& writes, const Scrapes& scrapes,
                         std::vector<Metric>* metrics) {
  const Series& wb = scrapes.window_begin;
  const Series& we = scrapes.window_end;
  const Series& sb = scrapes.write_begin;
  const Series& se = scrapes.write_end;
  std::vector<Metric>& m = *metrics;

  // Untraced and traced round trips, and the per-shape split.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<int, std::vector<double>> shape_ms;
  uint64_t matches = 0;
  uint64_t hits = 0;
  for (const ReadLog& log : reads) {
    untraced_ms.insert(untraced_ms.end(), log.ms.begin(), log.ms.end());
    for (size_t i = 0; i < log.ms.size(); ++i) {
      shape_ms[log.shape[i]].push_back(log.ms[i]);
    }
    for (const TracedRequest& request : log.traced) {
      traced_ms.push_back(Ms(request.rtt_ns));
      // Traced round trips too: a rare shape needs every sample.
      shape_ms[request.shape].push_back(Ms(request.rtt_ns));
    }
    matches += log.matches;
    hits += log.hits;
  }
  std::sort(untraced_ms.begin(), untraced_ms.end());
  std::sort(traced_ms.begin(), traced_ms.end());
  const double p50 = Percentile(untraced_ms, 0.5);

  // Span self times over every traced QUERY, and the p40-p60 band.
  Budget all;
  Budget band;
  std::map<int, double> exec_ns_by_shape;
  double exec_ns_total = 0;
  const double lo = Percentile(traced_ms, 0.4);
  const double hi = Percentile(traced_ms, 0.6);
  for (const ReadLog& log : reads) {
    for (const TracedRequest& request : log.traced) {
      if (request.spans.empty()) {
        continue;
      }
      all.Add(request);
      double rtt_ms = Ms(request.rtt_ns);
      if (rtt_ms >= lo && rtt_ms <= hi) {
        band.Add(request);
      }
      for (const auto& span : request.spans) {
        if (span.depth == 1 && span.name == "execute") {
          exec_ns_by_shape[request.shape] += static_cast<double>(span.duration_ns);
          exec_ns_total += static_cast<double>(span.duration_ns);
        }
      }
    }
  }
  const std::string rpc = "rpc/QUERY";
  const std::string engine = rpc + ">execute>query>execute";
  const double traced_p50 = Percentile(traced_ms, 0.5);
  Note("latency budget: mean self time of traced QUERYs with client RTT "
       "in the p40-p60 band (%zu requests)", band.requests);
  double budget_sum = 0;
  for (const std::string& path : band.order) {
    double us = band.MeanUs(path);
    budget_sum += us;
    Note("  %-60s %10.2f us", path.c_str(), us);
  }
  double rtt_minus = Ratio(band.rtt_minus_server_ns, static_cast<double>(band.requests)) / 1e3;
  budget_sum += rtt_minus;
  Note("  %-60s %10.2f us", "client rtt minus server root span", rtt_minus);
  Note("  %-60s %10.2f us", "sum of rows", budget_sum);
  Note("traced p50 %.2f us, untraced p50 %.2f us, tracing overhead %.2f us; "
       "|sum - untraced p50| = %.2f us",
       traced_p50 * 1e3, p50 * 1e3, (traced_p50 - p50) * 1e3,
       std::abs(budget_sum - p50 * 1e3));

  // net
  m.push_back({"net.socket_read_us", all.MeanUs(rpc + ">socket_read"), "us"});
  m.push_back({"net.decode_us", all.MeanUs(rpc + ">decode"), "us"});
  m.push_back({"net.queue_wait_us", all.MeanUs(rpc + ">queue_wait"), "us"});
  m.push_back({"net.execute_us", all.MeanUs(rpc + ">execute"), "us"});
  m.push_back({"net.rpc_self_us", all.MeanUs(rpc), "us"});
  m.push_back({"net.rtt_minus_server_us",
               Ratio(all.rtt_minus_server_ns, static_cast<double>(all.requests)) / 1e3,
               "us"});
  m.push_back({"net.bytes_out_per_query",
               Ratio(Delta(wb, we, "authidx_server_bytes_out_total"),
                     Delta(wb, we, "authidx_server_requests_total")),
               "bytes"});
  m.push_back({"net.shed_total", Delta(wb, we, "authidx_shed_requests_total"),
               "count"});
  m.push_back({"net.tracing_overhead_ms", traced_p50 - p50, "ms"});
  {
    std::vector<WireQueryResult> pages;
    for (const ReadLog& log : reads) {
      for (const Sample& sample : log.samples) {
        if (pages.size() < 512) pages.push_back(sample.result);
      }
    }
    std::vector<std::string> encoded;
    for (const WireQueryResult& page : pages) {
      encoded.emplace_back();
      authidx::net::EncodeQueryResult(page, &encoded.back());
    }
    m.push_back({"net.encode_query_result_us",
                 TimePerItemUs(pages, [](const WireQueryResult& page) {
                   std::string out;
                   authidx::net::EncodeQueryResult(page, &out);
                   return out.size();
                 }),
                 "us"});
    m.push_back({"net.decode_query_result_us",
                 TimePerItemUs(encoded, [](const std::string& body) {
                   WireQueryResult page;
                   (void)authidx::net::DecodeQueryResult(body, &page);
                   return page.hits.size();
                 }),
                 "us"});
  }
  // core
  double cache_hits = Delta(wb, we, "authidx_result_cache_hits_total");
  double cache_probes =
      cache_hits + Delta(wb, we, "authidx_result_cache_misses_total");
  m.push_back({"core.cache_hit_ratio", Ratio(cache_hits, cache_probes), "ratio"});
  m.push_back({"core.cache_probes", cache_probes, "count"});
  m.push_back({"core.cache_probe_us", CacheProbeUs(reads), "us"});
  m.push_back({"core.cache_invalidations",
               Delta(wb, we, "authidx_result_cache_invalidations_total"), "count"});
  m.push_back({"core.query_self_us", all.MeanUs(rpc + ">execute>query"), "us"});
  m.push_back({"core.run_self_us", all.MeanUs(engine), "us"});
  m.push_back({"core.add_all_entries_per_s", add_all_entries_per_s_, "1/s"});
  m.push_back({"core.open_persistent_s", open_persistent_s_, "s"});
  {
    double exec_ns = 0;
    double entries = 0;
    for (const TracedRequest& request : writes.traced) {
      for (const auto& span : request.spans) {
        if (span.depth == 1 && span.name == "execute") {
          exec_ns += static_cast<double>(span.duration_ns);
        }
      }
      entries += static_cast<double>(request.entries);
    }
    m.push_back({"core.add_execute_us_per_entry", Ratio(exec_ns, entries) / 1e3, "us"});
  }
  // query
  m.push_back({"query.parse_us", all.MeanUs(rpc + ">execute>query>parse"), "us"});
  m.push_back({"query.matches_per_hit",
               Ratio(static_cast<double>(matches), static_cast<double>(hits)),
               "ratio"});
  for (int s = 0; s < kShapeCount; ++s) {
    std::string name = "query.shape." + std::string(ShapeName(static_cast<Shape>(s)));
    m.push_back({name + ".p50_ms", Median(shape_ms[s]), "ms"});
    m.push_back({name + ".exec_share", Ratio(exec_ns_by_shape[s], exec_ns_total),
                 "ratio"});
  }
  // index (the exact counters come from the replay below)
  AUTHIDX_RETURN_NOT_OK(Replay(&m));
  m.push_back({"index.window_postings_decoded_per_query",
               Ratio(Delta(wb, we, "authidx_inverted_postings_decoded_total"),
                     Delta(wb, we, "authidx_server_requests_total{op=\"QUERY\"}")),
               "count"});
  m.push_back({"index.trie_nodes", Get(we, "authidx_trie_nodes"), "count"});
  // storage (over the write phase)
  double wal_bytes = Delta(sb, se, "authidx_wal_append_bytes_total");
  double written_user = static_cast<double>(writes.user_bytes);
  // The ADD batch p99 is reported here, without a bound: on a shared
  // host it swings too much from run to run to gate on.
  m.push_back({"storage.add_p99_ms", TailP99(writes.ms, kSubWindows), "ms"});
  m.push_back({"storage.wal_append_us",
               HistMean(sb, se, "authidx_wal_append_duration_ns") / 1e3, "us"});
  m.push_back({"storage.wal_bytes_per_user_byte", Ratio(wal_bytes, written_user),
               "ratio"});
  m.push_back({"storage.group_commit_size",
               Ratio(Delta(sb, se, "authidx_group_commit_writes_total"),
                     Delta(sb, se, "authidx_group_commit_batches_total")),
               "count"});
  m.push_back({"storage.flushes", Delta(sb, se, "authidx_memtable_flushes_total"),
               "count"});
  m.push_back({"storage.flush_ms",
               HistMean(sb, se, "authidx_memtable_flush_duration_ns") / 1e6, "ms"});
  m.push_back({"storage.compactions", Delta(sb, se, "authidx_compactions_total"),
               "count"});
  m.push_back({"storage.write_amp",
               Ratio(wal_bytes + Delta(sb, se, "authidx_memtable_flush_bytes_total") +
                         Delta(sb, se, "authidx_compaction_bytes_out_total"),
                     written_user),
               "ratio"});
  m.push_back({"storage.write_stalls", Delta(sb, se, "authidx_write_stalls_total"),
               "count"});
  m.push_back({"storage.recovery_records",
               Get(wb, "authidx_engine_recovery_records_total"), "count"});
  // text / parse, in-process over the lines this run sent
  {
    AddStream stream(pool_, args_.seed, kAddBatch);
    std::vector<std::string> lines;
    std::vector<Entry> entries;
    for (size_t j = 0; j < writes.acked_batches.size() && lines.size() < 20000; ++j) {
      for (std::string& line : stream.Batch(writes.acked_batches[j])) {
        entries.push_back(*authidx::ParseTsvLine(line));
        lines.push_back(std::move(line));
      }
    }
    m.push_back({"parse.tsv_line_us", TimePerItemUs(lines, [](const std::string& line) {
                   return authidx::ParseTsvLine(line).ok() ? size_t{1} : size_t{0};
                 }), "us"});
    m.push_back({"text.normalize_us", TimePerItemUs(entries, [](const Entry& e) {
                   return authidx::text::NormalizeForIndex(e.author.GroupKey()).size();
                 }), "us"});
    m.push_back({"text.sort_key_us", TimePerItemUs(entries, [](const Entry& e) {
                   return authidx::text::MakeSortKey(e.author.GroupKey()).size();
                 }), "us"});
    m.push_back({"text.tokenize_us", TimePerItemUs(entries, [](const Entry& e) {
                   return authidx::text::Tokenize(e.title).size();
                 }), "us"});
  }
  std::string shares;
  for (int s = 0; s < kShapeCount; ++s) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.3f", ShapeName(static_cast<Shape>(s)).data(),
                  Ratio(exec_ns_by_shape[s], exec_ns_total));
    shares += buf;
  }
  Note("server execute share by shape:%s", shares.c_str());
  return Status::OK();
}

int Run::Main() {
  std::error_code ec;
  std::filesystem::create_directories(args_.workdir, ec);
  const bool cache = args_.workload != "read_mix";
  const bool concurrent_writes = args_.workload == "ingest_read";
  // repeat_cached runs one connection: a cache hit costs tens of
  // microseconds, and two such round trips in flight at once contend
  // for the event loop and the workers, which makes their round trip
  // swing by half from run to run on a shared host.
  const int readers =
      concurrent_writes || args_.workload == "repeat_cached" ? 1 : 2;

  // Wall time of each phase of the run, for the report.
  std::string phases;
  uint64_t phase_start = MonotonicNowNs();
  auto phase = [&](const char* name) {
    uint64_t now = MonotonicNowNs();
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.2fs", name, Seconds(now - phase_start));
    phases += buf;
    phase_start = now;
  };
  if (Status s = Prepare(); !s.ok()) {
    std::fprintf(stderr, "prepare: %s\n", s.ToString().c_str());
    return 2;
  }
  const uint64_t catalog_bytes = TsvBytes(catalog_entries_);
  phase("prepare");

  std::string flags;
  for (const std::string& arg : ServerArgs(cache)) {
    flags += (flags.empty() ? "" : " ") + arg;
  }
  std::printf("# provenance {\"run\": %s, \"build_type\": \"%s\", "
              "\"compiler\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"trace\": %d, \"seconds\": %d, \"corpus_entries\": %zu, "
              "\"corpus_authors\": %zu, \"pool_entries\": %zu, "
              "\"server_flags\": \"%s\", \"connections\": %d, "
              "\"stream_hash\": \"%016" PRIx64 "\"}\n",
              args_.provenance.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              args_.workload.c_str(), args_.seed, args_.trace ? 1 : 0,
              args_.seconds, kCatalogEntries, kAuthors, kPoolEntries,
              flags.c_str(), readers + (concurrent_writes ? 1 : 0),
              StreamHash(readers));

  // Set-up: spawn to first answer, several times; the last server stays
  // up and serves the run.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server != nullptr) {
      if (Status s = server->Stop(); !s.ok()) {
        std::fprintf(stderr, "stop: %s\n", s.ToString().c_str());
        return 2;
      }
    }
    double setup_s = 0;
    Result<std::unique_ptr<ServerProcess>> started = StartServer(cache, &setup_s);
    if (!started.ok()) {
      std::fprintf(stderr, "server start: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    server = std::move(started).value();
    setups.push_back(setup_s);
  }
  const int port = server->rpc_port();
  const int http = server->http_port();
  const std::string serving_db =
      args_.workdir + "/db" + std::to_string(server_count_ - 1);
  phase("setup");

  // Warm-up, then the timed window.
  auto drive = [&](double seconds, std::string_view salt,
                   std::vector<ReadLog>* reads, WriteLog* writes) {
    uint64_t deadline = MonotonicNowNs() + static_cast<uint64_t>(seconds * 1e9);
    reads->assign(static_cast<size_t>(readers), ReadLog());
    std::vector<std::thread> threads;
    for (int c = 0; c < readers; ++c) {
      std::function<QuerySpec()> next = ReaderStream(c, salt);
      uint64_t sample_seed = SubSeed(args_.seed, std::string(salt) + "/sample" + std::to_string(c));
      threads.emplace_back([&, c, next, sample_seed] {
        RunReader(port, args_.trace, deadline, next, sample_seed,
                  &(*reads)[static_cast<size_t>(c)]);
      });
    }
    if (writes != nullptr) {
      threads.emplace_back([&] {
        AddStream stream(pool_, args_.seed, kAddBatch);
        RunWriter(port, args_.trace, deadline, stream, writes);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  };
  // ingest_read warms up its writer too, so the window starts with
  // memtable flushes already under way.
  std::vector<ReadLog> warm;
  WriteLog warm_writes;
  drive(std::min(2.0, args_.seconds / 5.0), "warmup", &warm,
        concurrent_writes ? &warm_writes : nullptr);
  for (const ReadLog& log : warm) {
    attempted_ += log.attempted;
    failed_ += log.failed;
  }
  attempted_ += warm_writes.attempted;
  failed_ += warm_writes.failed;
  phase("warmup");

  Result<Series> window_begin = Scrape(http);
  const uint64_t window_start = MonotonicNowNs();
  std::vector<ReadLog> reads;
  WriteLog writes;
  writes.next_batch = warm_writes.next_batch;
  drive(args_.seconds, "window", &reads, concurrent_writes ? &writes : nullptr);
  const uint64_t window_stop =
      window_start + static_cast<uint64_t>(args_.seconds) * 1000000000;
  const double window_s = Seconds(MonotonicNowNs() - window_start);
  Result<Series> window_end = Scrape(http);
  // Peak RSS of serving the workload's window. The write phase after it
  // grows the catalog by however much a slow or fast host ingests in
  // its fixed time, so it is left out.
  const double rss_mb = static_cast<double>(server->PeakRssKb()) / 1024.0;

  // Write phase of the read-only workloads: ADD batches after the
  // window, with no concurrent reads.
  Result<Series> write_begin = window_begin;
  Result<Series> write_end = window_end;
  uint64_t write_start = window_start;
  uint64_t write_stop = window_stop;
  phase("window");
  if (!concurrent_writes) {
    write_begin = Scrape(http);
    AddStream stream(pool_, args_.seed, kAddBatch);
    write_start = MonotonicNowNs();
    write_stop = write_start + kWritePhaseNs;
    RunWriter(port, args_.trace, write_stop, stream, &writes);
    write_end = Scrape(http);
  }
  if (!window_begin.ok() || !window_end.ok() || !write_begin.ok() ||
      !write_end.ok()) {
    std::fprintf(stderr, "cannot scrape /metrics\n");
    return 2;
  }
  attempted_ += writes.attempted;
  failed_ += writes.failed;
  for (const ReadLog& log : reads) {
    attempted_ += log.attempted;
    failed_ += log.failed;
  }
  CheckAcked(port, writes, kCatalogEntries + warm_writes.acked_entries);
  if (Status s = server->Stop(); !s.ok()) {
    std::fprintf(stderr, "stop: %s\n", s.ToString().c_str());
    return 2;
  }
  const uint64_t db_bytes = DirBytes(serving_db);
  phase("writes");
  if (!concurrent_writes) {
    CheckSamples(reads);
  }
  phase("checks");

  // Rates and medians per sub-window, p99s per equal-count run where
  // the runs are long enough; the median across them is reported.
  std::vector<std::pair<uint64_t, double>> completions;
  for (const ReadLog& log : reads) {
    for (size_t i = 0; i < log.ms.size(); ++i) {
      completions.emplace_back(log.done_ns[i], log.ms[i]);
    }
  }
  std::sort(completions.begin(), completions.end());
  std::vector<uint64_t> done;
  std::vector<double> all_ms;
  for (const auto& [done_ns, ms] : completions) {
    done.push_back(done_ns);
    all_ms.push_back(ms);
  }
  const WindowStats query_stats =
      SubWindowMedians(done, all_ms, window_start, window_stop, kSubWindows);
  const WindowStats add_stats = SubWindowMedians(
      writes.done_ns, writes.ms, write_start, write_stop, kSubWindows);
  const double p99 = TailP99(all_ms, kSubWindows);
  const double add_p99 = TailP99(writes.ms, kSubWindows);
  const double add_rate =
      add_stats.rate_per_s * static_cast<double>(kAddBatch);
  const double user_bytes =
      static_cast<double>(catalog_bytes + writes.user_bytes);
  auto parts = [](const WindowStats& stats) {
    std::string out;
    for (size_t i = 0; i < stats.part_rates.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.0f/s@%.3fms", stats.part_rates[i],
                    i < stats.part_medians.size() ? stats.part_medians[i] : 0.0);
      out += buf;
    }
    return out;
  };
  Note("query sub-windows:%s", parts(query_stats).c_str());
  Note("add sub-windows:%s", parts(add_stats).c_str());
  Note("queries: %zu untraced in %.2f s; sub-window medians %.1f q/s, p50 "
       "%.3f ms; p99 %.3f ms (samples %zu)",
       all_ms.size(), window_s, query_stats.rate_per_s, query_stats.median,
       p99, all_ms.size());
  Note("adds: %" PRIu64 " entries in %zu batches over %.2f s; sub-window "
       "medians %.0f entries/s, batch p50 %.3f ms; p99 %.3f ms "
       "(samples %zu)", writes.acked_entries, writes.ms.size(),
       Seconds(write_stop - write_start), add_rate, add_stats.median,
       add_p99, writes.ms.size());
  std::string setup_runs;
  for (double v : setups) {
    setup_runs += " " + std::to_string(v);
  }
  Note("setup_s runs:%s", setup_runs.c_str());
  Note("phases:%s", phases.c_str());

  std::vector<Metric> metrics;
  if (!args_.trace) {
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"query_qps", query_stats.rate_per_s, "1/s"},
        {"query_p50_ms", query_stats.median, "ms"},
        {"query_p99_ms", p99, "ms"},
        {"add_entries_per_s", add_rate, "1/s"},
        {"add_p50_ms", add_stats.median, "ms"},
        {"rss_mb", rss_mb, "MiB"},
        {"disk_bytes_per_user_byte", static_cast<double>(db_bytes) / user_bytes,
         "ratio"},
    };
  } else if (Status s = LayerMetrics(reads, writes,
                                     {*window_begin, *window_end,
                                      *write_begin, *write_end},
                                     &metrics);
             !s.ok()) {
    std::fprintf(stderr, "per-layer metrics: %s\n", s.ToString().c_str());
    return 2;
  }
  Note("failed_ratio %.6f (%" PRIu64 " of %" PRIu64 ")",
       Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
       failed_, attempted_);

  const bool correct = failed_ == 0 && checked_ > 0;
  std::printf("%s\n", ResultJson(correct, attempted_, failed_, metrics).c_str());
  std::fflush(stdout);
  reference_.reset();
  std::filesystem::remove_all(args_.workdir, ec);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload read_mix|repeat_cached|"
                 "ingest_read --seed N --seconds S --trace 0|1 --server PATH "
                 "--workdir DIR [--provenance JSON]\n");
    return 1;
  }
  return perfbench::Run(std::move(args)).Main();
}
