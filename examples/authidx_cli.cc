// authidx_cli — command-line front end over a persistent catalog.
//
//   authidx_cli ingest  --db DIR FILE.tsv|FILE.bib   load entries
//   authidx_cli query   --db DIR 'QUERY'             structured search
//   authidx_cli typeset --db DIR [--kwic|--titles|--subjects]
//   authidx_cli export  --db DIR --format csv|json   dump the catalog
//   authidx_cli stats   --db DIR [--metrics]         corpus statistics
//   authidx_cli trace   --db DIR 'QUERY'             query with span tree
//   authidx_cli serve   --db DIR --port N            HTTP observability
//   authidx_cli slowlog --db DIR 'QUERY'...          slow-query capture
//   authidx_cli remote  --port N <op> [args]         talk to authidx_server
//
// `remote` needs no --db: it speaks the binary wire protocol
// (docs/PROTOCOL.md) to a running authidx_server.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime failures.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "authidx/common/env.h"
#include "authidx/common/strings.h"
#include "authidx/core/author_index.h"
#include "authidx/core/stats.h"
#include "authidx/format/export.h"
#include "authidx/format/kwic.h"
#include "authidx/format/metrics_text.h"
#include "authidx/format/subject_index.h"
#include "authidx/format/title_index.h"
#include "authidx/format/typeset.h"
#include "authidx/net/client.h"
#include "authidx/obs/http_server.h"
#include "authidx/obs/log.h"
#include "authidx/obs/slowlog.h"
#include "authidx/obs/trace.h"
#include "authidx/parse/bibtex.h"
#include "authidx/parse/tsv.h"
#include "authidx/query/planner.h"

namespace {

using namespace authidx;

int Usage() {
  std::fprintf(
      stderr,
      "usage: authidx_cli <command> --db DIR [args]\n"
      "  ingest  --db DIR FILE      load .tsv or .bib entries\n"
      "  query   --db DIR 'QUERY'   e.g. 'author:mc* coal year:1975..'\n"
      "  typeset --db DIR [--kwic|--titles|--subjects]\n"
      "                             print the author/KWIC/title/subject index\n"
      "  export  --db DIR --format csv|json\n"
      "  stats   --db DIR [--metrics]\n"
      "                             --metrics: Prometheus text exposition\n"
      "  trace   --db DIR 'QUERY'   run QUERY and print its span tree\n"
      "  verify  --db DIR           scan the store, re-checking every\n"
      "                             log record's checksum\n"
      "  serve   --db DIR [--port N] [--slow-ms N]\n"
      "                             HTTP /metrics /healthz /varz /slowlog\n"
      "  slowlog --db DIR [--slow-ms N] 'QUERY'...\n"
      "                             run queries, print captured slow log\n"
      "  remote  [--host H] --port N ping|stats|flush\n"
      "  remote  [--host H] --port N [--trace] query 'QUERY'\n"
      "  remote  [--host H] --port N add FILE.tsv\n"
      "                             talk to a running authidx_server;\n"
      "                             --trace prints the trace id and the\n"
      "                             server-side span tree;\n"
      "                             --deadline-ms N bounds each call;\n"
      "                             --replica HOST:PORT (repeatable) adds\n"
      "                             read-failover endpoints\n"
      "common flags: --log-level debug|info|warn|error, --log-file PATH\n");
  return 1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 2;
}

struct Args {
  std::string command;
  std::string db;
  std::string host = "127.0.0.1";
  std::string format = "csv";
  bool kwic = false;
  bool titles = false;
  bool subjects = false;
  bool metrics = false;
  int port = 8080;
  bool port_set = false;
  int64_t slow_ms = -1;  // -1 = not set.
  int64_t deadline_ms = 0;  // 0 = no per-call deadline.
  std::vector<std::string> replicas;
  bool trace = false;
  std::string log_level;
  std::string log_file;
  std::vector<std::string> positional;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--db" && i + 1 < argc) {
      args->db = argv[++i];
    } else if (arg == "--host" && i + 1 < argc) {
      args->host = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      args->format = argv[++i];
    } else if (arg == "--kwic") {
      args->kwic = true;
    } else if (arg == "--titles") {
      args->titles = true;
    } else if (arg == "--subjects") {
      args->subjects = true;
    } else if (arg == "--metrics") {
      args->metrics = true;
    } else if (arg == "--trace") {
      args->trace = true;
    } else if (arg == "--port" && i + 1 < argc) {
      Result<int64_t> port = ParseInt64(argv[++i]);
      if (!port.ok() || *port < 0 || *port > 65535) {
        std::fprintf(stderr, "bad --port value\n");
        return false;
      }
      args->port = static_cast<int>(*port);
      args->port_set = true;
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      Result<int64_t> ms = ParseInt64(argv[++i]);
      if (!ms.ok() || *ms <= 0) {
        std::fprintf(stderr, "bad --deadline-ms value\n");
        return false;
      }
      args->deadline_ms = *ms;
    } else if (arg == "--replica" && i + 1 < argc) {
      args->replicas.emplace_back(argv[++i]);
    } else if (arg == "--slow-ms" && i + 1 < argc) {
      Result<int64_t> ms = ParseInt64(argv[++i]);
      if (!ms.ok() || *ms < 0) {
        std::fprintf(stderr, "bad --slow-ms value\n");
        return false;
      }
      args->slow_ms = *ms;
    } else if (arg == "--log-level" && i + 1 < argc) {
      args->log_level = argv[++i];
    } else if (arg == "--log-file" && i + 1 < argc) {
      args->log_file = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    } else {
      args->positional.push_back(std::move(arg));
    }
  }
  // `remote` talks to a server instead of opening a catalog.
  return !args->db.empty() || args->command == "remote";
}

int RunIngest(core::AuthorIndex* catalog, const Args& args) {
  if (args.positional.size() != 1) {
    return Usage();
  }
  const std::string& path = args.positional[0];
  Result<std::string> contents = Env::Default()->ReadFileToString(path);
  if (!contents.ok()) {
    return Fail(contents.status());
  }
  Result<std::vector<Entry>> entries =
      (path.size() > 4 && path.substr(path.size() - 4) == ".bib")
          ? ParseBibTexToEntries(*contents)
          : ParseTsv(*contents);
  if (!entries.ok()) {
    return Fail(entries.status());
  }
  size_t count = entries->size();
  Status s = catalog->AddAll(std::move(entries).value());
  if (!s.ok()) {
    return Fail(s);
  }
  s = catalog->Flush();
  if (!s.ok()) {
    return Fail(s);
  }
  std::printf("ingested %zu entries (catalog now %zu entries, %zu authors)\n",
              count, catalog->entry_count(), catalog->group_count());
  return 0;
}

int RunQuery(core::AuthorIndex* catalog, const Args& args) {
  if (args.positional.size() != 1) {
    return Usage();
  }
  Result<query::QueryResult> result = catalog->Search(args.positional[0]);
  if (!result.ok()) {
    return Fail(result.status());
  }
  std::printf("%zu match(es) via %s\n", result->total_matches,
              std::string(query::PlanKindToString(result->plan)).c_str());
  for (const query::Hit& hit : result->hits) {
    const Entry* entry = catalog->GetEntry(hit.id);
    std::printf("%-30s  %-50.50s  %s\n",
                entry->author.ToIndexForm().c_str(), entry->title.c_str(),
                entry->citation.ToString().c_str());
  }
  return 0;
}

// Set by SIGINT/SIGTERM so the serve loop can exit cleanly.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int RunServe(core::AuthorIndex* catalog, obs::Logger* logger,
             const Args& args) {
  if (args.slow_ms >= 0) {
    // 0 ms arms capture-everything (1 ns floor), matching slowlog.
    catalog->SetSlowQueryThreshold(
        args.slow_ms > 0 ? static_cast<uint64_t>(args.slow_ms) * 1000000u
                         : 1);
  }
  uint64_t start_ns = obs::MonotonicNowNs();
  obs::HttpServer server;
  server.Route("/metrics", [catalog] {
    obs::HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = format::MetricsToPrometheusText(catalog->GetMetricsSnapshot());
    return r;
  });
  server.Route("/healthz", [catalog, logger] {
    obs::HttpResponse r;
    // A sticky storage error outranks logged errors: the store is
    // read-only until reopened, so load balancers must drain writes.
    if (catalog->StorageDegraded()) {
      r.status = 503;
      r.body =
          "degraded: " + catalog->StorageBackgroundError().ToString() + "\n";
    } else if (logger->error_count() != 0) {
      r.status = 503;
      r.body = "degraded: " + logger->last_error() + "\n";
    } else {
      r.body = "ok\n";
    }
    return r;
  });
  server.Route("/varz", [catalog, logger, start_ns] {
    obs::HttpResponse r;
    r.content_type = "application/json";
    std::string body = "{\"build\":{\"compiler\":";
    body += JsonQuote(__VERSION__);
    body += ",\"cplusplus\":" + std::to_string(__cplusplus) + "}";
    body += ",\"uptime_ms\":" +
            std::to_string((obs::MonotonicNowNs() - start_ns) / 1000000u);
    body += ",\"log_errors\":" + std::to_string(logger->error_count());
    body += ",\"last_error\":" + JsonQuote(logger->last_error());
    body += ",\"slow_query_threshold_ns\":" +
            std::to_string(catalog->slow_query_threshold_ns());
    body += ",\"slow_queries_total\":" +
            std::to_string(catalog->slow_query_log().total_recorded());
    body += ",\"stats\":" + core::ComputeStats(*catalog).ToJson();
    body += "}";
    r.body = std::move(body);
    return r;
  });
  server.Route("/slowlog", [catalog] {
    obs::HttpResponse r;
    r.content_type = "application/json";
    r.body = obs::SlowQueryLog::ToJson(catalog->SlowQueries());
    return r;
  });
  Status s = server.Start(args.port);
  if (!s.ok()) {
    return Fail(s);
  }
  std::printf("serving on http://127.0.0.1:%d (/metrics /healthz /varz "
              "/slowlog); Ctrl-C stops\n",
              server.port());
  std::fflush(stdout);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();
  std::printf("stopped after %llu request(s)\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}

int RunSlowlog(core::AuthorIndex* catalog, const Args& args) {
  if (args.positional.empty()) {
    return Usage();
  }
  // Default threshold 0 ms -> capture every query (1 ns floor keeps the
  // capture path armed).
  uint64_t threshold_ns =
      args.slow_ms > 0 ? static_cast<uint64_t>(args.slow_ms) * 1000000u : 1;
  catalog->SetSlowQueryThreshold(threshold_ns);
  for (const std::string& query_text : args.positional) {
    Result<query::QueryResult> result = catalog->Search(query_text);
    if (!result.ok()) {
      std::fprintf(stderr, "query '%s' failed: %s\n", query_text.c_str(),
                   result.status().ToString().c_str());
    }
  }
  std::printf("%s\n",
              obs::SlowQueryLog::ToJson(catalog->SlowQueries()).c_str());
  return 0;
}

int RunRemote(obs::Logger* logger, const Args& args) {
  // The RPC port has no safe default (8080 is the HTTP observability
  // convention), so remote requires an explicit --port.
  if (args.positional.empty() || !args.port_set) {
    return Usage();
  }
  net::ClientOptions options;
  options.host = args.host;
  options.port = args.port;
  options.deadline_ms = static_cast<int>(args.deadline_ms);
  options.replicas = args.replicas;
  options.logger = logger;
  options.trace = args.trace;
  net::Client client(options);
  const std::string& op = args.positional[0];
  if (op == "ping") {
    if (Status s = client.Ping(); !s.ok()) {
      return Fail(s);
    }
    std::printf("pong from %s:%d\n", args.host.c_str(), args.port);
    return 0;
  }
  if (op == "query") {
    if (args.positional.size() != 2) {
      return Usage();
    }
    Result<net::WireQueryResult> result = client.Query(args.positional[1]);
    if (!result.ok()) {
      return Fail(result.status());
    }
    if (!args.replicas.empty()) {
      std::printf("answered by %s\n", client.current_endpoint().c_str());
    }
    std::printf("%llu match(es)\n",
                static_cast<unsigned long long>(result->total_matches));
    for (const net::WireHit& hit : result->hits) {
      std::printf("%-30s  %-50.50s  %s\n", hit.author.c_str(),
                  hit.title.c_str(), hit.citation.c_str());
    }
    if (args.trace) {
      const net::RpcTrace& rpc_trace = client.last_trace();
      if (rpc_trace.trace_id.IsZero()) {
        std::printf("\n(no trace returned by the server)\n");
      } else {
        std::printf("\ntrace_id=%s\n",
                    rpc_trace.trace_id.ToHex().c_str());
        obs::Trace tree;
        for (const obs::Trace::Span& span : rpc_trace.spans) {
          tree.AppendSpan(span.name, span.depth, span.start_ns,
                          span.duration_ns);
        }
        std::printf("%s", tree.ToString().c_str());
      }
    }
    return 0;
  }
  if (op == "add") {
    if (args.positional.size() != 2) {
      return Usage();
    }
    Result<std::string> contents =
        Env::Default()->ReadFileToString(args.positional[1]);
    if (!contents.ok()) {
      return Fail(contents.status());
    }
    std::vector<std::string> lines;
    size_t start = 0;
    while (start <= contents->size()) {
      size_t end = contents->find('\n', start);
      if (end == std::string::npos) {
        end = contents->size();
      }
      std::string line = contents->substr(start, end - start);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (!line.empty() && line[0] != '#') {
        lines.push_back(std::move(line));
      }
      start = end + 1;
    }
    Result<uint64_t> added = client.Add(lines);
    if (!added.ok()) {
      return Fail(added.status());
    }
    std::printf("added %llu entries\n",
                static_cast<unsigned long long>(*added));
    return 0;
  }
  if (op == "stats") {
    Result<net::WireStats> stats = client.Stats();
    if (!stats.ok()) {
      return Fail(stats.status());
    }
    std::printf("entries: %llu\nauthors: %llu\n",
                static_cast<unsigned long long>(stats->entry_count),
                static_cast<unsigned long long>(stats->group_count));
    return 0;
  }
  if (op == "flush") {
    if (Status s = client.Flush(); !s.ok()) {
      return Fail(s);
    }
    std::printf("flushed\n");
    return 0;
  }
  return Usage();
}

int RunTrace(core::AuthorIndex* catalog, const Args& args) {
  if (args.positional.size() != 1) {
    return Usage();
  }
  obs::Trace trace;
  Result<query::QueryResult> result =
      catalog->SearchTraced(args.positional[0], &trace);
  if (!result.ok()) {
    return Fail(result.status());
  }
  std::printf("%zu match(es) via %s\n\n", result->total_matches,
              std::string(query::PlanKindToString(result->plan)).c_str());
  std::printf("%s", trace.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }

  // The logger is silent unless serve is running or the user asked for
  // it, so batch commands keep their exact historical output.
  obs::LogLevel level = obs::LogLevel::kInfo;
  if (!args.log_level.empty() &&
      !obs::ParseLogLevel(args.log_level, &level)) {
    std::fprintf(stderr, "unknown --log-level: %s\n",
                 args.log_level.c_str());
    return Usage();
  }
  obs::Logger logger(level);
  if (args.command == "serve" || !args.log_level.empty()) {
    logger.AddSink(std::make_unique<obs::StderrSink>());
  }
  if (!args.log_file.empty()) {
    Result<std::unique_ptr<obs::RotatingFileSink>> sink =
        obs::RotatingFileSink::Open(Env::Default(), args.log_file);
    if (!sink.ok()) {
      return Fail(sink.status());
    }
    logger.AddSink(std::move(sink).value());
  }

  if (args.command == "remote") {
    return RunRemote(&logger, args);
  }

  storage::EngineOptions options;
  options.logger = &logger;
  Result<std::unique_ptr<core::AuthorIndex>> catalog =
      core::AuthorIndex::OpenPersistent(args.db, options);
  if (!catalog.ok()) {
    return Fail(catalog.status());
  }

  if (args.command == "ingest") {
    return RunIngest(catalog->get(), args);
  }
  if (args.command == "query") {
    return RunQuery(catalog->get(), args);
  }
  if (args.command == "typeset") {
    if (args.kwic) {
      std::printf("%s", format::KwicIndexToString(**catalog).c_str());
    } else if (args.titles) {
      for (const format::Page& page :
           format::TypesetTitleIndex(**catalog)) {
        std::printf("%s\n", page.text.c_str());
      }
    } else if (args.subjects) {
      std::printf("%s",
                  format::SubjectIndexToString(
                      **catalog, format::SubjectVocabulary::LegalDefault())
                      .c_str());
    } else {
      for (const format::Page& page : format::TypesetAuthorIndex(**catalog)) {
        std::printf("%s\n", page.text.c_str());
      }
    }
    return 0;
  }
  if (args.command == "export") {
    if (args.format == "csv") {
      std::printf("%s", format::CatalogToCsv(**catalog).c_str());
    } else if (args.format == "json") {
      std::printf("%s", format::CatalogToJson(**catalog).c_str());
    } else {
      return Usage();
    }
    return 0;
  }
  if (args.command == "stats") {
    if (args.metrics) {
      std::printf("%s", format::MetricsToPrometheusText(
                            (*catalog)->GetMetricsSnapshot())
                            .c_str());
      return 0;
    }
    std::printf("%s", core::ComputeStats(**catalog).ToString().c_str());
    auto storage = (*catalog)->StorageStats();
    std::printf("storage: segments=%llu puts=%llu\n",
                static_cast<unsigned long long>(storage.segments),
                static_cast<unsigned long long>(storage.puts));
    return 0;
  }
  if (args.command == "trace") {
    return RunTrace(catalog->get(), args);
  }
  if (args.command == "serve") {
    return RunServe(catalog->get(), &logger, args);
  }
  if (args.command == "slowlog") {
    return RunSlowlog(catalog->get(), args);
  }
  if (args.command == "verify") {
    if (Status s = (*catalog)->VerifyStorageIntegrity(); !s.ok()) {
      return Fail(s);
    }
    std::printf("verified: %llu log segment(s) clean\n",
                static_cast<unsigned long long>(
                    (*catalog)->StorageStats().segments));
    return 0;
  }
  return Usage();
}
