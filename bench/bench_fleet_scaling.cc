// Fleet-scaling bench — not a paper figure: prices the broker tier
// (DESIGN.md §16) against a single-worker baseline. Every row runs a
// full in-process fleet — N worker Sessions behind real TcpServers, a
// TcpTransport pooling one connection per worker, a BrokerSession behind
// its own TcpServer — and drives the *broker's* port with several
// concurrent WireClients, the way a real deployment multiplexes clients
// over one broker.
//
// The workload exercises what affinity routing is *for*: aggregate
// cache capacity. Requests cycle through more distinct instances than
// one worker's InstanceCache budget holds, so a single worker churns
// its LRU (a cyclic scan over N > capacity entries hits nothing) and
// rebuilds instances all day, while the fleet's consistent-hash split
// keeps every worker's share resident. That is the fleet's honest win
// on any hardware — it does not depend on spare cores.
//
// Rows: workers {1, 2, 4} × wire {json, binary} (both hops: client →
// broker and broker → worker) × mode {single, batch32}. Reported per
// row: requests/second over the whole run plus p50/p99 round-trip
// latency (per request for single, per envelope for batch).
//
// Request volume scales with GF_BENCH_SCALE. The final line is the
// machine-readable BENCH_fleet_scaling.json document; the headline the
// validator pins is that for every wire × mode the fleet at 2+ workers
// reaches at least single-worker throughput.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "eval/paper_sweeps.h"
#include "eval/sweep_json.h"
#include "fleet/broker.h"
#include "fleet/transport.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;

constexpr int kBatchSize = 32;
constexpr int kClientThreads = 4;
constexpr int kDistinctInstances = 32;
constexpr int kUsers = 128;
constexpr int kItems = 32;

/// Per-worker InstanceCache budget: room for ~24 of the 32 working-set
/// instances (a 128×32 dense matrix charges ~users·items·8 bytes). One
/// worker cycling all 32 keys evicts forever; the ring's worst observed
/// split (17 of 32 keys on one worker at fleet size 2) fits with margin.
constexpr std::int64_t kWorkerCacheBytes = 800ll * 1024;

/// Solves over `kDistinctInstances` distinct instance keys — more than
/// one worker's cache budget holds, so the rows price cache capacity and
/// routing rather than raw solver throughput.
std::vector<std::string> BenchRequestLines() {
  std::vector<std::string> lines;
  lines.reserve(kDistinctInstances);
  for (int i = 0; i < kDistinctInstances; ++i) {
    serve::Request request;
    request.id = common::StrFormat("load-%d", i);
    request.solver = "greedy";
    request.instance.kind = "dense";
    request.instance.users = kUsers;
    request.instance.items = kItems;
    request.instance.clusters = 4;
    request.instance.seed = static_cast<std::uint64_t>(100 + i);
    request.problem.k = 3;
    request.problem.groups = 6;
    lines.push_back(serve::RenderRequest(request));
  }
  return lines;
}

double PercentileMs(std::vector<double>& sorted_ms, double pct) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

struct FleetRow {
  int workers = 0;
  std::string wire;
  std::string mode;
  int requests = 0;
  int batch_size = 1;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

[[noreturn]] void Die(const char* what, const common::Status& status) {
  std::fprintf(stderr, "bench_fleet_scaling: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

serve::SessionConfig CappedSessionConfig() {
  serve::SessionConfig config;
  config.cache_bytes = kWorkerCacheBytes;
  return config;
}

/// One in-process worker: a Session behind a TcpServer on an ephemeral
/// loopback port — what a groupform_serverd process wraps, minus
/// fork/exec, so the row measures the fleet path rather than spawn cost.
struct Worker {
  serve::Session session;
  std::unique_ptr<serve::TcpServer> server;
  std::thread serving;

  Worker() : session(CappedSessionConfig()) {
    serve::ServerConfig config;
    config.port = 0;
    config.max_inflight = 4;
    server = std::make_unique<serve::TcpServer>(session, config);
    if (const auto status = server->Start(); !status.ok()) {
      Die("worker Start", status);
    }
    serving = std::thread([this] {
      if (const auto status = server->Serve(); !status.ok()) {
        Die("worker Serve", status);
      }
    });
  }
  ~Worker() {
    server->Shutdown();
    serving.join();
  }
};

FleetRow RunRow(int num_workers, serve::WireClient::Wire wire, bool batch,
                int total_requests, const std::vector<std::string>& lines) {
  // Broker and workers share one process here, so they share the global
  // ThreadPool — which a real deployment never does. A pool of n threads
  // runs n jobs at once, and each in-flight broker request occupies one
  // that *blocks* on a worker RPC, so the pool must outsize the client
  // count or the workers' own solve jobs starve behind the brokers' waits
  // and the fleet deadlocks: kClientThreads broker jobs leave 4 for
  // solves.
  common::ThreadPool::SetDefaultThreadCount(kClientThreads + 4);
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<fleet::Endpoint> endpoints;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(std::make_unique<Worker>());
    endpoints.push_back({"127.0.0.1", workers.back()->server->port()});
  }
  fleet::TcpTransport transport(endpoints, wire);
  fleet::BrokerConfig broker_config;
  broker_config.retries = 1;
  broker_config.backoff_ms = 1;
  fleet::BrokerSession broker(broker_config, transport);
  serve::ServerConfig front_config;
  front_config.port = 0;
  front_config.max_inflight = kClientThreads + 2;
  serve::TcpServer front(broker, front_config);
  if (const auto status = front.Start(); !status.ok()) Die("Start", status);
  std::thread serving([&] {
    if (const auto status = front.Serve(); !status.ok()) Die("Serve", status);
  });

  FleetRow row;
  row.workers = num_workers;
  row.wire = wire == serve::WireClient::Wire::kJson ? "json" : "binary";
  row.mode = batch ? "batch" : "single";
  row.batch_size = batch ? kBatchSize : 1;

  const int per_client = std::max(1, total_requests / kClientThreads);
  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<int> sent(kClientThreads, 0);
  // Concurrent clients are the point: a lone sequential caller can never
  // keep more than one worker busy, so single-connection numbers would
  // say nothing about fleet scaling.
  {
    common::Stopwatch total;
    std::vector<std::thread> clients;
    clients.reserve(kClientThreads);
    for (int c = 0; c < kClientThreads; ++c) {
      clients.emplace_back([&, c] {
        auto client_or =
            serve::WireClient::Connect("127.0.0.1", front.port(), wire);
        if (!client_or.ok()) Die("Connect", client_or.status());
        serve::WireClient client = std::move(*client_or);
        // Warm every instance's cache on every worker path, plus both
        // ends of this connection, so the rows price steady state.
        for (const std::string& line : lines) {
          if (const auto response = client.Call(line); !response.ok()) {
            Die("warmup Call", response.status());
          }
        }
        auto& mine = latencies[static_cast<std::size_t>(c)];
        if (!batch) {
          mine.reserve(static_cast<std::size_t>(per_client));
          for (int i = 0; i < per_client; ++i) {
            common::Stopwatch rt;
            const auto response =
                client.Call(lines[static_cast<std::size_t>(i) %
                                  lines.size()]);
            if (!response.ok()) Die("Call", response.status());
            mine.push_back(rt.ElapsedSeconds() * 1000.0);
          }
          sent[static_cast<std::size_t>(c)] = per_client;
        } else {
          std::vector<std::string> envelope;
          envelope.reserve(kBatchSize);
          for (int i = 0; i < kBatchSize; ++i) {
            envelope.push_back(
                lines[static_cast<std::size_t>(i) % lines.size()]);
          }
          int done = 0;
          while (done < per_client) {
            common::Stopwatch rt;
            const auto responses = client.CallBatch(
                envelope, common::StrFormat("bench-%d", c));
            if (!responses.ok()) Die("CallBatch", responses.status());
            mine.push_back(rt.ElapsedSeconds() * 1000.0);
            done += kBatchSize;
          }
          sent[static_cast<std::size_t>(c)] = done;
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double seconds = total.ElapsedSeconds();
    for (const int n : sent) row.requests += n;
    row.rps = seconds > 0.0 ? row.requests / seconds : 0.0;
  }
  std::vector<double> merged;
  for (auto& mine : latencies) {
    merged.insert(merged.end(), mine.begin(), mine.end());
  }
  std::sort(merged.begin(), merged.end());
  row.p50_ms = PercentileMs(merged, 50.0);
  row.p99_ms = PercentileMs(merged, 99.0);

  // Teardown order matters (the equivalence tests learned it the hard
  // way): clients are gone, so the front drains; then drop the broker's
  // pooled worker connections so the workers' Serve() loops can drain.
  front.Shutdown();
  serving.join();
  for (int w = 0; w < num_workers; ++w) transport.Reset(w);
  return row;
}

}  // namespace

int main() {
  const auto scale_or = eval::BenchScale();
  if (!scale_or.ok()) {
    std::fprintf(stderr, "%s\n", scale_or.status().ToString().c_str());
    return 2;
  }
  const double scale = *scale_or;
  solvers::EnsureBuiltinSolversRegistered();
  eval::PrintBenchHeader(
      "fleet_scaling", "DESIGN.md §16 (broker fleet, affinity routing)",
      "requests/second and round-trip p50/p99 through the broker tier at "
      "1/2/4 workers, newline-JSON vs GFB1 binary on both hops, single "
      "RPCs vs batch envelopes of 32, driven by 4 concurrent clients; "
      "the working set of 32 instances overflows one worker's cache "
      "budget but fits the fleet's aggregate, so the rows price what "
      "affinity routing buys");

  const int requests_per_row = eval::Scaled(1500, scale, /*floor=*/128);
  const std::vector<std::string> lines = BenchRequestLines();

  std::vector<FleetRow> rows;
  for (const int num_workers : {1, 2, 4}) {
    for (const bool batch : {false, true}) {
      rows.push_back(RunRow(num_workers, serve::WireClient::Wire::kJson,
                            batch, requests_per_row, lines));
      rows.push_back(RunRow(num_workers, serve::WireClient::Wire::kBinary,
                            batch, requests_per_row, lines));
    }
  }
  common::ThreadPool::SetDefaultThreadCount(0);

  common::TablePrinter table({"workers", "wire", "mode", "requests", "rps",
                              "p50 ms", "p99 ms"});
  for (const auto& row : rows) {
    table.AddRow({common::StrFormat("%d", row.workers), row.wire, row.mode,
                  common::StrFormat("%d", row.requests),
                  common::StrFormat("%.0f", row.rps),
                  common::StrFormat("%.3f", row.p50_ms),
                  common::StrFormat("%.3f", row.p99_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // The claim the snapshot pins: for every wire × mode, the fleet at 2+
  // workers reaches at least single-worker throughput. (The best fleet
  // row carries the claim — extra workers buy cache capacity, not CPU,
  // so this is the aggregate-cache win, not a linear-speedup promise.)
  bool all_ok = true;
  for (const std::string wire : {"json", "binary"}) {
    for (const std::string mode : {"single", "batch"}) {
      double single_worker = 0.0;
      double best_fleet = 0.0;
      for (const auto& row : rows) {
        if (row.wire != wire || row.mode != mode) continue;
        if (row.workers == 1) {
          single_worker = row.rps;
        } else {
          best_fleet = std::max(best_fleet, row.rps);
        }
      }
      const bool ok = best_fleet >= single_worker;
      if (!ok) {
        std::fprintf(stderr,
                     "FAIL: %s/%s fleet best %.0f rps < single-worker "
                     "%.0f rps\n",
                     wire.c_str(), mode.c_str(), best_fleet, single_worker);
      }
      all_ok = all_ok && ok;
    }
  }

  eval::JsonWriter w;
  w.BeginObject();
  eval::AppendBenchEnvelope(w, "fleet_scaling");
  w.Key("all_ok").Bool(all_ok);
  w.Key("fleet").BeginObject();
  w.Key("requests_per_row").Int(requests_per_row);
  w.Key("batch_size").Int(kBatchSize);
  w.Key("client_threads").Int(kClientThreads);
  w.Key("distinct_instances").Int(kDistinctInstances);
  w.Key("instance_users").Int(kUsers);
  w.Key("instance_items").Int(kItems);
  w.Key("worker_cache_bytes").Int(kWorkerCacheBytes);
  w.Key("rows").BeginArray();
  for (const auto& row : rows) {
    w.BeginObject();
    w.Key("workers").Int(row.workers);
    w.Key("wire").String(row.wire);
    w.Key("mode").String(row.mode);
    w.Key("requests").Int(row.requests);
    w.Key("batch_size").Int(row.batch_size);
    w.Key("rps").Number(row.rps);
    w.Key("p50_ms").Number(row.p50_ms);
    w.Key("p99_ms").Number(row.p99_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  const int json_rc = eval::EmitBenchJson("fleet_scaling", w.str());
  return all_ok && json_rc == 0 ? 0 : 1;
}
