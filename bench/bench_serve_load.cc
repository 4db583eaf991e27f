// Serving-path load bench — not a paper figure: prices the wire and
// dispatch overhead of the TCP front-end (DESIGN.md §15) with the solver
// cost pinned small and cached, so what is measured is the protocol:
// newline-JSON vs GFB1 binary framing, and one-request-per-round-trip vs
// `groupform.batch/1` envelopes (which amortise round trips and
// ThreadPool submission across the batch).
//
// Rows: wire {json, binary} × mode {single, batch} × pool threads
// {1, 2, 8}. Every row runs a fresh in-process TcpServer on an ephemeral
// loopback port and a WireClient of the matching wire; "single" measures
// sequential RPC round trips, "batch" measures CallBatch envelopes of
// kBatchSize requests. Reported per row: requests/second over the whole
// run plus p50/p99 round-trip latency (per request for single, per
// envelope for batch).
//
// Request volume scales with GF_BENCH_SCALE. The final line is the
// machine-readable BENCH_serve_load.json document; the headline the
// validator pins is rps(binary, batch) >= rps(json, single) at every
// thread count. Those two rows run in kGateRounds alternating rounds per
// thread count and report their median-rps round, so one slow moment on
// a shared host cannot decide the gate on its own.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "eval/sweep_json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;

constexpr int kBatchSize = 32;
constexpr int kGateRounds = 3;

std::string BenchRequestLine() {
  serve::Request request;
  request.id = "load";
  request.solver = "greedy";
  request.instance.kind = "dense";
  request.instance.users = 32;
  request.instance.items = 8;
  request.instance.clusters = 2;
  request.instance.seed = 11;
  request.problem.k = 3;
  request.problem.groups = 6;
  return serve::RenderRequest(request);
}

double PercentileMs(std::vector<double>& sorted_ms, double pct) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

struct LoadRow {
  std::string wire;
  std::string mode;
  int threads = 0;
  int requests = 0;
  int batch_size = 1;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

[[noreturn]] void Die(const char* what, const common::Status& status) {
  std::fprintf(stderr, "bench_serve_load: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

LoadRow RunRow(serve::WireClient::Wire wire, bool batch, int threads,
               int total_requests, const std::string& line) {
  common::ThreadPool::SetDefaultThreadCount(threads);
  serve::Session session;
  serve::ServerConfig config;
  config.port = 0;
  config.max_inflight = 16;
  serve::TcpServer server(session, config);
  if (const auto status = server.Start(); !status.ok()) {
    Die("Start", status);
  }
  std::thread serving([&] {
    const auto status = server.Serve();
    if (!status.ok()) Die("Serve", status);
  });

  LoadRow row;
  row.wire =
      wire == serve::WireClient::Wire::kJson ? "json" : "binary";
  row.mode = batch ? "batch" : "single";
  row.threads = threads;
  row.batch_size = batch ? kBatchSize : 1;
  std::vector<double> latencies_ms;
  // Scope the client so its socket closes before Shutdown(): Serve()
  // waits for connection handlers, and a handler only finishes when its
  // client hangs up.
  {
    auto client_or =
        serve::WireClient::Connect("127.0.0.1", server.port(), wire);
    if (!client_or.ok()) Die("Connect", client_or.status());
    serve::WireClient client = std::move(*client_or);

    // Warm the instance cache and both ends of the connection, so the
    // rows price steady-state wire overhead, not the first solve.
    for (int i = 0; i < 10; ++i) {
      if (const auto response = client.Call(line); !response.ok()) {
        Die("warmup Call", response.status());
      }
    }

    common::Stopwatch total;
    if (!batch) {
      row.requests = total_requests;
      latencies_ms.reserve(static_cast<std::size_t>(total_requests));
      for (int i = 0; i < total_requests; ++i) {
        common::Stopwatch rt;
        if (const auto response = client.Call(line); !response.ok()) {
          Die("Call", response.status());
        }
        latencies_ms.push_back(rt.ElapsedSeconds() * 1000.0);
      }
    } else {
      const std::vector<std::string> envelope(kBatchSize, line);
      int sent = 0;
      while (sent < total_requests) {
        common::Stopwatch rt;
        const auto responses = client.CallBatch(envelope, "bench");
        if (!responses.ok()) Die("CallBatch", responses.status());
        latencies_ms.push_back(rt.ElapsedSeconds() * 1000.0);
        sent += kBatchSize;
      }
      row.requests = sent;
    }
    const double seconds = total.ElapsedSeconds();
    row.rps = seconds > 0.0 ? row.requests / seconds : 0.0;
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  row.p50_ms = PercentileMs(latencies_ms, 50.0);
  row.p99_ms = PercentileMs(latencies_ms, 99.0);

  server.Shutdown();
  serving.join();
  return row;
}

/// The round with the median rps (rounds.size() is odd).
LoadRow MedianRow(std::vector<LoadRow> rounds) {
  std::sort(rounds.begin(), rounds.end(),
            [](const LoadRow& a, const LoadRow& b) { return a.rps < b.rps; });
  return rounds[rounds.size() / 2];
}

}  // namespace

int main() {
  solvers::EnsureBuiltinSolversRegistered();
  bench::PrintHeader(
      "serve_load", "DESIGN.md §15 (wire framing + batch envelopes)",
      "requests/second and round-trip p50/p99 of the TCP front-end: "
      "newline-JSON vs GFB1 binary, single RPCs vs batch envelopes of "
      "32, at 1/2/8 pool threads; solves are small and cached so the "
      "protocol overhead dominates");

  const double scale = bench::BenchScale();
  const int requests_per_row = bench::Scaled(2000, scale, /*floor=*/64);
  const std::string line = BenchRequestLine();

  constexpr auto kJson = serve::WireClient::Wire::kJson;
  constexpr auto kBinary = serve::WireClient::Wire::kBinary;
  std::vector<LoadRow> rows;
  for (const int threads : {1, 2, 8}) {
    std::vector<LoadRow> json_single;
    std::vector<LoadRow> binary_batch;
    for (int round = 0; round < kGateRounds; ++round) {
      json_single.push_back(
          RunRow(kJson, false, threads, requests_per_row, line));
      binary_batch.push_back(
          RunRow(kBinary, true, threads, requests_per_row, line));
    }
    rows.push_back(MedianRow(std::move(json_single)));
    rows.push_back(RunRow(kBinary, false, threads, requests_per_row, line));
    rows.push_back(RunRow(kJson, true, threads, requests_per_row, line));
    rows.push_back(MedianRow(std::move(binary_batch)));
  }
  common::ThreadPool::SetDefaultThreadCount(0);

  common::TablePrinter table(
      {"wire", "mode", "threads", "requests", "rps", "p50 ms", "p99 ms"});
  for (const auto& row : rows) {
    table.AddRow({row.wire, row.mode, common::StrFormat("%d", row.threads),
                  common::StrFormat("%d", row.requests),
                  common::StrFormat("%.0f", row.rps),
                  common::StrFormat("%.3f", row.p50_ms),
                  common::StrFormat("%.3f", row.p99_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // The claim the snapshot pins: batched binary beats single-RPC JSON at
  // every thread count (it amortises round trips AND framing).
  bool all_ok = true;
  for (const int threads : {1, 2, 8}) {
    double json_single = 0.0;
    double binary_batch = 0.0;
    for (const auto& row : rows) {
      if (row.threads != threads) continue;
      if (row.wire == "json" && row.mode == "single") {
        json_single = row.rps;
      }
      if (row.wire == "binary" && row.mode == "batch") {
        binary_batch = row.rps;
      }
    }
    const bool ok = binary_batch >= json_single;
    if (!ok) {
      std::fprintf(stderr,
                   "FAIL: threads=%d binary/batch %.0f rps < json/single "
                   "%.0f rps\n",
                   threads, binary_batch, json_single);
    }
    all_ok = all_ok && ok;
  }

  eval::JsonWriter w;
  w.BeginObject();
  eval::AppendBenchEnvelope(w, "serve_load");
  w.Key("all_ok").Bool(all_ok);
  w.Key("serve").BeginObject();
  w.Key("requests_per_row").Int(requests_per_row);
  w.Key("batch_size").Int(kBatchSize);
  w.Key("gate_rounds").Int(kGateRounds);
  w.Key("rows").BeginArray();
  for (const auto& row : rows) {
    w.BeginObject();
    w.Key("wire").String(row.wire);
    w.Key("mode").String(row.mode);
    w.Key("threads").Int(row.threads);
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
  const int json_rc = eval::EmitBenchJson("serve_load", w.str());
  return all_ok && json_rc == 0 ? 0 : 1;
}
