// groupform_brokerd — multi-process serving front-end (DESIGN.md §16,
// docs/PROTOCOL.md "Broker transparency").
//
// Spawns and supervises a fleet of groupform_serverd worker processes on
// ephemeral loopback ports, then serves the ordinary wire protocol —
// newline-JSON and GFB1 binary, single documents and batch envelopes —
// routing every request by instance affinity: its instance cache key
// consistent-hashes to one worker, which answers it verbatim. The fleet
// splits the instance-cache working set N ways.
//
// Responses are byte-identical to a single groupform_serverd at every
// fleet size, worker thread count, and wire — the fleet equivalence
// tests pin this. A worker that dies answers its in-flight request with
// ERR(UNAVAILABLE) after one bounded-backoff retry; the stream never
// hangs.
//
//   groupform_brokerd --workers 3               # TCP on 127.0.0.1:4018
//   groupform_brokerd --workers 2 --port 0
//   groupform_brokerd --workers 2 --pipe < reqs.jsonl
//
// Flags:
//   --workers N         worker processes to spawn           (default 2)
//   --mode M            affinity, the only routing mode     (affinity)
//   --serverd PATH      worker binary (default: sibling groupform_serverd)
//   --worker-threads N  per-worker thread pool size (0 = worker default)
//   --worker-cache-mb N per-worker instance cache budget, -1 = the
//                       worker default, else as serverd --cache-mb (-1)
//   --worker-wire M     json | binary: wire of the broker→worker hop
//                       (binary)
//   --retries N         per-request re-attempts after a failed worker
//                       call                                (1)
//   --backoff-ms N      pause before each re-attempt        (50)
//   --pipe              serve stdin→stdout instead of TCP
//   --port N            TCP port, 0 = ephemeral  (GF_SERVE_PORT, 4018)
//   --port-file PATH    write the bound TCP port to PATH
//   --max-inflight N    pipelining window        (GF_SERVE_MAX_INFLIGHT)
//   --credits N         binary-wire credit window (GF_SERVE_CREDITS)
//   --wire MODE         auto | json | binary client wires (GF_SERVE_WIRE)
//   --threads N         broker pool size (GF_THREADS)
//
// SIGINT/SIGTERM stop the listener, drain in-flight requests, and tear
// the worker fleet down (SIGTERM + waitpid).
#include <csignal>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "fleet/broker.h"
#include "fleet/supervisor.h"
#include "serve/server.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;

serve::TcpServer* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->Shutdown();
}

int RealMain(int argc, char** argv) {
  solvers::EnsureBuiltinSolversRegistered();
  common::FlagParser flags;
  if (const auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::printf(
        "groupform_brokerd — broker fronting a groupform_serverd fleet\n"
        "(same wire protocol as a single server, docs/PROTOCOL.md)\n\n"
        "  --workers N         worker processes (default 2)\n"
        "  --mode M            affinity (the only routing mode)\n"
        "  --serverd PATH      worker binary (default: sibling)\n"
        "  --worker-threads N  per-worker pool size (0 = worker default)\n"
        "  --worker-cache-mb N per-worker cache budget (-1 = default)\n"
        "  --worker-wire M     json | binary broker→worker hop (binary)\n"
        "  --retries N         re-attempts per failed worker call (1)\n"
        "  --backoff-ms N      pause before each re-attempt (50)\n"
        "  --pipe              stdin/stdout mode (exit at EOF)\n"
        "  --port N            TCP port, 0 = ephemeral (GF_SERVE_PORT)\n"
        "  --port-file PATH    write the bound TCP port to PATH\n"
        "  --max-inflight N    pipelining window (GF_SERVE_MAX_INFLIGHT)\n"
        "  --credits N         credit window (GF_SERVE_CREDITS)\n"
        "  --wire MODE         auto|json|binary client wires\n"
        "  --threads N         broker pool size (GF_THREADS)\n");
    return 0;
  }
  if (flags.Has("threads")) {
    const auto threads = flags.GetIntOr("threads");
    if (!threads.ok() || *threads < 1) {
      std::fprintf(stderr, "--threads must be a positive integer\n");
      return 2;
    }
    common::ThreadPool::SetDefaultThreadCount(static_cast<int>(*threads));
  }

  fleet::WorkerFleet::Options fleet_options;
  const long long workers = flags.GetInt("workers", 2);
  if (workers < 1 || workers > 256) {
    std::fprintf(stderr, "--workers must be in [1, 256], got %lld\n",
                 workers);
    return 2;
  }
  fleet_options.num_workers = static_cast<int>(workers);
  fleet_options.serverd_path = flags.GetString("serverd", "");
  const long long worker_threads = flags.GetInt("worker-threads", 0);
  if (worker_threads < 0) {
    std::fprintf(stderr, "--worker-threads must be >= 0\n");
    return 2;
  }
  fleet_options.threads = static_cast<int>(worker_threads);
  // serverd's own --cache-mb range, checked here so a bad value names
  // this flag instead of surfacing as a worker that died at startup.
  const long long worker_cache_mb = flags.GetInt("worker-cache-mb", -1);
  if (worker_cache_mb < -1 || worker_cache_mb > (1ll << 40)) {
    std::fprintf(stderr,
                 "--worker-cache-mb must be -1 (worker default) or in "
                 "[0, 2^40], got %lld\n",
                 worker_cache_mb);
    return 2;
  }
  fleet_options.cache_mb = worker_cache_mb;

  // FlagParser ignores unknown flags, so a retired mode must fail loudly
  // rather than silently run as affinity.
  const std::string mode = flags.GetString("mode", "affinity");
  if (mode != "affinity") {
    std::fprintf(stderr,
                 "--mode must be affinity, got \"%s\" (scatter mode was "
                 "removed; affinity is the only routing mode)\n",
                 mode.c_str());
    return 2;
  }
  fleet::BrokerConfig broker_config;
  const long long retries = flags.GetInt("retries", 1);
  if (retries < 0 || retries > 16) {
    std::fprintf(stderr, "--retries must be in [0, 16], got %lld\n",
                 retries);
    return 2;
  }
  broker_config.retries = static_cast<int>(retries);
  const long long backoff_ms = flags.GetInt("backoff-ms", 50);
  if (backoff_ms < 0 || backoff_ms > 60000) {
    std::fprintf(stderr, "--backoff-ms must be in [0, 60000], got %lld\n",
                 backoff_ms);
    return 2;
  }
  broker_config.backoff_ms = static_cast<int>(backoff_ms);

  serve::WireClient::Wire worker_wire = serve::WireClient::Wire::kBinary;
  const std::string worker_wire_flag =
      flags.GetString("worker-wire", "binary");
  if (worker_wire_flag == "json") {
    worker_wire = serve::WireClient::Wire::kJson;
  } else if (worker_wire_flag != "binary") {
    std::fprintf(stderr,
                 "--worker-wire must be json or binary, got \"%s\"\n",
                 worker_wire_flag.c_str());
    return 2;
  }

  serve::ServerConfig server_config = serve::ServerConfigFromEnv();
  if (!flags.Has("port") && server_config.port == 4017) {
    server_config.port = 4018;  // default one above the worker daemon's
  }
  const long long port = flags.GetInt("port", server_config.port);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--port must be in [0, 65535], got %lld\n", port);
    return 2;
  }
  server_config.port = static_cast<int>(port);
  const long long max_inflight =
      flags.GetInt("max-inflight", server_config.max_inflight);
  if (max_inflight < 1 || max_inflight > (1 << 20)) {
    std::fprintf(stderr, "--max-inflight must be in [1, %d], got %lld\n",
                 1 << 20, max_inflight);
    return 2;
  }
  server_config.max_inflight = static_cast<int>(max_inflight);
  const long long credit_window =
      flags.GetInt("credits", server_config.credit_window);
  if (credit_window < 0 || credit_window > (1 << 20)) {
    std::fprintf(stderr, "--credits must be in [0, %d], got %lld\n",
                 1 << 20, credit_window);
    return 2;
  }
  server_config.credit_window = static_cast<int>(credit_window);
  if (flags.Has("wire")) {
    const std::string wire = flags.GetString("wire", "auto");
    if (wire == "json") {
      server_config.wire = serve::ServerConfig::Wire::kJson;
    } else if (wire == "binary") {
      server_config.wire = serve::ServerConfig::Wire::kBinary;
    } else if (wire == "auto") {
      server_config.wire = serve::ServerConfig::Wire::kAuto;
    } else {
      std::fprintf(stderr,
                   "--wire must be auto, json, or binary, got \"%s\"\n",
                   wire.c_str());
      return 2;
    }
  }

  auto fleet_or = fleet::WorkerFleet::Spawn(fleet_options);
  if (!fleet_or.ok()) {
    std::fprintf(stderr, "groupform_brokerd: %s\n",
                 fleet_or.status().ToString().c_str());
    return 1;
  }
  fleet::WorkerFleet worker_fleet = std::move(*fleet_or);
  if (const auto status = worker_fleet.HealthCheck(); !status.ok()) {
    std::fprintf(stderr, "groupform_brokerd: health check: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "groupform_brokerd: %d workers up on ports",
               static_cast<int>(worker_fleet.endpoints().size()));
  for (const fleet::Endpoint& endpoint : worker_fleet.endpoints()) {
    std::fprintf(stderr, " %d", endpoint.port);
  }
  std::fprintf(stderr, "\n");

  fleet::TcpTransport transport(worker_fleet.endpoints(), worker_wire);
  fleet::BrokerSession broker(broker_config, transport);

  if (flags.GetBool("pipe", false)) {
    const long long served = serve::ServePipe(
        broker, std::cin, std::cout, server_config.max_inflight);
    std::fprintf(stderr, "groupform_brokerd: served %lld requests\n",
                 served);
    return 0;
  }

  serve::TcpServer server(broker, server_config);
  if (const auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "groupform_brokerd: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  if (flags.Has("port-file")) {
    const std::string port_file = flags.GetString("port-file", "");
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "groupform_brokerd: cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }
  std::fprintf(stderr,
               "groupform_brokerd: listening on 127.0.0.1:%d (workers=%d, "
               "max_inflight=%d)\n",
               server.port(), fleet_options.num_workers,
               server_config.max_inflight);
  const auto status = server.Serve();
  g_server = nullptr;
  if (!status.ok()) {
    std::fprintf(stderr, "groupform_brokerd: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
