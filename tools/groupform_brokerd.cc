// groupform_brokerd — multi-process serving front-end (DESIGN.md §16,
// docs/PROTOCOL.md "Broker transparency").
//
// Spawns and supervises a fleet of groupform_serverd worker processes on
// ephemeral loopback ports, then serves the ordinary wire protocol —
// newline-JSON and GFB1 binary, single documents and batch envelopes —
// routing every request by instance affinity: its instance cache key
// consistent-hashes to one worker, which answers it verbatim over
// newline-JSON. The fleet splits the instance-cache working set N ways.
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
//   --worker-threads N  requests each worker solves at once
//                       (0 = worker default)
//   --worker-cache-mb N per-worker instance cache budget, -1 = the
//                       worker default, else as serverd --cache-mb (-1)
//   --retries N         per-request re-attempts after a failed worker
//                       call                                (1)
//   --backoff-ms N      pause before each re-attempt        (50)
//   --pipe              serve stdin→stdout instead of TCP
//   --port N            TCP port, 0 = ephemeral             (4018)
//   --port-file PATH    write the bound TCP port to PATH
//   --max-inflight N    pipelining and credit window        (4)
//   --threads N         requests the broker forwards at once (GF_THREADS)
//
// A malformed or out-of-range flag value exits 2 and names the flag.
//
// SIGINT/SIGTERM stop the listener, drain in-flight requests, and tear
// the worker fleet down (SIGTERM + waitpid).
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>

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
  const auto help = flags.GetCheckedBool("help", false);
  const auto pipe = flags.GetCheckedBool("pipe", false);
  // A malformed or out-of-range value is a startup error, not a silent
  // fallback to the default.
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  serve::ServerConfig server_config;
  server_config.port = 4018;  // one above the worker daemon's default
  const auto threads = flags.GetIntInRange("threads", 0, 1, kIntMax);
  const auto workers = flags.GetIntInRange("workers", 2, 1, 256);
  const auto worker_threads =
      flags.GetIntInRange("worker-threads", 0, 0, kIntMax);
  // serverd's own --cache-mb range (-1 = the worker default), checked
  // here so a bad value names this flag instead of surfacing as a worker
  // that died at startup.
  const auto worker_cache_mb =
      flags.GetIntInRange("worker-cache-mb", -1, -1, 1ll << 40);
  const auto retries = flags.GetIntInRange("retries", 1, 0, 16);
  const auto backoff_ms = flags.GetIntInRange("backoff-ms", 50, 0, 60000);
  const auto port =
      flags.GetIntInRange("port", server_config.port, 0, 65535);
  const auto max_inflight = flags.GetIntInRange(
      "max-inflight", server_config.max_inflight, 1, 1 << 20);
  for (const common::Status& status :
       {help.status(), pipe.status(), threads.status(), workers.status(),
        worker_threads.status(), worker_cache_mb.status(), retries.status(),
        backoff_ms.status(), port.status(), max_inflight.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 2;
    }
  }
  if (*help) {
    std::printf(
        "groupform_brokerd — broker fronting a groupform_serverd fleet\n"
        "(same wire protocol as a single server, docs/PROTOCOL.md)\n\n"
        "  --workers N         worker processes (default 2)\n"
        "  --mode M            affinity (the only routing mode)\n"
        "  --serverd PATH      worker binary (default: sibling)\n"
        "  --worker-threads N  requests each worker solves at once "
        "(0 = worker default)\n"
        "  --worker-cache-mb N per-worker cache budget (-1 = default)\n"
        "  --retries N         re-attempts per failed worker call (1)\n"
        "  --backoff-ms N      pause before each re-attempt (50)\n"
        "  --pipe              stdin/stdout mode (exit at EOF)\n"
        "  --port N            TCP port, 0 = ephemeral (default 4018)\n"
        "  --port-file PATH    write the bound TCP port to PATH\n"
        "  --max-inflight N    pipelining and credit window (default 4)\n"
        "  --threads N         requests forwarded at once (GF_THREADS)\n");
    return 0;
  }
  if (*threads > 0) {
    common::ThreadPool::SetDefaultThreadCount(static_cast<int>(*threads));
  }
  fleet::WorkerFleet::Options fleet_options;
  fleet_options.num_workers = static_cast<int>(*workers);
  fleet_options.serverd_path = flags.GetString("serverd", "");
  fleet_options.threads = static_cast<int>(*worker_threads);
  fleet_options.cache_mb = *worker_cache_mb;
  fleet::BrokerConfig broker_config;
  broker_config.retries = static_cast<int>(*retries);
  broker_config.backoff_ms = static_cast<int>(*backoff_ms);
  server_config.port = static_cast<int>(*port);
  server_config.max_inflight = static_cast<int>(*max_inflight);

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

  fleet::TcpTransport transport(worker_fleet.endpoints(),
                                serve::WireClient::Wire::kJson);
  fleet::BrokerSession broker(broker_config, transport);

  if (*pipe) {
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
