// groupform_serverd — long-lived serving front-end for recommendation-aware
// group formation (DESIGN.md §12, docs/PROTOCOL.md).
//
// Accepts newline-delimited `groupform.request/1` and `groupform.delta/1`
// JSON lines and answers one `groupform.response/1` line per request, in
// request order. Solvers resolve through core::SolverRegistry, execute as
// queued jobs on the shared common::ThreadPool, and instances load once
// into an LRU cache so repeated requests share one rating matrix. Delta
// requests carry a cumulative population-delta sequence against a cached
// instance; the post-delta epoch is materialised copy-on-write and the
// solve warm-starts from the previous epoch where the solver supports it
// (DESIGN.md §13).
//
//   groupform_serverd                         # TCP on 127.0.0.1:4017
//   groupform_serverd --port 0                # ephemeral port (printed)
//   groupform_serverd --pipe < reqs.jsonl     # stdin/stdout, exit at EOF
//
// TCP connections negotiate their wire per connection (DESIGN.md §15):
// a client opening with the GFB1 magic speaks length-prefixed binary
// frames with credit-based backpressure; anything else is newline-JSON.
// `groupform.batch/1` envelopes are accepted on both wires.
//
// Flags:
//   --pipe              serve stdin→stdout instead of TCP
//   --port N            TCP port, 0 = ephemeral                (4017)
//   --max-inflight N    pipelining window per stream, also the binary
//                       wire's credit window                   (4)
//   --cache-mb N        instance cache budget, 0 = unlimited   (256)
//   --threads N         requests solved at once (GF_THREADS, else
//                       hardware; 1 = serial)
//   --user-cap N        server-wide DNF cap for requests that set none
//   --port-file PATH    write the bound TCP port to PATH once listening
//                       (how a supervisor learns an ephemeral port)
//
// A malformed or out-of-range flag value exits 2 and names the flag.
//
// SIGINT/SIGTERM stop the TCP listener; in-flight requests drain first.
// Diagnostics go to stderr; stdout carries only protocol traffic.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;

serve::TcpServer* g_server = nullptr;

void HandleStopSignal(int) {
  // Shutdown only touches an atomic fd with shutdown()/close(), all
  // async-signal-safe; accept() then returns and Serve() drains.
  if (g_server != nullptr) g_server->Shutdown();
}

void LogCacheStats(serve::Session& session) {
  const auto stats = session.cache().stats();
  std::fprintf(stderr,
               "groupform_serverd: instance cache: %lld hits, %lld "
               "misses, %lld evictions, %lld bytes in %d entries\n",
               stats.hits, stats.misses, stats.evictions,
               static_cast<long long>(stats.bytes), stats.entries);
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
  serve::ServerConfig server_config;
  serve::SessionConfig session_config;
  const auto threads =
      flags.GetIntInRange("threads", 0, 1, std::numeric_limits<int>::max());
  const auto port =
      flags.GetIntInRange("port", server_config.port, 0, 65535);
  const auto max_inflight = flags.GetIntInRange(
      "max-inflight", server_config.max_inflight, 1, 1 << 20);
  const auto cache_mb = flags.GetIntInRange(
      "cache-mb", session_config.cache_bytes / (1024 * 1024), 0, 1ll << 40);
  const auto user_cap = flags.GetIntInRange(
      "user-cap", 0, 0, std::numeric_limits<std::int64_t>::max());
  for (const common::Status& status :
       {help.status(), pipe.status(), threads.status(), port.status(),
        max_inflight.status(), cache_mb.status(), user_cap.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 2;
    }
  }
  if (*help) {
    std::printf(
        "groupform_serverd — newline-delimited JSON formation service\n"
        "(groupform.request/1 and groupform.delta/1, docs/PROTOCOL.md)\n\n"
        "  --pipe            stdin/stdout mode (exit at EOF)\n"
        "  --port N          TCP port, 0 = ephemeral (default 4017)\n"
        "  --max-inflight N  pipelining and credit window (default 4)\n"
        "  --cache-mb N      cache budget, 0 = unlimited (default 256)\n"
        "  --threads N       requests solved at once (GF_THREADS)\n"
        "  --user-cap N      default DNF cap for requests that set none\n"
        "  --port-file PATH  write the bound TCP port to PATH\n");
    return 0;
  }
  if (*threads > 0) {
    common::ThreadPool::SetDefaultThreadCount(static_cast<int>(*threads));
  }
  server_config.port = static_cast<int>(*port);
  server_config.max_inflight = static_cast<int>(*max_inflight);
  session_config.cache_bytes = *cache_mb * 1024 * 1024;
  session_config.default_user_cap = *user_cap;

  serve::Session session(session_config);

  if (*pipe) {
    const long long served = serve::ServePipe(
        session, std::cin, std::cout, server_config.max_inflight);
    std::fprintf(stderr, "groupform_serverd: served %lld requests\n",
                 served);
    LogCacheStats(session);
    return 0;
  }

  serve::TcpServer server(session, server_config);
  if (const auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "groupform_serverd: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  if (flags.Has("port-file")) {
    // Written after Start() bound the listener, so a supervisor that
    // polls for this file can connect as soon as it reads the port.
    const std::string port_file = flags.GetString("port-file", "");
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "groupform_serverd: cannot write --port-file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }
  std::fprintf(stderr,
               "groupform_serverd: listening on 127.0.0.1:%d "
               "(max_inflight=%d, cache_mb=%lld, threads=%d)\n",
               server.port(), server_config.max_inflight,
               static_cast<long long>(session_config.cache_bytes) /
                   (1024 * 1024),
               common::ThreadPool::DefaultThreadCount());
  const auto status = server.Serve();
  g_server = nullptr;
  if (!status.ok()) {
    std::fprintf(stderr, "groupform_serverd: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  LogCacheStats(session);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
