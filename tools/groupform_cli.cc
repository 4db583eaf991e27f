// groupform_cli — run recommendation-aware group formation from the
// command line.
//
//   groupform_cli --input ratings.csv --k 5 --groups 10 --output groups.csv
//   groupform_cli --synthetic yahoo --users 2000 --algorithm localsearch
//   groupform_cli --synthetic yahoo --emit-lp model.lp
//   groupform_cli sweep fig1 --solvers greedy,localsearch --json-dir out/
//   groupform_cli request --port 4017 --algorithm greedy
//       --synthetic yahoo --users 200 --items 100
//
// Without a subcommand the CLI runs locally: it builds the request that
// `request --dump` would print and executes it in process through
// serve::Session, the path groupform_serverd serves, so a local run
// answers — and refuses — exactly what the server would. The request
// flags --deadline-ms and --user-cap apply to local runs too.
//
// Subcommands:
//   sweep [SUITE|all]   run the paper's evaluation sweeps
//                       (eval/paper_sweeps.h); no SUITE lists the
//                       available suites. GF_BENCH_SCALE scales the
//                       instances, GF_BENCH_REPS overrides repetitions.
//       --solvers A,B   restrict registry-driven sweeps to these solvers
//       --json-dir DIR  write BENCH_<suite>.json there
//   request             send one groupform.request/1 line to a running
//                       groupform_serverd (docs/PROTOCOL.md) and print the
//                       response line. The request is assembled from the
//                       data/problem/--algorithm flags below, or passed
//                       verbatim with --raw 'JSON'.
//       --host H --port P   server address (default 127.0.0.1:4017)
//                           spoken over newline-JSON, the canonical wire
//       --batch N           send N copies as one groupform.batch/1
//                           envelope; prints one response line per element
//       --repeat N          send the request (or batch) N times over one
//                           persistent connection — the multi-request
//                           client-reuse path (default 1)
//       --keep-alive        with --repeat: pipeline the repeats through
//                           the server's window instead of waiting out
//                           each round trip
//       --request-id ID     correlation id echoed by the server
//       --deadline-ms N     per-request wall-clock budget (0 = none)
//       --user-cap N        DNF cap on instance size (0 = unlimited)
//       --include-groups    ask for the full partition
//       --record-seconds    ask for server-side wall clock
//       --dump              print the request line instead of sending it
//   delta               send one groupform.delta/1 line: the same request
//                       flags plus a cumulative delta sequence against the
//                       named instance (docs/PROTOCOL.md §groupform.delta/1).
//       --deltas LIST       comma-separated operations, applied in order:
//                           add:U | remove:U | rerate:U:I:R
//                           (e.g. --deltas remove:3,add:3,rerate:0:2:4.5)
//       (plus every `request` flag: --host/--port/--raw/--dump/...)
//   pack                quantize a dense instance (any data flag below)
//                       into a GFCM compact file (DESIGN.md §14), servable
//                       via `request --gfcm FILE` with zero-copy mmap.
//       --qbits 8|16        quantized cell width (default 8)
//       --output PATH       where to write the .gfcm file (required)
//
// Flags:
//   --input PATH        user,item,rating CSV (ids re-indexed densely)
//   --movielens PATH    MovieLens ratings.dat ("user::item::rating::ts")
//   --gfcm PATH         GFCM file (server-side for request/delta), mapped
//                       zero-copy (--backend mmap, default)
//   --backend NAME      instance storage backend: dense | compact | mmap
//                       (docs/PROTOCOL.md); dataset stats print for dense
//   --qbits 8|16        compact quantization width (with --backend compact
//                       or the pack subcommand)
//   --synthetic NAME    yahoo | movielens (shape via --users / --items)
//   --users N --items M --seed S    synthetic shape (default 1000x500)
//   --semantics lm|av   group recommendation semantics (default lm)
//   --aggregation max|min|sum       list aggregation (default min)
//   --k N               list length (default 5)
//   --groups N          max groups, the paper's ell (default 10)
//   --missing rmin|zero|skip        missing-rating policy (default rmin)
//   --min-group-size N  formation constraint: smallest allowed group
//   --max-group-size N  formation constraint: largest allowed group (0 = off)
//   --must-link A:B,... pairs that must share a group (constrained solvers)
//   --cannot-link A:B,...  pairs that must not share a group
//   --min-user-sat X    fairness floor on per-user satisfaction (fairgreedy)
//   --algorithm NAME    any registered solver; see --help for the list
//                       (the choices come from core::SolverRegistry)
//   --algo-seed S       seed for randomized solvers (default 99);
//                       independent of --seed, which shapes synthetic data
//   --solver-opt K=V    forward one option to the solver's factory
//                       (repeatable via commas: "max_passes=10,use_swaps=0")
//   --threads N         worker threads for parallel scoring/experiments
//                       (default: GF_THREADS env, else hardware; 1 = serial)
//   --candidate-depth D residual candidate truncation (0 = full catalogue)
//   --output PATH       write "group,user" CSV of the partition
//   --emit-lp PATH      also write the Appendix-A IP in LP format
//   --deadline-ms N     wall-clock budget (0 = none); DNF on expiry
//   --user-cap N        DNF cap on instance size (0 = unlimited)
//
// A malformed flag value (an integer, number or bool that does not parse,
// or one out of range) exits 2 and names the flag. A local run that the
// server would refuse — say, a constraint flag with a solver that does
// not enforce it — exits 1 with the server's message.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/delta.h"
#include "core/solver_registry.h"
#include "data/binary_io.h"
#include "data/compact_matrix.h"
#include "data/dataset_stats.h"
#include "eval/paper_sweeps.h"
#include "eval/sweep.h"
#include "exact/ip_model.h"
#include "serve/client.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;

/// Reads an integer flag into `*field` the way SolverOptions reads a
/// knob: an absent flag keeps `*field`; a present one must be an integer
/// in [min_value, the field type's maximum], so the cast cannot wrap.
/// The request parser then applies the field's own range.
template <typename Int>
common::Status ReadIntFlag(const common::FlagParser& flags, const char* name,
                           long long min_value, Int* field) {
  constexpr auto kMax = std::min<unsigned long long>(
      std::numeric_limits<Int>::max(),
      std::numeric_limits<long long>::max());
  GF_ASSIGN_OR_RETURN(
      const long long value,
      flags.GetIntInRange(name, static_cast<long long>(*field), min_value,
                          static_cast<long long>(kMax)));
  *field = static_cast<Int>(value);
  return common::Status::Ok();
}

/// Parses a "--must-link/--cannot-link A:B,C:D" pair list.
common::StatusOr<std::vector<std::pair<UserId, UserId>>> ParsePairFlag(
    const common::FlagParser& flags, const char* flag) {
  std::vector<std::pair<UserId, UserId>> pairs;
  for (const std::string& token :
       common::Split(flags.GetString(flag, ""), ',')) {
    const std::string trimmed{common::Trim(token)};
    if (trimmed.empty()) continue;
    const std::vector<std::string> fields = common::Split(trimmed, ':');
    long long a = 0;
    long long b = 0;
    if (fields.size() != 2 || !common::ParseInt64(fields[0], &a) ||
        !common::ParseInt64(fields[1], &b) || a < 0 || b < 0 ||
        a > 2147483647ll || b > 2147483647ll) {
      return common::Status::InvalidArgument(common::StrFormat(
          "--%s token \"%s\": expected A:B with nonnegative user ids",
          flag, trimmed.c_str()));
    }
    pairs.emplace_back(static_cast<UserId>(a), static_cast<UserId>(b));
  }
  return pairs;
}

/// The formation-constraint flags (DESIGN.md §17). An untouched flag
/// set yields the empty spec, so unconstrained invocations are unchanged.
common::StatusOr<core::ConstraintSpec> BuildConstraints(
    const common::FlagParser& flags) {
  core::ConstraintSpec spec;
  GF_RETURN_IF_ERROR(
      ReadIntFlag(flags, "min-group-size", 0, &spec.min_group_size));
  GF_RETURN_IF_ERROR(
      ReadIntFlag(flags, "max-group-size", 0, &spec.max_group_size));
  GF_ASSIGN_OR_RETURN(spec.must_link, ParsePairFlag(flags, "must-link"));
  GF_ASSIGN_OR_RETURN(spec.cannot_link, ParsePairFlag(flags, "cannot-link"));
  if (flags.Has("min-user-sat")) {
    spec.has_min_user_sat = true;
    GF_ASSIGN_OR_RETURN(spec.min_user_sat,
                        flags.GetFiniteDouble("min-user-sat", 0.0));
  }
  GF_RETURN_IF_ERROR(spec.ValidateStructure());
  return spec;
}

/// Parses "--solver-opt k1=v1,k2=v2" into a SolverOptions bag.
core::SolverOptions ParseSolverOptions(const common::FlagParser& flags) {
  core::SolverOptions options;
  for (const std::string& pair :
       common::Split(flags.GetString("solver-opt", ""), ',')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      options.Set(pair, "");  // bare key = boolean true
    } else {
      options.Set(pair.substr(0, eq), pair.substr(eq + 1));
    }
  }
  return options;
}

/// The `sweep` subcommand: runs the paper sweep suites
/// (eval/paper_sweeps.h).
int RunSweepCommand(const common::FlagParser& flags) {
  std::vector<std::string> solvers;
  for (const auto& piece :
       common::Split(flags.GetString("solvers", ""), ',')) {
    const auto trimmed = common::Trim(piece);
    if (!trimmed.empty()) solvers.emplace_back(trimmed);
  }
  const std::string json_dir = flags.GetString("json-dir", "");
  const auto& positional = flags.positional();
  if (positional.size() < 2) {
    // Listing the suites is the documented behavior of a bare `sweep`,
    // not a usage error.
    std::printf(
        "usage: groupform_cli sweep SUITE|all [--solvers A,B] "
        "[--json-dir DIR]\n\navailable suites:\n");
    for (const auto& name : eval::PaperSuiteNames()) {
      const auto suite = eval::MakePaperSuite(name);
      std::printf("  %-10s %s\n", name.c_str(),
                  suite.ok() ? suite->title.c_str() : "");
    }
    return 0;
  }
  const std::string& choice = positional[1];
  if (choice == "all") {
    int exit_code = 0;
    for (const auto& name : eval::PaperSuiteNames()) {
      exit_code = std::max(
          exit_code, eval::RunPaperSuiteMain(name, solvers, json_dir));
      std::printf("\n");
    }
    return exit_code;
  }
  return eval::RunPaperSuiteMain(choice, solvers, json_dir);
}

/// Assembles a protocol request from the CLI's data/problem flags: the
/// request a local run executes in process and `request` sends to a
/// remote groupform_serverd. Every numeric or bool flag is read strictly.
common::StatusOr<serve::Request> BuildRequest(
    const common::FlagParser& flags) {
  serve::Request request;
  request.id = flags.GetString("request-id", "");
  request.solver = flags.GetString("algorithm", "greedy");
  request.options = ParseSolverOptions(flags);
  if (flags.Has("gfcm")) {
    request.instance.kind = "gfcm";
    request.instance.path = flags.GetString("gfcm", "");
  } else if (flags.Has("input")) {
    request.instance.kind = "csv";
    request.instance.path = flags.GetString("input", "");
  } else if (flags.Has("movielens")) {
    request.instance.kind = "movielens";
    request.instance.path = flags.GetString("movielens", "");
  } else {
    request.instance.kind = "synthetic";
    request.instance.preset = flags.GetString("synthetic", "yahoo");
    request.instance.users = 1000;
    request.instance.items = 500;
    GF_RETURN_IF_ERROR(
        ReadIntFlag(flags, "users", 1, &request.instance.users));
    GF_RETURN_IF_ERROR(
        ReadIntFlag(flags, "items", 1, &request.instance.items));
    GF_RETURN_IF_ERROR(
        ReadIntFlag(flags, "seed", 0, &request.instance.seed));
  }
  // Per-kind backend default mirrors the wire protocol: gfcm files map
  // zero-copy unless the client opts out, everything else stays dense.
  request.instance.backend = flags.GetString(
      "backend", request.instance.kind == "gfcm" ? "mmap" : "dense");
  GF_RETURN_IF_ERROR(
      ReadIntFlag(flags, "qbits", 8, &request.instance.qbits));
  request.problem.semantics = flags.GetString("semantics", "lm");
  request.problem.aggregation = flags.GetString("aggregation", "min");
  request.problem.missing = flags.GetString("missing", "rmin");
  GF_RETURN_IF_ERROR(ReadIntFlag(flags, "k", 1, &request.problem.k));
  GF_RETURN_IF_ERROR(
      ReadIntFlag(flags, "groups", 1, &request.problem.groups));
  GF_RETURN_IF_ERROR(ReadIntFlag(flags, "candidate-depth", 0,
                                 &request.problem.candidate_depth));
  GF_ASSIGN_OR_RETURN(request.problem.constraints, BuildConstraints(flags));
  GF_RETURN_IF_ERROR(ReadIntFlag(flags, "algo-seed", 0, &request.seed));
  GF_RETURN_IF_ERROR(
      ReadIntFlag(flags, "deadline-ms", 0, &request.deadline_ms));
  GF_RETURN_IF_ERROR(ReadIntFlag(flags, "user-cap", 0, &request.user_cap));
  GF_ASSIGN_OR_RETURN(request.include_groups,
                      flags.GetCheckedBool("include-groups", false));
  GF_ASSIGN_OR_RETURN(request.record_seconds,
                      flags.GetCheckedBool("record-seconds", false));
  // Round-trip through the parser so every flag value gets the same
  // validation a remote client's JSON would.
  return serve::ParseRequestLine(serve::RenderRequest(request));
}

/// Shared tail of the `request` and `delta` subcommands: print the line
/// under --dump, otherwise send it — over newline-JSON, as a
/// --batch-sized groupform.batch/1 envelope when asked, --repeat times
/// over one persistent connection — and report the response(s), one line
/// per element. Exit 0 when every response is OK/DNF (an expected
/// omission), 1 for any ERR or transport failure.
int DumpOrSendLine(const common::FlagParser& flags,
                   const std::string& line) {
  const auto batch =
      flags.GetIntInRange("batch", 1, 1, serve::kMaxBatchRequests);
  const auto repeat = flags.GetIntInRange("repeat", 1, 1, 1000000);
  const auto port =
      flags.GetIntInRange("port", serve::ServerConfig{}.port, 1, 65535);
  const auto dump = flags.GetCheckedBool("dump", false);
  const auto keep_alive = flags.GetCheckedBool("keep-alive", false);
  for (const common::Status& status :
       {batch.status(), repeat.status(), port.status(), dump.status(),
        keep_alive.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 2;
    }
  }
  if (*dump) {
    if (*batch == 1) {
      std::printf("%s\n", line.c_str());
      return 0;
    }
    const auto request = serve::ParseRequestLine(line);
    if (!request.ok()) {
      std::fprintf(stderr, "building batch: %s\n",
                   request.status().ToString().c_str());
      return 2;
    }
    serve::BatchRequest envelope;
    envelope.requests.assign(static_cast<std::size_t>(*batch), *request);
    std::printf("%s\n", serve::RenderBatchRequest(envelope).c_str());
    return 0;
  }
  const std::string host = flags.GetString("host", "127.0.0.1");
  auto client = serve::WireClient::Connect(host, static_cast<int>(*port),
                                          serve::WireClient::Wire::kJson);
  if (!client.ok()) {
    std::fprintf(stderr, "request: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  // All --repeat sends reuse this one connection. --keep-alive
  // additionally pipelines them (requests stream ahead of responses as
  // far as the server's window allows); without it every send is a
  // strict round trip, still on the same socket.
  std::vector<std::string> responses;
  if (*batch == 1) {
    if (*repeat > 1 && *keep_alive) {
      auto pipelined = client->CallPipelined(
          std::vector<std::string>(static_cast<std::size_t>(*repeat), line));
      if (!pipelined.ok()) {
        std::fprintf(stderr, "request: %s\n",
                     pipelined.status().ToString().c_str());
        return 1;
      }
      responses = *std::move(pipelined);
    } else {
      for (long long i = 0; i < *repeat; ++i) {
        auto response = client->Call(line);
        if (!response.ok()) {
          std::fprintf(stderr, "request: %s\n",
                       response.status().ToString().c_str());
          return 1;
        }
        responses.push_back(*std::move(response));
      }
    }
  } else {
    for (long long i = 0; i < *repeat; ++i) {
      auto unpacked = client->CallBatch(
          std::vector<std::string>(static_cast<std::size_t>(*batch), line));
      if (!unpacked.ok()) {
        std::fprintf(stderr, "request: %s\n",
                     unpacked.status().ToString().c_str());
        return 1;
      }
      for (std::string& response : *unpacked) {
        responses.push_back(std::move(response));
      }
    }
  }
  int exit_code = 0;
  for (const std::string& response : responses) {
    std::printf("%s\n", response.c_str());
    const auto parsed = serve::ParseResponseLine(response);
    if (!parsed.ok()) {
      std::fprintf(stderr, "unparseable response: %s\n",
                   parsed.status().ToString().c_str());
      exit_code = 1;
    } else if (parsed->state == eval::SweepCellState::kErr) {
      exit_code = 1;
    }
  }
  return exit_code;
}

/// The `request` subcommand: loopback client for groupform_serverd.
int RunRequestCommand(const common::FlagParser& flags) {
  std::string line = flags.GetString("raw", "");
  if (line.empty()) {
    const auto request = BuildRequest(flags);
    if (!request.ok()) {
      std::fprintf(stderr, "building request: %s\n",
                   request.status().ToString().c_str());
      return 2;
    }
    line = serve::RenderRequest(*request);
  }
  return DumpOrSendLine(flags, line);
}

/// Parses "--deltas add:U,remove:U,rerate:U:I:R" into the wire sequence.
/// The short op names add/remove are accepted alongside the wire's
/// add_user/remove_user.
common::StatusOr<std::vector<core::PopulationDelta>> ParseDeltasFlag(
    const std::string& text) {
  std::vector<core::PopulationDelta> deltas;
  for (const std::string& token : common::Split(text, ',')) {
    const std::string trimmed{common::Trim(token)};
    if (trimmed.empty()) continue;
    const std::vector<std::string> fields = common::Split(trimmed, ':');
    std::string op = fields[0];
    if (op == "add") op = "add_user";
    if (op == "remove") op = "remove_user";
    core::PopulationDelta delta;
    GF_ASSIGN_OR_RETURN(delta.kind, core::DeltaKindFromString(op));
    const std::size_t want =
        delta.kind == core::PopulationDelta::Kind::kRerate ? 4u : 2u;
    if (fields.size() != want) {
      return common::Status::InvalidArgument(common::StrFormat(
          "--deltas token \"%s\": expected %zu \":\"-separated fields",
          trimmed.c_str(), want));
    }
    long long user = 0;
    if (!common::ParseInt64(fields[1], &user) || user < 0 ||
        user > 2147483647ll) {
      return common::Status::InvalidArgument(
          "--deltas token \"" + trimmed + "\": bad user id");
    }
    delta.user = static_cast<UserId>(user);
    if (delta.kind == core::PopulationDelta::Kind::kRerate) {
      long long item = 0;
      if (!common::ParseInt64(fields[2], &item) || item < 0 ||
          item > 2147483647ll) {
        return common::Status::InvalidArgument(
            "--deltas token \"" + trimmed + "\": bad item id");
      }
      delta.item = static_cast<ItemId>(item);
      double rating = 0.0;
      if (!common::ParseDouble(fields[3], &rating)) {
        return common::Status::InvalidArgument(
            "--deltas token \"" + trimmed + "\": bad rating");
      }
      delta.rating = rating;
    }
    deltas.push_back(delta);
  }
  return deltas;
}

/// The `delta` subcommand: loopback client for groupform.delta/1. Builds
/// the same request envelope as `request`, attaches the --deltas sequence,
/// and re-round-trips through the parser so the delta grammar gets the
/// same validation a remote client's JSON would.
int RunDeltaCommand(const common::FlagParser& flags) {
  std::string line = flags.GetString("raw", "");
  if (line.empty()) {
    auto request = BuildRequest(flags);
    if (!request.ok()) {
      std::fprintf(stderr, "building request: %s\n",
                   request.status().ToString().c_str());
      return 2;
    }
    const auto deltas = ParseDeltasFlag(flags.GetString("deltas", ""));
    if (!deltas.ok()) {
      std::fprintf(stderr, "building request: %s\n",
                   deltas.status().ToString().c_str());
      return 2;
    }
    request->is_delta = true;
    request->deltas = *deltas;
    const auto round =
        serve::ParseRequestLine(serve::RenderRequest(*request));
    if (!round.ok()) {
      std::fprintf(stderr, "building request: %s\n",
                   round.status().ToString().c_str());
      return 2;
    }
    line = serve::RenderRequest(*round);
  }
  return DumpOrSendLine(flags, line);
}

/// The `pack` subcommand: quantize a dense instance into a GFCM file
/// (DESIGN.md §14) that groupform_serverd can map zero-copy.
int RunPackCommand(const common::FlagParser& flags) {
  const std::string out = flags.GetString("output", "");
  if (out.empty()) {
    std::fprintf(stderr, "pack: --output PATH is required\n");
    return 2;
  }
  const auto qbits_flag = flags.GetIntInRange("qbits", 8, 8, 16);
  if (!qbits_flag.ok() || (*qbits_flag != 8 && *qbits_flag != 16)) {
    std::fprintf(stderr, "pack: --qbits must be 8 or 16, got %s\n",
                 flags.GetString("qbits", "").c_str());
    return 2;
  }
  const int qbits = static_cast<int>(*qbits_flag);
  const auto request = BuildRequest(flags);
  if (!request.ok()) {
    std::fprintf(stderr, "building request: %s\n",
                 request.status().ToString().c_str());
    return 2;
  }
  const auto matrix = serve::BuildInstance(request->instance);
  if (!matrix.ok()) {
    std::fprintf(stderr, "loading data: %s\n",
                 matrix.status().ToString().c_str());
    return 1;
  }
  const auto compact = data::CompactRatingMatrix::FromMatrix(*matrix, qbits);
  if (const auto status = data::SaveCompactBinary(compact, out);
      !status.ok()) {
    std::fprintf(stderr, "writing %s: %s\n", out.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf(
      "packed %d users x %d items (%lld ratings) at q%d\n"
      "  dense bytes:   %lld (%.1f per user)\n"
      "  compact bytes: %lld (%.1f per user, %.2fx smaller)\n"
      "  max round-trip error: %.3g\nwrote %s\n",
      matrix->num_users(), matrix->num_items(),
      static_cast<long long>(matrix->num_ratings()), qbits,
      static_cast<long long>(matrix->ByteSize()),
      static_cast<double>(matrix->ByteSize()) / matrix->num_users(),
      static_cast<long long>(compact.ByteSize()),
      static_cast<double>(compact.ByteSize()) / compact.num_users(),
      static_cast<double>(matrix->ByteSize()) /
          static_cast<double>(compact.ByteSize()),
      compact.quant().max_roundtrip_error(), out.c_str());
  return 0;
}

void PrintHelp() {
  std::printf(
      "groupform_cli — recommendation-aware group formation "
      "(RoyLL15, SIGMOD'15)\n\n"
      "subcommand: sweep SUITE|all     reproduce the paper's evaluation\n"
      "            (--solvers A,B --json-dir DIR; `sweep` alone lists "
      "suites)\n"
      "            request             send one request to a running\n"
      "            groupform_serverd (--host H --port P --batch N\n"
      "            --repeat N --keep-alive, docs/PROTOCOL.md)\n"
      "            delta               send one groupform.delta/1 line\n"
      "            (--deltas add:U,remove:U,rerate:U:I:R plus request "
      "flags)\n"
      "            pack --output F.gfcm   quantize a dense instance into\n"
      "            a compact GFCM file (--qbits 8|16; serve it with\n"
      "            `request --gfcm F.gfcm [--backend mmap|compact|dense]`)"
      "\n\n"
      "data:      --input ratings.csv | --movielens ratings.dat |\n"
      "           --synthetic yahoo|movielens --users N --items M --seed S\n"
      "           --gfcm file.gfcm (server-side path for request/delta)\n"
      "backend:   --backend dense|compact|mmap --qbits 8|16\n"
      "problem:   --semantics lm|av --aggregation max|min|sum --k N\n"
      "           --groups N --missing rmin|zero|skip --candidate-depth D\n"
      "constraints: --min-group-size N --max-group-size N\n"
      "           --must-link A:B,C:D --cannot-link A:B --min-user-sat X\n"
      "           (honoured by capgreedy/pairgreedy/fairgreedy and the\n"
      "           wire's problem.constraints object, docs/PROTOCOL.md)\n"
      "execution: --threads N (default GF_THREADS env, else hardware)\n"
      "           --algo-seed S               solver seed (default 99)\n"
      "           --solver-opt k=v[,k=v...]   solver-specific overrides\n"
      "           --deadline-ms N --user-cap N  DNF budgets (0 = none)\n"
      "output:    --output groups.csv --emit-lp model.lp\n\n"
      "--algorithm (from the solver registry):\n");
  const auto& registry = core::SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const auto description = registry.Description(name);
    std::printf("  %-12s %s\n", name.c_str(),
                description.ok() ? description->c_str() : "");
  }
}

/// The local run: the request `request --dump` would print, executed in
/// process through serve::Session — the serving path, with its
/// refusals — and summarised from the response.
int RunLocal(const common::FlagParser& flags) {
  auto request = BuildRequest(flags);
  if (!request.ok()) {
    std::fprintf(stderr, "building request: %s\n",
                 request.status().ToString().c_str());
    return 2;
  }
  request->include_groups = true;
  request->record_seconds = true;
  serve::Session session;
  // Holding the entry pins it, so Execute below hits it.
  const auto loaded = session.cache().Get(request->instance);
  if (!loaded.ok()) {
    std::fprintf(stderr, "loading data: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  if (loaded->dense != nullptr) {  // the quantized backends have no stats
    std::printf("%s", data::StatsToString(
                          data::ComputeStats(*loaded->dense, "input"))
                          .c_str());
  }
  const auto problem = serve::BuildProblem(request->problem, *loaded);
  if (!problem.ok()) {
    std::fprintf(stderr, "%s\n", problem.status().ToString().c_str());
    return 2;
  }
  if (flags.Has("emit-lp")) {
    const auto status = exact::IpModel::WriteLpFile(
        *problem, flags.GetString("emit-lp", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "emitting LP: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.GetString("emit-lp", "").c_str());
  }

  const serve::Response response = session.Execute(*request);
  if (response.state != eval::SweepCellState::kOk) {
    std::fprintf(stderr, "formation: %s\n",
                 response.status.ToString().c_str());
    return 1;
  }
  std::printf("\n%s on %s\n", request->solver.c_str(),
              problem->ToString().c_str());
  std::printf("  objective:              %.3f\n", response.objective);
  std::printf("  groups formed:          %d\n", response.num_groups);
  std::vector<double> group_sizes;
  for (const auto& members : response.groups) {
    group_sizes.push_back(static_cast<double>(members.size()));
  }
  const auto sizes = data::Summarize(std::move(group_sizes));
  std::printf("  group sizes:            min=%.0f median=%.0f max=%.0f\n",
              sizes.min, sizes.median, sizes.max);
  const eval::ResponseMetrics& metrics = response.metrics;
  std::printf("  avg group satisfaction: %.3f\n",
              metrics.avg_group_satisfaction);
  std::printf("  mean user rating:       %.3f\n", metrics.mean_user_rating);
  std::printf("  mean user NDCG@%d:       %.3f\n", problem->k,
              metrics.mean_user_ndcg);
  std::printf("  fully satisfied users:  %.1f%%\n",
              100.0 * metrics.fully_satisfied);
  std::printf("  wall clock:             %.3f s\n", response.seconds);

  if (flags.Has("output")) {
    common::CsvWriter writer;
    writer.AddRow({"group", "user"});
    for (std::size_t g = 0; g < response.groups.size(); ++g) {
      for (UserId u : response.groups[g]) {
        writer.AddRow({common::StrFormat("%zu", g),
                       common::StrFormat("%d", u)});
      }
    }
    const auto status = writer.WriteFile(flags.GetString("output", ""));
    if (!status.ok()) {
      std::fprintf(stderr, "writing output: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.GetString("output", "").c_str());
  }
  return 0;
}

int RealMain(int argc, char** argv) {
  solvers::EnsureBuiltinSolversRegistered();
  common::FlagParser flags;
  if (const auto status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  const auto help = flags.GetCheckedBool("help", false);
  const auto threads = flags.GetIntInRange(
      "threads", 0, 1, std::numeric_limits<int>::max());
  for (const common::Status& status : {help.status(), threads.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 2;
    }
  }
  if (*help) {
    PrintHelp();
    return 0;
  }
  if (*threads > 0) {
    common::ThreadPool::SetDefaultThreadCount(static_cast<int>(*threads));
  }
  const std::string command =
      flags.positional().empty() ? "" : flags.positional()[0];
  if (command == "sweep") return RunSweepCommand(flags);
  if (command == "request") return RunRequestCommand(flags);
  if (command == "delta") return RunDeltaCommand(flags);
  if (command == "pack") return RunPackCommand(flags);
  return RunLocal(flags);
}

}  // namespace

int main(int argc, char** argv) { return RealMain(argc, argv); }
