// gf_layers — the traced run's layer probe.
//
// Replays one workload's request lines through each layer's public entry
// points and times the calls from outside, single-threaded:
//
//   grouprec  GroupScorer::TopKAllItems / TopK on the solved groups
//   core      SolverRegistry greedy and localsearch solves,
//             IncrementalFormer replays, core::ApplyDeltas
//   eval      the four per-response metrics of an OK response
//   serve     ParseAnyRequestLine, RenderResponse, Session::HandleLine,
//             InstanceCache::Get / GetEpoch, and WireClient::Call
//             round trips to a lone groupform_serverd
//   fleet     WireClient::Call round trips to a BrokerSession fronting
//             two groupform_serverd workers, and the HashRing placement
//             of the working set
//
//   gf_layers --lines replay.jsonl --expect replay-expected.jsonl
//             --warm N --cache-mb M --serverd-port P
//             --worker-ports Q1,Q2 --out layers.json
//
// The broker is groupform_brokerd's own wiring (TcpTransport, affinity
// BrokerSession, TcpServer) hosted in this process over workers the
// caller started: groupform_brokerd spawns its workers itself and
// writes their port files under /tmp, outside the benchmark's tree.
//
// The first N lines only warm the caches and the servers; the rest are
// timed. Layers a workload never reaches are priced on its own first
// instance: a fixed eight-user removal sequence for the delta layers, a
// registry solve for whichever solver it does not use.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/delta.h"
#include "core/formation.h"
#include "core/incremental.h"
#include "core/solver_registry.h"
#include "eval/metrics.h"
#include "eval/weighted_objective.h"
#include "fleet/broker.h"
#include "fleet/hash_ring.h"
#include "fleet/transport.h"
#include "grouprec/semantics.h"
#include "recsys/preference_lists.h"
#include "serve/client.h"
#include "serve/instance_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "solvers/builtin.h"

namespace {

using namespace groupform;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "gf_layers: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Must(common::StatusOr<T>&& value, const char* what) {
  if (!value.ok()) Die(std::string(what) + ": " + value.status().ToString());
  return std::move(*value);
}

void Must(const common::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

volatile std::size_t g_sink = 0;

/// Mean microseconds of `fn`, repeated until 2 ms have passed, for calls
/// too short to time one at a time. `fn` returns a size that is kept
/// observable so the call cannot be optimised away.
template <typename Fn>
double MeanUs(Fn&& fn) {
  const auto start = Clock::now();
  long long reps = 0;
  double elapsed_ms = 0.0;
  do {
    g_sink = g_sink + fn();
    ++reps;
    elapsed_ms = Ms(Clock::now() - start);
  } while (elapsed_ms < 2.0);
  return elapsed_ms * 1000.0 / static_cast<double>(reps);
}

/// Milliseconds of one call of `fn`.
template <typename Fn>
double OnceMs(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return Ms(Clock::now() - start);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The request's problem on `instance`, as the session builds it.
core::FormationProblem MakeProblem(const serve::ProblemSpec& spec,
                                   const data::RatingMatrix* dense,
                                   const data::CompactRatingMatrix* compact) {
  core::FormationProblem problem;
  problem.matrix = dense;
  problem.compact = compact;
  problem.semantics =
      Must(grouprec::SemanticsFromToken(spec.semantics), "semantics");
  problem.aggregation =
      Must(grouprec::AggregationFromToken(spec.aggregation), "aggregation");
  problem.missing =
      Must(grouprec::MissingPolicyFromToken(spec.missing), "missing");
  problem.k = spec.k;
  problem.max_groups = spec.groups;
  problem.candidate_depth = spec.candidate_depth;
  problem.constraints = spec.constraints;
  if (const auto status = problem.Validate(); !status.ok()) {
    Die("problem: " + status.ToString());
  }
  return problem;
}

core::FormationResult Solve(const std::string& solver,
                            const core::FormationProblem& problem,
                            const core::SolverOptions& options,
                            std::uint64_t seed) {
  auto created = Must(
      core::SolverRegistry::Global().Create(solver, problem, options),
      "create solver");
  return Must(created->Solve(seed), "solve");
}

/// The session's greedy delta route: IncrementalFormer on the base,
/// forming the previous and the current epoch.
core::FormationResult IncrementalForm(
    const core::FormationProblem& base_problem,
    const std::vector<core::PopulationDelta>& deltas) {
  core::IncrementalFormer former(base_problem);
  former.AddAllUsers();
  const auto apply = [&former](const core::PopulationDelta& delta) {
    const auto status = delta.kind == core::PopulationDelta::Kind::kAddUser
                            ? former.AddUser(delta.user)
                            : former.RemoveUser(delta.user);
    if (!status.ok()) Die("incremental: " + status.ToString());
  };
  for (std::size_t i = 0; i + 1 < deltas.size(); ++i) apply(deltas[i]);
  if (former.num_active() > 0) Must(former.Form(), "form previous");
  if (!deltas.empty()) apply(deltas.back());
  return Must(former.Form(), "form");
}

bool MembershipOnly(const std::vector<core::PopulationDelta>& deltas) {
  return std::none_of(deltas.begin(), deltas.end(), [](const auto& delta) {
    return delta.kind == core::PopulationDelta::Kind::kRerate;
  });
}

/// Accumulated per-layer samples.
struct Layers {
  std::vector<double> topk_all_us, member_cells, topk_candidates_us;
  std::vector<double> localsearch_ms, greedy_ms, incremental_ms, apply_ms;
  double localsearch_passes = 0.0;
  std::vector<double> eval_us, parse_us, render_us, handle_ms, solve_ms;
  std::vector<double> get_hit_us, materialise_ms;
  std::vector<double> request_bytes, response_bytes;
  long long attempted = 0;
  long long failed = 0;
};

/// Prices the grouprec and eval layers on one solved partition.
void PriceResult(const core::FormationProblem& problem,
                 const core::FormationResult& result, Layers& layers) {
  const grouprec::GroupScorer scorer = problem.MakeScorer();
  const data::RatingStore store = problem.Store();
  for (const core::FormedGroup& group : result.groups) {
    if (group.members.empty()) continue;
    double cells = 0.0;
    std::set<ItemId> candidate_set;
    for (const UserId user : group.members) {
      cells += store.NumRatingsOf(user);
      for (const data::RatingEntry& entry :
           recsys::TopKList(store, user, problem.k)) {
        candidate_set.insert(entry.item);
      }
    }
    const std::vector<ItemId> candidates(candidate_set.begin(),
                                         candidate_set.end());
    layers.member_cells.push_back(cells);
    layers.topk_all_us.push_back(MeanUs([&] {
      return scorer.TopKAllItems(group.members, problem.k).items.size();
    }));
    layers.topk_candidates_us.push_back(MeanUs([&] {
      return scorer.TopK(group.members, problem.k, candidates).items.size();
    }));
  }
  layers.eval_us.push_back(MeanUs([&] {
    const double sum = eval::AvgGroupSatisfaction(problem, result) +
                       eval::MeanPerUserSatisfaction(problem, result) +
                       eval::MeanUserNdcg(problem, result) +
                       eval::FullySatisfiedFraction(problem, result);
    return static_cast<std::size_t>(sum);
  }));
}

/// Round trips of `lines`, one connection per port, alternating between
/// the ports line by line so host drift hits both alike. The first
/// `warm` lines only warm the servers.
void RoundTrips(const std::vector<int>& ports,
                const std::vector<std::string>& lines,
                const std::vector<std::string>& expected, std::size_t warm,
                int repeats, std::vector<std::vector<double>>& rtt_ms,
                Layers& layers) {
  std::vector<serve::WireClient> clients;
  for (const int port : ports) {
    clients.push_back(Must(serve::WireClient::Connect(
                               "127.0.0.1", port,
                               serve::WireClient::Wire::kJson),
                           "connect"));
  }
  rtt_ms.assign(ports.size(), {});
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int calls = i < warm ? 1 : repeats;
    for (int r = 0; r < calls; ++r) {
      for (std::size_t p = 0; p < clients.size(); ++p) {
        const auto start = Clock::now();
        const std::string response =
            Must(clients[p].Call(lines[i]), "call");
        const double ms = Ms(Clock::now() - start);
        ++layers.attempted;
        if (response != expected[i]) {
          ++layers.failed;
          std::fprintf(stderr, "gf_layers: port %d answered line %zu "
                       "differently from the reference\n", ports[p], i);
        }
        if (i >= warm) rtt_ms[p].push_back(ms);
      }
    }
  }
}

/// The first `users` users of `base` as a matrix of their own: where a
/// workload's instance is too large for a solver it never runs, that
/// solver is priced on this slice instead.
data::RatingMatrix FirstUsers(const data::RatingMatrix& base, UserId users) {
  std::vector<core::PopulationDelta> drop;
  for (UserId user = users; user < base.num_users(); ++user) {
    drop.push_back({core::PopulationDelta::Kind::kRemoveUser, user});
  }
  return Must(core::MaterializeDeltas(
                  base, Must(core::ApplyDeltas(base, drop), "apply")),
              "materialise");
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  for (const char* required :
       {"--lines", "--expect", "--warm", "--cache-mb", "--serverd-port",
        "--worker-ports", "--out"}) {
    if (!flags.count(required)) Die(std::string("missing ") + required);
  }
  const std::vector<std::string> lines = ReadLines(flags["--lines"]);
  const std::vector<std::string> expected = ReadLines(flags["--expect"]);
  const std::size_t warm = std::stoul(flags["--warm"]);
  const std::int64_t cache_bytes =
      std::stoll(flags["--cache-mb"]) * 1024 * 1024;
  if (lines.size() != expected.size() || warm >= lines.size()) {
    Die("--lines and --expect must match, with lines beyond --warm");
  }

  solvers::EnsureBuiltinSolversRegistered();
  // Single-threaded layer timings: every solve runs on this thread.
  common::ThreadPool::SetDefaultThreadCount(1);
  Layers layers;

  std::vector<serve::Request> requests;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const serve::AnyRequest any =
        Must(serve::ParseAnyRequestLine(lines[i]), "parse");
    if (any.is_batch || any.is_shard) Die("workload lines are single requests");
    requests.push_back(any.request);
    if (i >= warm) {
      layers.parse_us.push_back(MeanUs([&] {
        return serve::ParseAnyRequestLine(lines[i]).ok() ? 1u : 0u;
      }));
    }
  }

  // Session: the whole in-process request path, on a warm cache.
  {
    serve::Session session(serve::SessionConfig{cache_bytes, 0});
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string response;
      const double ms = OnceMs([&] { response = session.HandleLine(lines[i]); });
      if (i < warm) continue;
      layers.handle_ms.push_back(ms);
      ++layers.attempted;
      if (response != expected[i]) {
        ++layers.failed;
        std::fprintf(stderr, "gf_layers: Session::HandleLine answered line "
                     "%zu differently from the reference\n", i);
      }
    }
  }

  // Layer by layer, on a cache of the same budget.
  serve::InstanceCache cache(cache_bytes);
  bool saw_delta = false, saw_localsearch = false, saw_greedy = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::Request& request = requests[i];
    if (i < warm) {
      if (request.is_delta) {
        Must(cache.GetEpoch(request.instance, request.deltas), "epoch");
      } else {
        Must(cache.Get(request.instance), "load");
      }
      continue;
    }
    layers.get_hit_us.push_back(MeanUs([&] {
      return cache.Get(request.instance).ok() ? 1u : 0u;
    }));
    const serve::LoadedInstance loaded =
        Must(cache.Get(request.instance), "load");
    core::FormationResult result;
    core::FormationProblem problem;
    if (!request.is_delta) {
      problem = MakeProblem(request.problem, loaded.dense.get(),
                            loaded.compact.get());
      const double ms = OnceMs([&] {
        result = Solve(request.solver, problem, request.options, request.seed);
      });
      layers.solve_ms.push_back(ms);
      if (request.solver == "localsearch") {
        saw_localsearch = true;
        layers.localsearch_ms.push_back(ms);
        layers.localsearch_passes += result.refine_passes;
      } else if (request.solver == "greedy") {
        saw_greedy = true;
        layers.greedy_ms.push_back(ms);
      }
    } else {
      saw_delta = true;
      if (loaded.dense == nullptr) Die("delta lines need a dense base");
      layers.apply_ms.push_back(OnceMs([&] {
        Must(core::ApplyDeltas(*loaded.dense, request.deltas), "apply");
      }));
      serve::InstanceCache::EpochInstance epoch;
      layers.materialise_ms.push_back(OnceMs([&] {
        epoch = Must(cache.GetEpoch(request.instance, request.deltas),
                     "epoch");
      }));
      problem = MakeProblem(request.problem, epoch.matrix.get(), nullptr);
      if (request.solver == "greedy" && MembershipOnly(request.deltas)) {
        const core::FormationProblem base_problem =
            MakeProblem(request.problem, loaded.dense.get(), nullptr);
        const double ms = OnceMs(
            [&] { result = IncrementalForm(base_problem, request.deltas); });
        layers.incremental_ms.push_back(ms);
        layers.solve_ms.push_back(ms);
        // Base ids to epoch-local ids, as the session does.
        for (core::FormedGroup& group : result.groups) {
          for (UserId& member : group.members) {
            member = static_cast<UserId>(
                std::lower_bound(epoch.active_users.begin(),
                                 epoch.active_users.end(), member) -
                epoch.active_users.begin());
          }
        }
      } else {
        const double ms = OnceMs([&] {
          result =
              Solve(request.solver, problem, request.options, request.seed);
        });
        layers.solve_ms.push_back(ms);
        if (request.solver == "greedy") layers.greedy_ms.push_back(ms);
      }
    }
    PriceResult(problem, result, layers);

    const serve::Response response =
        Must(serve::ParseResponseLine(expected[i]), "parse response");
    layers.render_us.push_back(MeanUs([&] {
      return serve::RenderResponse(response).size();
    }));
    layers.request_bytes.push_back(static_cast<double>(lines[i].size()));
    layers.response_bytes.push_back(static_cast<double>(expected[i].size()));
  }

  // Layers this workload does not reach, priced on its first instance.
  const serve::Request& first = requests[warm];
  const serve::LoadedInstance base = Must(cache.Get(first.instance), "load");
  const core::FormationProblem base_problem =
      MakeProblem(first.problem, base.dense.get(), base.compact.get());
  if (!saw_delta) {
    if (base.dense == nullptr) Die("the delta probe needs a dense instance");
    std::vector<core::PopulationDelta> probe;
    for (UserId user = 0;
         user < std::min<UserId>(8, base.dense->num_users() / 4); ++user) {
      probe.push_back({core::PopulationDelta::Kind::kRemoveUser, user});
    }
    layers.apply_ms.push_back(OnceMs([&] {
      Must(core::ApplyDeltas(*base.dense, probe), "apply");
    }));
    layers.materialise_ms.push_back(OnceMs([&] {
      Must(cache.GetEpoch(first.instance, probe), "epoch");
    }));
    layers.incremental_ms.push_back(
        OnceMs([&] { IncrementalForm(base_problem, probe); }));
  }
  if (!saw_greedy) {
    layers.greedy_ms.push_back(OnceMs([&] {
      Solve("greedy", base_problem, core::SolverOptions(), first.seed);
    }));
  }
  if (!saw_localsearch) {
    // localsearch is superlinear in the population: 2,000 users take
    // ~16 s, so larger instances are priced on their first 128 users.
    constexpr UserId kLocalSearchUsers = 128;
    std::optional<data::RatingMatrix> slice;
    core::FormationProblem problem = base_problem;
    if (base.dense != nullptr &&
        base.dense->num_users() > kLocalSearchUsers) {
      slice.emplace(FirstUsers(*base.dense, kLocalSearchUsers));
      problem = MakeProblem(first.problem, &*slice, nullptr);
    }
    layers.localsearch_ms.push_back(OnceMs([&] {
      layers.localsearch_passes +=
          Solve("localsearch", problem, core::SolverOptions(), first.seed)
              .refine_passes;
    }));
  }

  // Wire and broker hop: one connection each, the same lines. Requests
  // that are not deltas are repeated until each line has had about
  // 100 ms of calls (at most 20), for a steadier median; a repeated delta
  // would hit the memo instead of re-materialising its epoch.
  const double handle_ms = Median(layers.handle_ms);
  const int repeats =
      first.is_delta
          ? 1
          : std::clamp(static_cast<int>(100.0 / std::max(handle_ms, 1e-3)),
                       1, 20);
  std::vector<fleet::Endpoint> workers;
  std::istringstream worker_ports(flags["--worker-ports"]);
  for (std::string port; std::getline(worker_ports, port, ',');) {
    workers.push_back(fleet::Endpoint{"127.0.0.1", std::stoi(port)});
  }
  fleet::TcpTransport transport(workers, serve::WireClient::Wire::kBinary);
  fleet::BrokerConfig broker_config;
  broker_config.session.cache_bytes = cache_bytes;
  fleet::BrokerSession broker(broker_config, transport);
  serve::ServerConfig broker_server_config;
  broker_server_config.port = 0;
  serve::TcpServer broker_server(broker, broker_server_config);
  Must(broker_server.Start(), "broker start");
  std::thread broker_thread([&broker_server] {
    Must(broker_server.Serve(), "broker serve");
  });
  std::vector<std::vector<double>> rtt_ms;
  RoundTrips({std::stoi(flags["--serverd-port"]), broker_server.port()},
             lines, expected, warm, repeats, rtt_ms, layers);
  broker_server.Shutdown();
  broker_thread.join();

  fleet::HashRing ring(static_cast<int>(workers.size()));
  std::set<std::string> keys;
  for (const serve::Request& request : requests) {
    keys.insert(request.instance.CanonicalKey());
  }
  std::map<int, int> per_worker;
  for (const std::string& key : keys) ++per_worker[ring.WorkerFor(key)];
  int largest = 0;
  for (const auto& [worker, count] : per_worker) {
    largest = std::max(largest, count);
  }

  const double wire_rtt_ms = Median(rtt_ms[0]);
  const double broker_rtt_ms = Median(rtt_ms[1]);
  // The hop is the median over calls of broker minus lone round trip of
  // the same line, back to back, so line size and slow host drift
  // cancel.
  std::vector<double> hop_ms;
  for (std::size_t i = 0; i < rtt_ms[0].size(); ++i) {
    hop_ms.push_back(rtt_ms[1][i] - rtt_ms[0][i]);
  }
  const double solve_ms = Median(layers.solve_ms);
  const std::vector<std::pair<const char*, double>> out = {
      {"grouprec.topk_all_us", Mean(layers.topk_all_us)},
      {"grouprec.member_cells", Mean(layers.member_cells)},
      {"grouprec.topk_candidates_us", Mean(layers.topk_candidates_us)},
      {"solver.localsearch_ms", Mean(layers.localsearch_ms)},
      {"solver.localsearch_passes", layers.localsearch_passes},
      {"solver.greedy_ms", Mean(layers.greedy_ms)},
      {"solver.incremental_form_ms", Mean(layers.incremental_ms)},
      {"delta.apply_ms", Mean(layers.apply_ms)},
      {"eval.response_metrics_us", Mean(layers.eval_us)},
      {"session.parse_us", Mean(layers.parse_us)},
      {"session.render_us", Mean(layers.render_us)},
      {"session.handle_ms", handle_ms},
      {"session.overhead_ms", handle_ms - solve_ms},
      {"cache.get_hit_us", Mean(layers.get_hit_us)},
      {"cache.epoch_materialise_ms", Mean(layers.materialise_ms)},
      {"wire.rtt_ms", wire_rtt_ms},
      {"wire.overhead_ms", wire_rtt_ms - handle_ms},
      {"wire.request_bytes", Mean(layers.request_bytes)},
      {"wire.response_bytes", Mean(layers.response_bytes)},
      {"broker.rtt_ms", broker_rtt_ms},
      {"broker.hop_ms", Median(hop_ms)},
      {"broker.route_max_share",
       static_cast<double>(largest) / static_cast<double>(keys.size())},
      {"attempted", static_cast<double>(layers.attempted)},
      {"failed", static_cast<double>(layers.failed)},
  };
  std::FILE* file = std::fopen(flags["--out"].c_str(), "w");
  if (file == nullptr) Die("cannot write " + flags["--out"]);
  std::fprintf(file, "{");
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::fprintf(file, "%s\"%s\":%.17g", i == 0 ? "" : ",", out[i].first,
                 out[i].second);
  }
  std::fprintf(file, "}\n");
  std::fclose(file);
  return 0;
}
