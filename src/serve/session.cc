#include "serve/session.h"

#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/constrained.h"
#include "core/delta.h"
#include "core/formation.h"
#include "core/solver_registry.h"
#include "eval/metrics.h"
#include "grouprec/semantics.h"

namespace groupform::serve {
namespace {

using common::Status;

/// An epoch's post-delta matrix as the dense instance a problem is built
/// over.
LoadedInstance AsLoaded(const InstanceCache::EpochInstance& epoch) {
  return LoadedInstance{epoch.matrix, nullptr};
}

/// What the solve step produces: the solution in the solved population's
/// user ids and, for a delta, the previous epoch's objective. `partial`
/// is set when any solve of the route returned a partial result.
struct Solved {
  core::FormationResult current;
  double previous_objective = 0.0;
  bool partial = false;
};

/// The OK packaging of every request: objective, metrics, groups, then
/// the delta extras, partial and seconds. Field-order discipline matters —
/// the renderer emits the delta extras after groups, so an OK delta
/// response matches the fresh-request response byte-for-byte up through
/// groups.
void FillOkResponse(Response& response, const Request& request,
                    const core::FormationProblem& problem,
                    const Solved& solved, double seconds) {
  const core::FormationResult& result = solved.current;
  response.solver = request.solver;
  response.objective = result.objective;
  response.num_groups = result.num_groups();
  response.metrics = eval::ComputeResponseMetrics(problem, result);
  if (request.include_groups) {
    response.has_groups = true;
    response.groups.reserve(result.groups.size());
    for (const core::FormedGroup& group : result.groups) {
      response.groups.push_back(group.members);
    }
  }
  if (request.is_delta) {
    response.objective_delta_vs_previous =
        result.objective - solved.previous_objective;
    response.warm_start_passes = result.refine_passes;
  }
  if (request.record_seconds) response.seconds = seconds;
  response.partial = solved.partial;
  response.floor_violations = result.floor_violations;
}

/// "anytime:"-prefixed solvers own their deadline (DESIGN.md §17.4):
/// serve hands them the remaining budget instead of answering DNF.
bool IsAnytimeSolver(const std::string& solver) {
  return solver.rfind("anytime:", 0) == 0;
}

/// Only the constrained family (DESIGN.md §17) enforces a constraints
/// spec.
bool EnforcesConstraints(const std::string& solver) {
  for (const auto member : core::ConstrainedGreedySolver::kMembers) {
    if (solver == core::ConstrainedGreedySolver::RegistryName(member)) {
      return true;
    }
  }
  return false;
}

/// Memo key of one per-epoch solve: everything that determines the
/// result — epoch, solver, options, problem knobs, seed — plus the
/// route family. The key is built from the client's options, so an
/// injected anytime budget never enters it. The warm fold strips any
/// client-sent start_assignment (the fold derives its own per prefix), so
/// warm keys must not collide across different client-sent values of
/// that option.
std::string SolutionMemoKey(const std::string& epoch_key,
                            const Request& request, bool warm_fold) {
  std::string key = epoch_key;
  key += '#';
  key += request.solver;
  key += '#';
  for (const auto& [name, value] : request.options.entries()) {
    if (warm_fold && name == core::kStartAssignmentKey) continue;
    key += name;
    key += '=';
    key += value;
    key += ';';
  }
  key += common::StrFormat(
      "#%s/%s/%s/k%d/g%d/cd%d#s%llu#%s", request.problem.semantics.c_str(),
      request.problem.aggregation.c_str(), request.problem.missing.c_str(),
      request.problem.k, request.problem.groups,
      request.problem.candidate_depth,
      static_cast<unsigned long long>(request.seed),
      warm_fold ? "warm" : "cold");
  // Constraints change the solution; unconstrained keys keep their
  // historical suffix-free form.
  if (!request.problem.constraints.Empty()) {
    key += "#C";
    key += request.problem.constraints.ToString();
  }
  return key;
}

/// What one solve runs on: the problem and the options the solver is
/// created with.
struct SolveInput {
  core::FormationProblem problem;
  core::SolverOptions options;
};

/// The one memoized per-epoch solve of the delta routes. A memo hit is
/// returned as stored; a miss runs `prepare` (only then — the warm fold
/// checks the deadline and adapts its start there), creates and solves,
/// and stores the result unless it is partial. A memo hit is therefore
/// always a complete solve, which is byte-identical to an unbudgeted run
/// (DESIGN.md §17.4).
template <typename Prepare>  // () -> common::StatusOr<SolveInput>
common::StatusOr<core::FormationResult> MemoizedSolve(
    InstanceCache& cache, const std::string& key, const Request& request,
    const Prepare& prepare) {
  if (const auto hit = cache.GetSolution(key); hit != nullptr) {
    return hit->result;
  }
  GF_ASSIGN_OR_RETURN(const SolveInput input, prepare());
  GF_ASSIGN_OR_RETURN(const auto solver,
                      core::SolverRegistry::Global().Create(
                          request.solver, input.problem, input.options));
  GF_ASSIGN_OR_RETURN(core::FormationResult result,
                      solver->Solve(request.seed));
  if (!result.partial) {
    cache.PutSolution(key,
                      std::make_shared<const InstanceCache::CachedSolution>(
                          InstanceCache::CachedSolution{result}));
  }
  return result;
}

/// Active users after the first `prefix` deltas. Only valid for a prefix
/// of a sequence GetEpoch already accepted: ApplyDeltas rejects any add
/// of an active user and any remove of an inactive one, so counting them
/// is exact. Zero means the prefix emptied the population — a legal state
/// mid-sequence that ApplyDeltas refuses to materialise.
std::int64_t PrefixPopulation(const InstanceCache::EpochInstance& epoch,
                              std::span<const core::PopulationDelta> prefix) {
  std::int64_t users = epoch.base->num_users();
  for (const core::PopulationDelta& delta : prefix) {
    if (delta.kind == core::PopulationDelta::Kind::kAddUser) ++users;
    if (delta.kind == core::PopulationDelta::Kind::kRemoveUser) --users;
  }
  return users;
}

/// The deltas that produce prefix epoch i.
std::span<const core::PopulationDelta> Prefix(const Request& request,
                                              std::size_t i) {
  return std::span(request.deltas.data(), i);
}

/// The warm fold (localsearch deltas, DESIGN.md §13.3): A(0) is a cold
/// solve of the base; A(i) climbs prefix epoch i from AdaptAssignment(
/// A(i-1)). A prefix that empties the population is skipped and the next
/// epoch restarts cold; as the previous epoch it prices at objective 0
/// (docs/PROTOCOL.md). Every prefix solve is memoized, so the fold is a
/// per-step increment on the hot path and the result is identical at
/// every thread count and window.
common::StatusOr<Solved> WarmFold(
    InstanceCache& cache, const Request& request,
    const core::SolverOptions& options,
    const InstanceCache::EpochInstance& epoch,
    const core::FormationProblem& problem,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  Solved solved;
  core::FormationResult previous;
  std::vector<UserId> previous_active;  // empty: solve the next epoch cold
  const std::size_t n = request.deltas.size();
  for (std::size_t i = 0; i <= n; ++i) {
    if (i < n && PrefixPopulation(epoch, Prefix(request, i)) == 0) {
      // solved.previous_objective stays 0 when this is the last prefix.
      previous_active.clear();
      continue;
    }
    InstanceCache::EpochInstance epoch_i;
    if (i == n) {
      epoch_i = epoch;
    } else {
      GF_ASSIGN_OR_RETURN(epoch_i,
                          cache.GetEpoch(request.instance, Prefix(request, i)));
    }
    const auto prepare = [&]() -> common::StatusOr<SolveInput> {
      if (deadline && std::chrono::steady_clock::now() > *deadline) {
        return Status::ResourceExhausted(
            "deadline_ms expired during the warm-start fold");
      }
      SolveInput input;
      for (const auto& [name, value] : options.entries()) {
        // The fold owns the warm start; a client-sent one only applies
        // to the non-delta path.
        if (name == core::kStartAssignmentKey) continue;
        input.options.Set(name, value);
      }
      if (!previous_active.empty()) {
        GF_ASSIGN_OR_RETURN(
            const auto local_start,
            core::CarryAssignment(previous, previous_active,
                                  epoch_i.active_users,
                                  request.problem.groups));
        input.options.SetStartAssignment(local_start);
      }
      if (i == n) {
        input.problem = problem;
      } else {
        GF_ASSIGN_OR_RETURN(input.problem,
                            BuildProblem(request.problem, AsLoaded(epoch_i)));
      }
      return input;
    };
    GF_ASSIGN_OR_RETURN(
        core::FormationResult result_i,
        MemoizedSolve(cache,
                      SolutionMemoKey(epoch_i.key, request, /*warm_fold=*/true),
                      request, prepare));
    solved.partial = solved.partial || result_i.partial;
    if (i == n) {
      solved.current = std::move(result_i);
    } else {
      if (i + 1 == n) solved.previous_objective = result_i.objective;
      previous = std::move(result_i);
      previous_active = epoch_i.active_users;
    }
  }
  if (n == 0) solved.previous_objective = solved.current.objective;
  return solved;
}

/// The cold route (every delta solver but localsearch): memoized cold
/// solves of the epoch and, for the objective delta, its predecessor.
common::StatusOr<Solved> ColdRoute(InstanceCache& cache,
                                   const Request& request,
                                   const core::SolverOptions& options,
                                   const InstanceCache::EpochInstance& epoch,
                                   const core::FormationProblem& problem) {
  const auto cold_solve = [&](const InstanceCache::EpochInstance& target,
                              const core::FormationProblem& target_problem) {
    return MemoizedSolve(
        cache, SolutionMemoKey(target.key, request, /*warm_fold=*/false),
        request, [&]() -> common::StatusOr<SolveInput> {
          return SolveInput{target_problem, options};
        });
  };
  Solved solved;
  GF_ASSIGN_OR_RETURN(solved.current, cold_solve(epoch, problem));
  solved.partial = solved.current.partial;
  if (request.deltas.empty()) {
    solved.previous_objective = solved.current.objective;
    return solved;
  }
  const auto previous_deltas = Prefix(request, request.deltas.size() - 1);
  if (PrefixPopulation(epoch, previous_deltas) == 0) return solved;
  GF_ASSIGN_OR_RETURN(const auto previous_epoch,
                      cache.GetEpoch(request.instance, previous_deltas));
  GF_ASSIGN_OR_RETURN(
      const auto previous_problem,
      BuildProblem(request.problem, AsLoaded(previous_epoch)));
  GF_ASSIGN_OR_RETURN(const auto previous,
                      cold_solve(previous_epoch, previous_problem));
  solved.previous_objective = previous.objective;
  solved.partial = solved.partial || previous.partial;
  return solved;
}

/// A fresh request's solve: no memo, one Create + Solve.
common::StatusOr<Solved> SolveFresh(const Request& request,
                                    const core::SolverOptions& options,
                                    const core::FormationProblem& problem) {
  GF_ASSIGN_OR_RETURN(const auto solver,
                      core::SolverRegistry::Global().Create(
                          request.solver, problem, options));
  Solved solved;
  GF_ASSIGN_OR_RETURN(solved.current, solver->Solve(request.seed));
  solved.partial = solved.current.partial;
  return solved;
}

}  // namespace

common::StatusOr<core::FormationProblem> BuildProblem(
    const ProblemSpec& spec, const LoadedInstance& instance) {
  core::FormationProblem problem;
  problem.matrix = instance.dense.get();
  problem.compact = instance.compact.get();
  GF_ASSIGN_OR_RETURN(problem.semantics,
                      grouprec::SemanticsFromToken(spec.semantics));
  GF_ASSIGN_OR_RETURN(problem.aggregation,
                      grouprec::AggregationFromToken(spec.aggregation));
  GF_ASSIGN_OR_RETURN(problem.missing,
                      grouprec::MissingPolicyFromToken(spec.missing));
  problem.k = spec.k;
  problem.max_groups = spec.groups;
  problem.candidate_depth = spec.candidate_depth;
  problem.constraints = spec.constraints;
  GF_RETURN_IF_ERROR(problem.Validate());
  return problem;
}

Session::Session(SessionConfig config)
    : config_(config), cache_(config.cache_bytes) {}

Response Session::Execute(
    const Request& request,
    std::chrono::steady_clock::time_point received_at) {
  Response response;
  response.id = request.id;
  response.is_delta = request.is_delta;
  const auto fail = [&response](eval::SweepCellState state, Status status) {
    response.state = state;
    response.status = std::move(status);
    return std::move(response);
  };

  // 1. The solver name, before the cache loads or builds anything:
  // loading first would allocate whatever dimensions the client declared.
  if (Status known =
          core::SolverRegistry::Global().CheckRegistered(request.solver);
      !known.ok()) {
    return fail(eval::SweepCellState::kErr, std::move(known));
  }
  // A constraints spec goes to a solver that enforces it, or the request
  // is refused — also before any load. Another solver would answer OK
  // with a partition that ignores the bounds.
  if (!request.problem.constraints.Empty() &&
      !EnforcesConstraints(request.solver)) {
    return fail(eval::SweepCellState::kErr,
                Status::InvalidArgument(common::StrFormat(
                    "solver %s does not enforce constraints; use capgreedy "
                    "(size bounds), pairgreedy (sizes + link pairs) or "
                    "fairgreedy (sizes + links + min_user_sat)",
                    request.solver.c_str())));
  }

  // 2. The user cap, the sweep engine's cap semantics: over-budget
  // populations answer DNF without running (the paper's "omitted"
  // configurations). The cap prices the population actually solved — a
  // delta's epoch. A fresh request that declares its population is
  // priced here, before the load, so a capped request never builds a
  // matrix it will not solve; the others are priced once step 3 has
  // loaded them.
  const std::int64_t user_cap =
      request.user_cap > 0 ? request.user_cap : config_.default_user_cap;
  const auto over_cap = [&](std::int64_t users) {
    return fail(eval::SweepCellState::kDnf,
                Status::ResourceExhausted(common::StrFormat(
                    "%s has %lld users, over the user_cap of %lld",
                    request.is_delta ? "epoch" : "instance",
                    static_cast<long long>(users),
                    static_cast<long long>(user_cap))));
  };
  if (user_cap > 0 && !request.is_delta &&
      DeclaredUsers(request.instance) > user_cap) {
    return over_cap(DeclaredUsers(request.instance));
  }

  // 3. The instance. A delta resolves its epoch: GetEpoch validates the
  // sequence (ApplyDeltas's INVALID_ARGUMENT surface — never a GF_CHECK
  // abort) and materialises the post-delta matrix at most once per epoch
  // key. The held shared_ptrs pin the cache entries for the whole
  // execution.
  LoadedInstance loaded;
  InstanceCache::EpochInstance epoch;
  if (request.is_delta) {
    auto epoch_or = cache_.GetEpoch(request.instance, request.deltas);
    if (!epoch_or.ok()) {
      return fail(eval::SweepCellState::kErr, epoch_or.status());
    }
    epoch = *std::move(epoch_or);
    loaded = AsLoaded(epoch);
    response.epoch = epoch.key;
  } else {
    auto loaded_or = cache_.Get(request.instance);
    if (!loaded_or.ok()) {
      return fail(eval::SweepCellState::kErr, loaded_or.status());
    }
    loaded = *std::move(loaded_or);
  }

  // The populations step 2 could not price: file kinds and epochs.
  if (user_cap > 0 && loaded.Store().num_users() > user_cap) {
    return over_cap(loaded.Store().num_users());
  }

  // 4. The problem.
  auto problem_or = BuildProblem(request.problem, loaded);
  if (!problem_or.ok()) {
    return fail(eval::SweepCellState::kErr, problem_or.status());
  }
  const core::FormationProblem& problem = *problem_or;

  // 5. The deadline. Anytime solvers (DESIGN.md §17.4) own the budget:
  // instead of the expired-before-start DNF, serve hands them the
  // remaining wall-clock as their deadline_ms option (an expired budget
  // becomes 0 — a deterministic partial seed solve). A client-set option
  // wins.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (request.deadline_ms > 0) {
    deadline = received_at + std::chrono::milliseconds(request.deadline_ms);
  }
  const bool anytime = IsAnytimeSolver(request.solver);
  core::SolverOptions options = request.options;
  if (anytime && deadline && !options.Has("deadline_ms")) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            *deadline - std::chrono::steady_clock::now())
            .count();
    options.Set("deadline_ms",
                common::StrFormat("%lld", remaining > 0
                                              ? static_cast<long long>(
                                                    remaining)
                                              : 0LL));
  }
  if (!anytime && deadline && std::chrono::steady_clock::now() > *deadline) {
    return fail(eval::SweepCellState::kDnf,
                Status::ResourceExhausted(
                    "deadline_ms expired before execution started"));
  }

  // 6. Solve. Registry resolution runs the factory's strict GetChecked*
  // option validation — a bad override fails here, exactly as the CLI's
  // --solver-opt does. A delta folds localsearch warm starts forward and
  // cold-solves every other solver, both through the solution memo.
  common::Stopwatch stopwatch;
  common::StatusOr<Solved> solved =
      !request.is_delta ? SolveFresh(request, options, problem)
      : request.solver == "localsearch"
          ? WarmFold(cache_, request, options, epoch, problem, deadline)
          : ColdRoute(cache_, request, options, epoch, problem);
  const double seconds = stopwatch.ElapsedSeconds();

  // 7. Classify and package. The solver's own budget (RESOURCE_EXHAUSTED)
  // is the expected omission the sweep engine renders DNF; everything
  // else is real.
  if (!solved.ok()) {
    const bool dnf = solved.status().code() ==
                     common::StatusCode::kResourceExhausted;
    return fail(dnf ? eval::SweepCellState::kDnf : eval::SweepCellState::kErr,
                solved.status());
  }
  if (!solved->partial && deadline &&
      std::chrono::steady_clock::now() > *deadline) {
    // Finished, but after the client's budget: the result is discarded
    // and the request reports DNF (wall-clock dependent — see the
    // determinism caveat in DESIGN.md §12.4). A partial result is the
    // anytime contract working as intended, never a DNF.
    return fail(eval::SweepCellState::kDnf,
                Status::ResourceExhausted(common::StrFormat(
                    "completed after the %lld ms deadline",
                    static_cast<long long>(request.deadline_ms))));
  }
  FillOkResponse(response, request, problem, *solved, seconds);
  return response;
}

BatchResponse Session::ExecuteBatch(
    const BatchRequest& batch,
    std::chrono::steady_clock::time_point received_at) {
  BatchResponse out;
  out.id = batch.id;
  out.responses.reserve(batch.requests.size());
  for (const Request& request : batch.requests) {
    out.responses.push_back(Execute(request, received_at));
  }
  return out;
}

std::string Session::HandleLine(
    const std::string& line,
    std::chrono::steady_clock::time_point received_at) {
  try {
    auto any_or = ParseAnyRequestLine(line);
    if (!any_or.ok()) return RenderLineError(line, any_or.status());
    if (any_or->is_batch) {
      return RenderBatchResponse(ExecuteBatch(any_or->batch, received_at));
    }
    return RenderResponse(Execute(any_or->request, received_at));
  } catch (const std::exception& error) {
    // Belt and braces: the library is Status-based, but a response line
    // must go out for every request line even if something throws.
    return RenderLineError(line, Status::Internal(error.what()));
  }
}

}  // namespace groupform::serve
