#include "serve/session.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/delta.h"
#include "core/formation.h"
#include "core/incremental.h"
#include "core/solver_registry.h"
#include "eval/metrics.h"
#include "eval/weighted_objective.h"
#include "grouprec/semantics.h"

namespace groupform::serve {
namespace {

using common::Status;

Response FailWith(Response response, eval::SweepCellState state,
                  Status status) {
  response.state = state;
  response.status = std::move(status);
  return response;
}

/// ProblemSpec → FormationProblem knobs, via the shared token mappings
/// in grouprec/semantics.h (the same ones the CLI flags use). The caller
/// sets the rating backend before this runs Validate().
common::Status FillProblem(const ProblemSpec& spec,
                           core::FormationProblem& problem) {
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
  return problem.Validate();
}

common::StatusOr<core::FormationProblem> BuildProblem(
    const ProblemSpec& spec, const data::RatingMatrix& matrix) {
  core::FormationProblem problem;
  problem.matrix = &matrix;
  GF_RETURN_IF_ERROR(FillProblem(spec, problem));
  return problem;
}

/// The backend-polymorphic overload of the fresh-request path: the
/// problem reads whichever backend the cache loaded (dense, compact, or
/// mmap), through the same FormationProblem::Store() seam the solvers
/// use. `instance` must outlive the solve — the problem holds raw
/// pointers into its shared_ptrs.
common::StatusOr<core::FormationProblem> BuildProblem(
    const ProblemSpec& spec, const LoadedInstance& instance) {
  core::FormationProblem problem;
  problem.matrix = instance.dense.get();
  problem.compact = instance.compact.get();
  GF_RETURN_IF_ERROR(FillProblem(spec, problem));
  return problem;
}

/// The shared OK packaging of Execute and ExecuteDelta: objective,
/// metrics, groups, seconds. Field-order discipline matters — the
/// renderer emits these before the delta extras, so an OK delta response
/// matches the fresh-request response byte-for-byte up through groups.
void FillOkResponse(Response& response, const Request& request,
                    const core::FormationProblem& problem,
                    const core::FormationResult& result, double seconds) {
  response.solver = request.solver;
  response.objective = result.objective;
  response.num_groups = result.num_groups();
  response.metrics.avg_group_satisfaction =
      eval::AvgGroupSatisfaction(problem, result);
  response.metrics.mean_user_rating =
      eval::MeanPerUserSatisfaction(problem, result);
  response.metrics.mean_user_ndcg = eval::MeanUserNdcg(problem, result);
  response.metrics.fully_satisfied =
      eval::FullySatisfiedFraction(problem, result);
  if (request.include_groups) {
    response.has_groups = true;
    response.groups.reserve(result.groups.size());
    for (const core::FormedGroup& group : result.groups) {
      response.groups.push_back(group.members);
    }
  }
  if (request.record_seconds) response.seconds = seconds;
  response.partial = result.partial;
  response.floor_violations = result.floor_violations;
}

/// "anytime:"-prefixed solvers own their deadline (DESIGN.md §17.4):
/// serve hands them the remaining budget instead of answering DNF.
bool IsAnytimeSolver(const std::string& solver) {
  return solver.rfind("anytime:", 0) == 0;
}

/// Memo key of one per-epoch solve: everything that determines the
/// result — epoch, solver, options, problem knobs, seed — plus the
/// route family. The warm fold strips any client-sent start_assignment
/// (the fold derives its own per prefix), so warm keys must not collide
/// across different client-sent values of that option.
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

/// What a delta route produces: the current epoch's solution in
/// epoch-local user ids, plus the previous epoch's objective.
struct DeltaSolve {
  core::FormationResult current;
  double previous_objective = 0.0;
};

/// The greedy fast path: core::IncrementalFormer on the *base* problem,
/// replaying the membership deltas instead of re-solving the epoch from
/// scratch. Form() ≡ GreedyFormer on the active population and the
/// active→local id map is monotone, so after remapping this is
/// byte-identical to a fresh greedy solve of the epoch matrix.
common::StatusOr<DeltaSolve> SolveGreedyDelta(
    const core::FormationProblem& base_problem, const Request& request,
    const InstanceCache::EpochInstance& epoch) {
  core::IncrementalFormer former(base_problem);
  former.AddAllUsers();
  const auto apply = [&former](const core::PopulationDelta& delta) {
    return delta.kind == core::PopulationDelta::Kind::kAddUser
               ? former.AddUser(delta.user)
               : former.RemoveUser(delta.user);
  };
  const std::size_t n = request.deltas.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    GF_RETURN_IF_ERROR(apply(request.deltas[i]));
  }
  DeltaSolve solve;
  if (former.num_active() == 0) {
    // The previous prefix removed everyone (the full sequence re-adds at
    // least one user, or ApplyDeltas would have rejected it).
    solve.previous_objective = 0.0;
  } else {
    GF_ASSIGN_OR_RETURN(const core::FormationResult previous,
                        former.Form());
    solve.previous_objective = previous.objective;
  }
  if (n > 0) GF_RETURN_IF_ERROR(apply(request.deltas[n - 1]));
  GF_ASSIGN_OR_RETURN(solve.current, former.Form());
  // Base ids → epoch-local ids. The map is monotone, so members stay
  // sorted and group order is untouched.
  for (core::FormedGroup& group : solve.current.groups) {
    for (UserId& member : group.members) {
      const auto it =
          std::lower_bound(epoch.active_users.begin(),
                           epoch.active_users.end(), member);
      member = static_cast<UserId>(it - epoch.active_users.begin());
    }
  }
  return solve;
}

}  // namespace

Session::Session(SessionConfig config)
    : config_(config), cache_(config.cache_bytes) {}

Response Session::Execute(
    const Request& request,
    std::chrono::steady_clock::time_point received_at) {
  auto loaded_or = cache_.Get(request.instance);
  if (!loaded_or.ok()) {
    Response response;
    response.id = request.id;
    return FailWith(std::move(response), eval::SweepCellState::kErr,
                    loaded_or.status());
  }
  // The shared_ptrs pin the cache entry for the whole execution.
  const LoadedInstance loaded = *std::move(loaded_or);
  return ExecuteLoaded(request, received_at, loaded);
}

Response Session::ExecuteLoaded(
    const Request& request,
    std::chrono::steady_clock::time_point received_at,
    const LoadedInstance& loaded) {
  Response response;
  response.id = request.id;

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (request.deadline_ms > 0) {
    deadline = received_at + std::chrono::milliseconds(request.deadline_ms);
  }

  const data::RatingStore store = loaded.Store();

  // The sweep engine's cap semantics: over-budget instances answer DNF
  // without running (the paper's "omitted" configurations).
  const std::int64_t user_cap =
      request.user_cap > 0 ? request.user_cap : config_.default_user_cap;
  if (user_cap > 0 && store.num_users() > user_cap) {
    return FailWith(
        std::move(response), eval::SweepCellState::kDnf,
        Status::ResourceExhausted(common::StrFormat(
            "instance has %d users, over the user_cap of %lld",
            store.num_users(), static_cast<long long>(user_cap))));
  }

  auto problem_or = BuildProblem(request.problem, loaded);
  if (!problem_or.ok()) {
    return FailWith(std::move(response), eval::SweepCellState::kErr,
                    problem_or.status());
  }
  const core::FormationProblem& problem = *problem_or;

  // Anytime solvers (DESIGN.md §17.4) own the budget: instead of the
  // expired-before-start DNF, serve hands them the remaining wall-clock
  // as their deadline_ms option (an expired budget becomes 0 — a
  // deterministic partial seed solve). A client-set option wins.
  const bool anytime = IsAnytimeSolver(request.solver);
  core::SolverOptions options = request.options;
  if (anytime && deadline) {
    bool client_set = false;
    for (const auto& [name, value] : options.entries()) {
      if (name == "deadline_ms") client_set = true;
    }
    if (!client_set) {
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
  }
  if (!anytime && deadline && std::chrono::steady_clock::now() > *deadline) {
    return FailWith(std::move(response), eval::SweepCellState::kDnf,
                    Status::ResourceExhausted(
                        "deadline_ms expired before execution started"));
  }

  // Registry resolution runs the factory's strict GetChecked* option
  // validation — a bad override fails here, exactly as the CLI's
  // --solver-opt does.
  auto solver_or = core::SolverRegistry::Global().Create(
      request.solver, problem, options);
  if (!solver_or.ok()) {
    return FailWith(std::move(response), eval::SweepCellState::kErr,
                    solver_or.status());
  }

  common::Stopwatch stopwatch;
  auto result_or = (*solver_or)->Solve(request.seed);
  const double seconds = stopwatch.ElapsedSeconds();
  if (!result_or.ok()) {
    // The solver's own budget (RESOURCE_EXHAUSTED) is the expected
    // omission the sweep engine renders DNF; everything else is real.
    const bool dnf = result_or.status().code() ==
                     common::StatusCode::kResourceExhausted;
    return FailWith(
        std::move(response),
        dnf ? eval::SweepCellState::kDnf : eval::SweepCellState::kErr,
        result_or.status());
  }
  const core::FormationResult& result = *result_or;

  if (!result.partial && deadline &&
      std::chrono::steady_clock::now() > *deadline) {
    // Finished, but after the client's budget: the result is discarded
    // and the request reports DNF (wall-clock dependent — see the
    // determinism caveat in DESIGN.md §12.4). A partial result is the
    // anytime contract working as intended, never a DNF.
    return FailWith(std::move(response), eval::SweepCellState::kDnf,
                    Status::ResourceExhausted(common::StrFormat(
                        "completed after the %lld ms deadline",
                        static_cast<long long>(request.deadline_ms))));
  }

  FillOkResponse(response, request, problem, result, seconds);
  return response;
}

Response Session::ExecuteDelta(
    const Request& request,
    std::chrono::steady_clock::time_point received_at) {
  Response response;
  response.id = request.id;
  response.is_delta = true;

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (request.deadline_ms > 0) {
    deadline = received_at + std::chrono::milliseconds(request.deadline_ms);
  }

  // Resolve the epoch: validates the sequence (ApplyDeltas's
  // INVALID_ARGUMENT surface — never a GF_CHECK abort) and materialises
  // the post-delta matrix at most once per epoch key.
  auto epoch_or = cache_.GetEpoch(request.instance, request.deltas);
  if (!epoch_or.ok()) {
    return FailWith(std::move(response), eval::SweepCellState::kErr,
                    epoch_or.status());
  }
  const InstanceCache::EpochInstance epoch = *std::move(epoch_or);
  response.epoch = epoch.key;

  // The cap prices the population actually solved — the epoch's.
  const std::int64_t user_cap =
      request.user_cap > 0 ? request.user_cap : config_.default_user_cap;
  if (user_cap > 0 && epoch.matrix->num_users() > user_cap) {
    return FailWith(
        std::move(response), eval::SweepCellState::kDnf,
        Status::ResourceExhausted(common::StrFormat(
            "epoch has %d users, over the user_cap of %lld",
            epoch.matrix->num_users(), static_cast<long long>(user_cap))));
  }

  auto problem_or = BuildProblem(request.problem, *epoch.matrix);
  if (!problem_or.ok()) {
    return FailWith(std::move(response), eval::SweepCellState::kErr,
                    problem_or.status());
  }
  const core::FormationProblem& problem = *problem_or;

  if (deadline && std::chrono::steady_clock::now() > *deadline) {
    return FailWith(std::move(response), eval::SweepCellState::kDnf,
                    Status::ResourceExhausted(
                        "deadline_ms expired before execution started"));
  }

  const bool membership_only = std::none_of(
      request.deltas.begin(), request.deltas.end(),
      [](const core::PopulationDelta& delta) {
        return delta.kind == core::PopulationDelta::Kind::kRerate;
      });

  // Route B: localsearch folds a warm start forward, one prefix epoch at
  // a time. A(0) is a cold solve of the base; A(i) climbs epoch i from
  // AdaptAssignment(A(i-1)). Every prefix solve is memoized under a
  // canonical key, so the fold is a per-step increment on the hot path
  // and the result is identical at every thread count and window.
  const auto warm_fold = [&]() -> common::StatusOr<DeltaSolve> {
    DeltaSolve solve;
    core::FormationResult previous;
    std::vector<UserId> previous_active;
    const std::size_t n = request.deltas.size();
    for (std::size_t i = 0; i <= n; ++i) {
      InstanceCache::EpochInstance epoch_i;
      if (i == n) {
        epoch_i = epoch;
      } else {
        GF_ASSIGN_OR_RETURN(
            epoch_i,
            cache_.GetEpoch(request.instance,
                            std::span(request.deltas.data(), i)));
      }
      const std::string key =
          SolutionMemoKey(epoch_i.key, request, /*warm_fold=*/true);
      core::FormationResult result_i;
      if (const auto hit = cache_.GetSolution(key); hit != nullptr) {
        result_i = hit->result;
      } else {
        if (deadline && std::chrono::steady_clock::now() > *deadline) {
          return Status::ResourceExhausted(
              "deadline_ms expired during the warm-start fold");
        }
        core::SolverOptions options_i;
        for (const auto& [name, value] : request.options.entries()) {
          // The fold owns the warm start; a client-sent one only applies
          // to the non-delta path.
          if (name == core::kStartAssignmentKey) continue;
          options_i.Set(name, value);
        }
        if (i > 0) {
          std::vector<std::vector<UserId>> carried;
          carried.reserve(previous.groups.size());
          for (const core::FormedGroup& group : previous.groups) {
            std::vector<UserId> members;
            members.reserve(group.members.size());
            for (const UserId local : group.members) {
              members.push_back(
                  previous_active[static_cast<std::size_t>(local)]);
            }
            carried.push_back(std::move(members));
          }
          const auto adapted = core::AdaptAssignment(
              carried, epoch_i.active_users, request.problem.groups);
          GF_ASSIGN_OR_RETURN(
              const auto local_start,
              core::AssignmentToLocal(adapted, epoch_i.active_users));
          options_i.SetStartAssignment(local_start);
        }
        core::FormationProblem problem_i;
        if (i == n) {
          problem_i = problem;
        } else {
          GF_ASSIGN_OR_RETURN(
              problem_i, BuildProblem(request.problem, *epoch_i.matrix));
        }
        GF_ASSIGN_OR_RETURN(const auto solver,
                            core::SolverRegistry::Global().Create(
                                request.solver, problem_i, options_i));
        GF_ASSIGN_OR_RETURN(result_i, solver->Solve(request.seed));
        cache_.PutSolution(
            key, std::make_shared<const InstanceCache::CachedSolution>(
                     InstanceCache::CachedSolution{result_i}));
      }
      if (i == n) {
        solve.current = std::move(result_i);
      } else {
        if (i + 1 == n) solve.previous_objective = result_i.objective;
        previous = std::move(result_i);
        previous_active = epoch_i.active_users;
      }
    }
    if (n == 0) solve.previous_objective = solve.current.objective;
    return solve;
  };

  // Route C: memoized cold solves of the epoch and (for the objective
  // delta) its predecessor. Also the greedy route once rerates are in
  // play — IncrementalFormer maintains membership, not ratings.
  const auto cold_solve =
      [&](const InstanceCache::EpochInstance& target,
          const core::FormationProblem& target_problem)
      -> common::StatusOr<core::FormationResult> {
    const std::string key =
        SolutionMemoKey(target.key, request, /*warm_fold=*/false);
    if (const auto hit = cache_.GetSolution(key); hit != nullptr) {
      return hit->result;
    }
    GF_ASSIGN_OR_RETURN(const auto solver,
                        core::SolverRegistry::Global().Create(
                            request.solver, target_problem,
                            request.options));
    GF_ASSIGN_OR_RETURN(core::FormationResult result,
                        solver->Solve(request.seed));
    cache_.PutSolution(
        key, std::make_shared<const InstanceCache::CachedSolution>(
                 InstanceCache::CachedSolution{result}));
    return result;
  };
  const auto resolve = [&]() -> common::StatusOr<DeltaSolve> {
    DeltaSolve solve;
    GF_ASSIGN_OR_RETURN(solve.current, cold_solve(epoch, problem));
    if (request.deltas.empty()) {
      solve.previous_objective = solve.current.objective;
      return solve;
    }
    GF_ASSIGN_OR_RETURN(
        const auto previous_epoch,
        cache_.GetEpoch(request.instance,
                        std::span(request.deltas.data(),
                                  request.deltas.size() - 1)));
    GF_ASSIGN_OR_RETURN(
        const auto previous_problem,
        BuildProblem(request.problem, *previous_epoch.matrix));
    GF_ASSIGN_OR_RETURN(const auto previous,
                        cold_solve(previous_epoch, previous_problem));
    solve.previous_objective = previous.objective;
    return solve;
  };

  common::Stopwatch stopwatch;
  common::StatusOr<DeltaSolve> solved = [&]() {
    if (request.solver == "greedy" && membership_only) {
      // Route A needs the *base* problem — the former replays deltas on
      // the base matrix.
      auto base_problem_or = BuildProblem(request.problem, *epoch.base);
      if (!base_problem_or.ok()) {
        return common::StatusOr<DeltaSolve>(base_problem_or.status());
      }
      return SolveGreedyDelta(*base_problem_or, request, epoch);
    }
    if (request.solver == "localsearch") return warm_fold();
    return resolve();
  }();
  const double seconds = stopwatch.ElapsedSeconds();
  if (!solved.ok()) {
    const bool dnf = solved.status().code() ==
                     common::StatusCode::kResourceExhausted;
    return FailWith(
        std::move(response),
        dnf ? eval::SweepCellState::kDnf : eval::SweepCellState::kErr,
        solved.status());
  }

  if (!solved->current.partial && deadline &&
      std::chrono::steady_clock::now() > *deadline) {
    return FailWith(std::move(response), eval::SweepCellState::kDnf,
                    Status::ResourceExhausted(common::StrFormat(
                        "completed after the %lld ms deadline",
                        static_cast<long long>(request.deadline_ms))));
  }

  FillOkResponse(response, request, problem, solved->current, seconds);
  response.objective_delta_vs_previous =
      solved->current.objective - solved->previous_objective;
  response.warm_start_passes = solved->current.refine_passes;
  return response;
}

BatchResponse Session::ExecuteBatch(
    const BatchRequest& batch,
    std::chrono::steady_clock::time_point received_at) {
  BatchResponse out;
  out.id = batch.id;
  out.responses.reserve(batch.requests.size());
  // Batch-local pins: one cache round-trip per distinct spec, bounded so
  // a pathological batch cannot pin an unbounded working set against the
  // LRU's byte budget.
  constexpr std::size_t kMaxPinnedInstances = 16;
  std::unordered_map<std::string, LoadedInstance> pinned;
  for (const Request& request : batch.requests) {
    if (request.is_delta) {
      out.responses.push_back(ExecuteDelta(request, received_at));
      continue;
    }
    const std::string key = request.instance.CanonicalKey();
    const auto it = pinned.find(key);
    if (it != pinned.end()) {
      out.responses.push_back(ExecuteLoaded(request, received_at, it->second));
      continue;
    }
    auto loaded_or = cache_.Get(request.instance);
    if (!loaded_or.ok()) {
      Response response;
      response.id = request.id;
      out.responses.push_back(FailWith(std::move(response),
                                       eval::SweepCellState::kErr,
                                       loaded_or.status()));
      continue;
    }
    LoadedInstance loaded = *std::move(loaded_or);
    out.responses.push_back(ExecuteLoaded(request, received_at, loaded));
    if (pinned.size() < kMaxPinnedInstances) {
      pinned.emplace(key, std::move(loaded));
    }
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
    return RenderResponse(any_or->request.is_delta
                              ? ExecuteDelta(any_or->request, received_at)
                              : Execute(any_or->request, received_at));
  } catch (const std::exception& error) {
    // Belt and braces: the library is Status-based, but a response line
    // must go out for every request line even if something throws.
    return RenderLineError(line, Status::Internal(error.what()));
  }
}

}  // namespace groupform::serve
