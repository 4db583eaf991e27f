#ifndef GROUPFORM_CORE_SOLVER_REGISTRY_H_
#define GROUPFORM_CORE_SOLVER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/solver.h"

namespace groupform::core {

/// Name → factory map over every FormationSolver the process knows about.
/// This is the single dispatch point for algorithm selection: the CLI's
/// --algorithm flag, eval::RunAlgorithm, the benches, and the examples all
/// resolve solvers here, so registering a solver once makes it reachable
/// from every surface (DESIGN.md §10.1).
///
/// Built-in solvers are registered by solvers::EnsureBuiltinSolversRegistered
/// (each layer contributes its own Register*Solvers function); tests and
/// downstream users may Register additional solvers at runtime.
///
/// Thread-safe: registration and lookup may race freely.
class SolverRegistry {
 public:
  /// Builds a solver bound to `problem`, configured from the option bag
  /// (unknown keys ignored). Factories validate nothing beyond option
  /// parsing; Solve performs problem validation as before.
  using Factory =
      std::function<common::StatusOr<std::unique_ptr<FormationSolver>>(
          const FormationProblem& problem, const SolverOptions& options)>;

  /// The process-wide registry.
  static SolverRegistry& Global();

  /// Registers a solver family. Fails with ALREADY-style
  /// FAILED_PRECONDITION when `name` is taken (names are a public contract;
  /// silent replacement would mask drift between layers).
  common::Status Register(const std::string& name,
                          const std::string& description, Factory factory);

  /// Removes a solver; returns false when `name` was not registered.
  /// Intended for tests that register stubs.
  bool Unregister(const std::string& name);

  bool Contains(const std::string& name) const;

  /// OK when `name` is registered, otherwise Create's NOT_FOUND (listing
  /// the available names). Lets a caller reject an unknown name before it
  /// builds the problem Create needs.
  common::Status CheckRegistered(const std::string& name) const;

  /// All registered names, sorted — the CLI derives its --algorithm
  /// choices and --help text from this.
  std::vector<std::string> Names() const;

  /// "a, b, c" over Names(), for error messages and usage lines.
  std::string NamesJoined() const;

  /// The description `name` was registered with.
  common::StatusOr<std::string> Description(const std::string& name) const;

  /// Instantiates `name` on `problem`. NOT_FOUND (listing the available
  /// names) when unregistered.
  common::StatusOr<std::unique_ptr<FormationSolver>> Create(
      const std::string& name, const FormationProblem& problem,
      const SolverOptions& options = SolverOptions()) const;

 private:
  common::Status UnknownName(const std::string& name) const;

  struct Entry {
    std::string description;
    Factory factory;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Registers the core layer's solvers (greedy). The exact and baseline
/// layers provide their own Register*Solvers in <layer>/register_solvers.h;
/// solvers::EnsureBuiltinSolversRegistered calls all of them.
void RegisterCoreSolvers();

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_SOLVER_REGISTRY_H_
