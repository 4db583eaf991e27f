#ifndef GROUPFORM_CORE_SOLVER_H_
#define GROUPFORM_CORE_SOLVER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/formation.h"

namespace groupform::core {

/// Option key carrying a warm-start partition ("0,2,5|1,3|4" — see
/// core/delta.h EncodeStartAssignment). Solvers with a warm-start seam
/// (exact::LocalSearchSolver) decode it; everyone else ignores it like
/// any unknown key.
inline constexpr char kStartAssignmentKey[] = "start_assignment";

/// Untyped key/value option bag passed to solver factories (see
/// SolverRegistry). Every solver family has its own Options struct with
/// typed fields and defaults; the bag lets generic callers — the CLI, the
/// experiment harness, config files — override individual fields by name
/// without knowing the concrete solver type. Unknown keys are ignored by
/// factories, so one bag can parameterize a whole sweep of solvers.
class SolverOptions {
 public:
  SolverOptions() = default;

  /// Sets or replaces one option.
  SolverOptions& Set(const std::string& key, std::string value) {
    entries_[key] = std::move(value);
    return *this;
  }

  bool Has(const std::string& key) const {
    return entries_.find(key) != entries_.end();
  }

  /// Strict integer getter: absent key → `fallback`; present but
  /// non-numeric, or parsed outside [`min_value`, `max_value`], →
  /// INVALID_ARGUMENT naming the key and value. Factories surface the
  /// error through SolverRegistry::Create.
  common::StatusOr<long long> GetCheckedInt(
      const std::string& key, long long fallback, long long min_value,
      long long max_value = std::numeric_limits<long long>::max()) const;

  /// GetCheckedInt into an integer field: an absent key keeps `*field`,
  /// and the ceiling is the field type's maximum, so a value never wraps
  /// in the cast. Every integer solver knob is read this way.
  template <typename Int>
  common::Status ReadCheckedInt(const std::string& key,
                                long long min_value, Int* field) const {
    GF_ASSIGN_OR_RETURN(const long long value,
                        GetCheckedInt(key, *field, min_value,
                                      std::numeric_limits<Int>::max()));
    *field = static_cast<Int>(value);
    return common::Status::Ok();
  }

  /// Strict double and bool knobs, read like ReadCheckedInt: an absent
  /// key keeps `*field`; a present value must be a finite number (every
  /// character parsed), or one of true, false, 1, 0 or empty (a bare key,
  /// true). Anything else is INVALID_ARGUMENT naming the key and value.
  common::Status ReadCheckedDouble(const std::string& key,
                                   double* field) const;
  common::Status ReadCheckedBool(const std::string& key, bool* field) const;

  /// Typed access to kStartAssignmentKey (implemented in delta.cc). Set
  /// stores the partition in its canonical string encoding; Get returns
  /// an empty partition when the key is absent or empty, and
  /// INVALID_ARGUMENT when the stored value does not decode.
  SolverOptions& SetStartAssignment(
      const std::vector<std::vector<UserId>>& groups);
  common::StatusOr<std::vector<std::vector<UserId>>> GetStartAssignment()
      const;

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

/// The polymorphic face of every group-formation algorithm in the library
/// (§7 "Algorithms Compared"): greedy, the exact solvers, the refiners, and
/// the clustering baselines all implement this one interface, and the
/// SolverRegistry hands them out by name. A solver is bound to one
/// FormationProblem at construction (the problem's matrix must outlive it)
/// and may be solved repeatedly with different seeds.
class FormationSolver {
 public:
  /// The seed the evaluation harness has always used for single runs.
  static constexpr std::uint64_t kDefaultSeed = 99;

  virtual ~FormationSolver() = default;

  /// Solves the bound problem. `seed` drives every random choice the
  /// solver makes; deterministic solvers ignore it. Two calls with the
  /// same seed return identical results. A solver's name and description
  /// live in its SolverRegistry registration, not here.
  virtual common::StatusOr<FormationResult> Solve(
      std::uint64_t seed) const = 0;
};

}  // namespace groupform::core

#endif  // GROUPFORM_CORE_SOLVER_H_
