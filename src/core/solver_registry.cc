#include "core/solver_registry.h"

#include <cmath>

#include "common/strings.h"

namespace groupform::core {

common::StatusOr<long long> SolverOptions::GetCheckedInt(
    const std::string& key, long long fallback, long long min_value,
    long long max_value) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  long long parsed = 0;
  if (!common::ParseInt64(it->second, &parsed)) {
    return common::Status::InvalidArgument(
        "solver option '" + key + "' must be an integer, got '" +
        it->second + "'");
  }
  if (parsed < min_value) {
    return common::Status::InvalidArgument(common::StrFormat(
        "solver option '%s' must be >= %lld, got %lld", key.c_str(),
        min_value, parsed));
  }
  if (parsed > max_value) {
    return common::Status::InvalidArgument(common::StrFormat(
        "solver option '%s' must be <= %lld, got %lld", key.c_str(),
        max_value, parsed));
  }
  return parsed;
}

common::Status SolverOptions::ReadCheckedDouble(const std::string& key,
                                                double* field) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return common::Status::Ok();
  double parsed = 0.0;
  if (!common::ParseDouble(it->second, &parsed) || !std::isfinite(parsed)) {
    return common::Status::InvalidArgument(
        "solver option '" + key + "' must be a finite number, got '" +
        it->second + "'");
  }
  *field = parsed;
  return common::Status::Ok();
}

common::Status SolverOptions::ReadCheckedBool(const std::string& key,
                                              bool* field) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return common::Status::Ok();
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value.empty()) {
    *field = true;
  } else if (value == "false" || value == "0") {
    *field = false;
  } else {
    return common::Status::InvalidArgument(
        "solver option '" + key +
        "' must be true, false, 1 or 0, got '" + value + "'");
  }
  return common::Status::Ok();
}

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = new SolverRegistry();
  return *registry;
}

common::Status SolverRegistry::Register(const std::string& name,
                                        const std::string& description,
                                        Factory factory) {
  if (name.empty()) {
    return common::Status::InvalidArgument("solver name must be non-empty");
  }
  if (factory == nullptr) {
    return common::Status::InvalidArgument(
        "solver factory must be non-null for '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      entries_.emplace(name, Entry{description, std::move(factory)});
  (void)it;
  if (!inserted) {
    return common::Status::FailedPrecondition(
        "solver '" + name + "' is already registered");
  }
  return common::Status::Ok();
}

bool SolverRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.erase(name) > 0;
}

bool SolverRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> SolverRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::string SolverRegistry::NamesJoined() const {
  return common::Join(Names(), ", ");
}

common::StatusOr<std::string> SolverRegistry::Description(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return common::Status::NotFound("no solver named '" + name + "'");
  }
  return it->second.description;
}

common::StatusOr<std::unique_ptr<FormationSolver>> SolverRegistry::Create(
    const std::string& name, const FormationProblem& problem,
    const SolverOptions& options) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) factory = it->second.factory;
  }
  if (factory == nullptr) return UnknownName(name);
  return factory(problem, options);
}

common::Status SolverRegistry::CheckRegistered(const std::string& name) const {
  return Contains(name) ? common::Status::Ok() : UnknownName(name);
}

common::Status SolverRegistry::UnknownName(const std::string& name) const {
  return common::Status::NotFound("no solver named '" + name +
                                  "' (available: " + NamesJoined() + ")");
}

}  // namespace groupform::core
