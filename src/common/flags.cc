#include "common/flags.h"

#include <cmath>

#include "common/strings.h"

namespace groupform::common {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      // "--" separator: everything after is positional.
      for (int j = i + 1; j < argc; ++j) positional_.emplace_back(argv[j]);
      break;
    }
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      const std::string_view name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("malformed flag: " +
                                       std::string(arg));
      }
      flags_[std::string(name)] = std::string(body.substr(eq + 1));
      continue;
    }
    // "--name value" when the next token is not itself a flag, else a
    // boolean "--name".
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      flags_[std::string(body)] = "true";
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.contains(name);
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it != flags_.end() ? it->second : fallback;
}

StatusOr<long long> FlagParser::GetIntInRange(const std::string& name,
                                              long long fallback,
                                              long long min_value,
                                              long long max_value) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  long long value = 0;
  if (!ParseInt64(it->second, &value) || value < min_value ||
      value > max_value) {
    return Status::InvalidArgument(
        StrFormat("--%s must be an integer in [%lld, %lld], got \"%s\"",
                  name.c_str(), min_value, max_value, it->second.c_str()));
  }
  return value;
}

StatusOr<double> FlagParser::GetFiniteDouble(const std::string& name,
                                             double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  double value = 0.0;
  if (!ParseDouble(it->second, &value) || !std::isfinite(value)) {
    return Status::InvalidArgument(
        StrFormat("--%s must be a finite number, got \"%s\"", name.c_str(),
                  it->second.c_str()));
  }
  return value;
}

StatusOr<bool> FlagParser::GetCheckedBool(const std::string& name,
                                          bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  return Status::InvalidArgument(
      StrFormat("--%s must be true, false, 1 or 0, got \"%s\"",
                name.c_str(), it->second.c_str()));
}

}  // namespace groupform::common
