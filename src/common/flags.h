#ifndef GROUPFORM_COMMON_FLAGS_H_
#define GROUPFORM_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace groupform::common {

/// Minimal command-line flag parser for the library's tools and examples:
/// accepts "--name=value" and "--name value"; bare "--name" is the boolean
/// true; everything else is a positional argument.
///
///   FlagParser flags;
///   GF_RETURN_IF_ERROR(flags.Parse(argc, argv));
///   const int k = flags.GetInt("k", 5);
class FlagParser {
 public:
  /// Parses argv; fails on malformed flags (e.g. "--=x").
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters with defaults; a present-but-malformed value fails the
  /// program's expectations loudly via the Status-returning variants.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  StatusOr<long long> GetIntOr(const std::string& name) const;
  long long GetInt(const std::string& name, long long fallback) const;
  /// `fallback` when the flag is absent, else its value when that is an
  /// integer in [min_value, max_value]; INVALID_ARGUMENT naming the flag
  /// and the range otherwise.
  StatusOr<long long> GetIntInRange(const std::string& name,
                                    long long fallback, long long min_value,
                                    long long max_value) const;
  StatusOr<double> GetDoubleOr(const std::string& name) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed flags, for diagnostics.
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_FLAGS_H_
