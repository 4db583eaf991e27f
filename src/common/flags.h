#ifndef GROUPFORM_COMMON_FLAGS_H_
#define GROUPFORM_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace groupform::common {

/// Minimal command-line flag parser for the library's tools: accepts
/// "--name=value" and "--name value"; bare "--name" is the boolean true;
/// everything else is a positional argument.
///
///   FlagParser flags;
///   GF_RETURN_IF_ERROR(flags.Parse(argc, argv));
///   GF_ASSIGN_OR_RETURN(const long long k,
///                       flags.GetIntInRange("k", 5, 1, 100));
class FlagParser {
 public:
  /// Parses argv; fails on malformed flags (e.g. "--=x").
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// The strict typed getters. Each returns `fallback` when the flag is
  /// absent, else its parsed value; a value that does not parse (or an
  /// integer outside [min_value, max_value]) is INVALID_ARGUMENT naming
  /// the flag, so a tool can print the message as is and exit 2. Doubles
  /// must be finite; bools are true, false, 1 or 0 (a bare flag is true).
  StatusOr<long long> GetIntInRange(const std::string& name,
                                    long long fallback, long long min_value,
                                    long long max_value) const;
  StatusOr<double> GetFiniteDouble(const std::string& name,
                                   double fallback) const;
  StatusOr<bool> GetCheckedBool(const std::string& name,
                                bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed flags, for diagnostics.
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_FLAGS_H_
