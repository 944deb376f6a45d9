// Minimal command-line flag parser for the bench binaries and examples,
// and the one `key=value,...` spec grammar their structured flags share.
//
// Supports --flag=value, --flag value, and bare boolean --flag forms.
// google-benchmark's own --benchmark_* flags pass through untouched;
// unknown_flags() finds the flags a program does not read.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rdbs {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  // The whole value must parse as a decimal integer / floating-point
  // number (strtoll/strtod syntax); a malformed or out-of-range value
  // throws std::invalid_argument naming the flag.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  // Names of the given flags (without "--") missing from `accepted`, in
  // name order. --benchmark_* flags are never among them.
  std::vector<std::string> unknown_flags(
      std::span<const std::string_view> accepted) const;

  // Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  // argv entries not consumed as --name[=value] flags, preserving argv[0];
  // suitable for handing to benchmark::Initialize.
  std::vector<std::string> passthrough() const { return passthrough_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> passthrough_;
};

// --- key=value specs --------------------------------------------------------
// The comma-separated grammar of the fault (`seed=7,launch=0.05`), traffic
// (`poisson:n=200,rate=2`, after the process prefix) and closed-loop
// (`budget=2,backoff=0.5`) specs. `what` names the grammar in error
// messages; every error is a std::invalid_argument.

// The spec's non-empty items split at their first '=', in order; the views
// point into `spec`. Throws on an item without '='.
std::vector<std::pair<std::string_view, std::string_view>> split_spec(
    std::string_view spec, std::string_view what);

// A decimal unsigned integer in [0, max]: digits only — no sign, fraction,
// exponent or whitespace. Throws naming `key` otherwise.
std::uint64_t spec_unsigned(std::string_view what, std::string_view key,
                            std::string_view value, std::uint64_t max);

// A finite decimal floating-point number (no inf/nan). Throws naming `key`
// otherwise.
double spec_double(std::string_view what, std::string_view key,
                   std::string_view value);

}  // namespace rdbs
