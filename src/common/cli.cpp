#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace rdbs {

namespace {

bool looks_boolean(std::string_view next) {
  // A flag with no value, or followed by another flag, is treated as boolean.
  return next.empty() || next.starts_with("--");
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      continue;
    }
    std::string_view next = (i + 1 < argc) ? std::string_view(argv[i + 1])
                                           : std::string_view();
    if (looks_boolean(next)) {
      flags_[std::string(body)] = "true";
    } else {
      flags_[std::string(body)] = std::string(next);
      ++i;
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.contains(name);
}

std::vector<std::string> CliArgs::unknown_flags(
    std::span<const std::string_view> accepted) const {
  std::vector<std::string> unknown;
  for (const auto& flag : flags_) {
    if (std::find(accepted.begin(), accepted.end(), flag.first) ==
        accepted.end()) {
      unknown.push_back(flag.first);
    }
  }
  return unknown;
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

// The whole of flag `name`'s `value` as a T, via std::from_chars. The
// leading whitespace and '+' that strtoll/strtod skip, and strtod's "0x"
// hex floats, are handled first, so every value those read in full reads
// the same. Throws std::invalid_argument naming the flag otherwise.
template <typename T>
T parse_flag(const std::string& name, const std::string& value) {
  std::string_view text = value;
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text[0]))) {
    text.remove_prefix(1);
  }
  if (text.starts_with('+') && !text.substr(1).starts_with('-')) {
    text.remove_prefix(1);
  }
  T parsed{};
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    const bool negative = text.starts_with('-');
    const std::string_view digits = text.substr(negative ? 1 : 0);
    if ((digits.starts_with("0x") || digits.starts_with("0X")) &&
        !digits.substr(2).starts_with('-')) {
      text = digits.substr(2);
      result = std::from_chars(text.data(), text.data() + text.size(), parsed,
                               std::chars_format::hex);
      if (negative) parsed = -parsed;
    } else {
      result = std::from_chars(text.data(), text.data() + text.size(), parsed);
    }
  } else {
    result = std::from_chars(text.data(), text.data() + text.size(), parsed);
  }
  if (result.ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("--" + name + ": value '" + value +
                                "' is out of range");
  }
  if (text.empty() || result.ec != std::errc{} ||
      result.ptr != text.data() + text.size()) {
    throw std::invalid_argument("--" + name + ": '" + value + "' is not " +
                                (std::is_floating_point_v<T> ? "a number"
                                                             : "an integer"));
  }
  return parsed;
}

}  // namespace

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback
                            : parse_flag<std::int64_t>(name, it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : parse_flag<double>(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

namespace {

[[noreturn]] void bad_value(std::string_view what, std::string_view key,
                            std::string_view value, std::string_view why) {
  throw std::invalid_argument(std::string(what) + ": bad value for '" +
                              std::string(key) + "': '" + std::string(value) +
                              "' (" + std::string(why) + ")");
}

}  // namespace

std::vector<std::pair<std::string_view, std::string_view>> split_spec(
    std::string_view spec, std::string_view what) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view item = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{}
                                           : spec.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(std::string(what) +
                                  ": expected key=value, got '" +
                                  std::string(item) + "'");
    }
    fields.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return fields;
}

std::uint64_t spec_unsigned(std::string_view what, std::string_view key,
                            std::string_view value, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ptr != end || ec == std::errc::invalid_argument) {
    bad_value(what, key, value, "not an unsigned integer");
  }
  if (ec == std::errc::result_out_of_range || parsed > max) {
    bad_value(what, key, value, "above " + std::to_string(max));
  }
  return parsed;
}

double spec_double(std::string_view what, std::string_view key,
                   std::string_view value) {
  double parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ptr != end || ec != std::errc{} ||
      !std::isfinite(parsed)) {
    bad_value(what, key, value, "not a finite number");
  }
  return parsed;
}

}  // namespace rdbs
