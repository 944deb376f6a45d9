#include "gpusim/fault.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/rng.hpp"

namespace rdbs::gpusim {

const char* fault_class_name(FaultClass cls) {
  switch (cls) {
    case FaultClass::kBitFlipCorrectable: return "bit-flip(ecc-corrected)";
    case FaultClass::kBitFlipUncorrectable: return "bit-flip(uncorrectable)";
    case FaultClass::kLaunchFailure: return "launch-failure";
    case FaultClass::kTimeout: return "timeout";
    case FaultClass::kStreamStall: return "stream-stall";
    case FaultClass::kDeviceLoss: return "device-loss";
  }
  return "unknown";
}

std::string GpuFault::describe() const {
  std::ostringstream out;
  out << fault_class_name(cls) << " gpu" << device << " stream" << stream
      << " launch#" << launch;
  if (cls == FaultClass::kBitFlipCorrectable ||
      cls == FaultClass::kBitFlipUncorrectable) {
    out << " task#" << task << " op#" << op << " bit" << bit << " buffer='"
        << buffer << "'";
  }
  return out.str();
}

FaultConfig parse_fault_spec(std::string_view spec) {
  constexpr std::string_view kWhat = "fault spec";
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
  FaultConfig config;
  config.enabled = true;
  for (const auto& [key, value] : split_spec(spec, kWhat)) {
    const auto real = [&] { return spec_double(kWhat, key, value); };
    if (key == "seed") {
      config.seed = spec_unsigned(kWhat, key, value, kAny);
    } else if (key == "flip") {
      config.bit_flip_per_load = real();
    } else if (key == "ecc") {
      config.correctable_fraction = real();
    } else if (key == "launch") {
      config.launch_failure = real();
    } else if (key == "timeout") {
      config.timeout = real();
    } else if (key == "stall") {
      config.stream_stall = real();
    } else if (key == "loss") {
      config.device_loss = real();
    } else if (key == "watchdog") {
      config.watchdog_ms = real();
    } else if (key == "stall-ms") {
      config.stall_ms = real();
    } else if (key == "max") {
      config.max_faults = spec_unsigned(kWhat, key, value, kAny);
    } else if (key == "hot") {
      config.hot_stream = static_cast<int>(spec_unsigned(
          kWhat, key, value, std::numeric_limits<int>::max()));
    } else if (key == "hot-factor") {
      config.hot_stream_factor = real();
    } else {
      throw std::invalid_argument("unknown fault-spec key '" +
                                  std::string(key) + "'");
    }
  }
  return config;
}

std::uint64_t FaultInjector::hash(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c, std::uint64_t d,
                                  std::uint64_t salt) const {
  // Feed the counter key through SplitMix64 one word at a time; mixing the
  // running state between words keeps distinct keys decorrelated.
  std::uint64_t h = config_.seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  h = mix64(h + a);
  h = mix64(h + b);
  h = mix64(h + c);
  h = mix64(h + d);
  return h;
}

double FaultInjector::uniform(std::uint64_t a, std::uint64_t b,
                              std::uint64_t c, std::uint64_t d,
                              std::uint64_t salt) const {
  // 53 high bits -> [0, 1) with full double resolution.
  return static_cast<double>(hash(a, b, c, d, salt) >> 11) * 0x1.0p-53;
}

std::optional<FaultClass> FaultInjector::launch_fault(
    int stream, std::uint64_t launch) const {
  const auto s = static_cast<std::uint64_t>(stream);
  const double scale =
      (config_.hot_stream >= 0 && stream == config_.hot_stream)
          ? config_.hot_stream_factor
          : 1.0;
  if (config_.device_loss > 0 &&
      uniform(s, launch, 0, 0, 1) < config_.device_loss * scale) {
    return FaultClass::kDeviceLoss;
  }
  if (config_.launch_failure > 0 &&
      uniform(s, launch, 0, 0, 2) < config_.launch_failure * scale) {
    return FaultClass::kLaunchFailure;
  }
  if (config_.timeout > 0 &&
      uniform(s, launch, 0, 0, 3) < config_.timeout * scale) {
    return FaultClass::kTimeout;
  }
  if (config_.stream_stall > 0 &&
      uniform(s, launch, 0, 0, 4) < config_.stream_stall * scale) {
    return FaultClass::kStreamStall;
  }
  return std::nullopt;
}

FaultInjector::FlipDecision FaultInjector::load_fault(int stream,
                                                      std::uint64_t launch,
                                                      std::uint32_t task,
                                                      std::uint64_t op) const {
  FlipDecision decision;
  if (config_.bit_flip_per_load <= 0) return decision;
  const auto s = static_cast<std::uint64_t>(stream);
  if (uniform(s, launch, task, op, 5) >= config_.bit_flip_per_load) {
    return decision;
  }
  decision.inject = true;
  decision.correctable =
      uniform(s, launch, task, op, 6) < config_.correctable_fraction;
  const std::uint64_t where = hash(s, launch, task, op, 7);
  decision.lane = static_cast<std::uint32_t>(where & 0x1f);
  decision.bit = static_cast<std::uint32_t>((where >> 5) & 0x3f);
  return decision;
}

}  // namespace rdbs::gpusim
