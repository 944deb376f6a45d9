#include "core/engine.hpp"

#include "core/adds.hpp"
#include "core/gunrock_like.hpp"
#include "core/legacy_gpu.hpp"
#include "core/rdbs.hpp"
#include "core/sep_hybrid.hpp"

namespace rdbs::core {

namespace {

using graph::Csr;
using graph::Weight;

// An engine's options struct with the shared block filled in.
template <typename Options>
Options derive(const EngineOptions& shared) {
  Options options;
  static_cast<EngineOptions&>(options) = shared;
  return options;
}

const GpuEngineEntry kEngines[] = {
    {"rdbs",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight delta) -> std::unique_ptr<GpuEngine> {
       auto options = derive<GpuSsspOptions>(shared);
       options.delta0 = delta;
       return std::make_unique<RdbsSolver>(csr, std::move(device), options);
     }},
    // The paper's BL: synchronous push Bellman-Ford without buckets.
    {"baseline",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight) -> std::unique_ptr<GpuEngine> {
       auto options = derive<GpuSsspOptions>(shared);
       options.mode = EngineMode::kSyncPushBellmanFord;
       options.basyn = options.pro = options.adwl = false;
       return std::make_unique<RdbsSolver>(csr, std::move(device), options);
     }},
    {"adds",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight delta) -> std::unique_ptr<GpuEngine> {
       auto options = derive<AddsOptions>(shared);
       options.delta = delta;
       return std::make_unique<AddsLike>(std::move(device), csr, options);
     }},
    {"gunrock",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight delta) -> std::unique_ptr<GpuEngine> {
       auto options = derive<GunrockSsspOptions>(shared);
       options.delta = delta;
       return std::make_unique<GunrockLike>(std::move(device), csr, options);
     }},
    {"sep",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight) -> std::unique_ptr<GpuEngine> {
       return std::make_unique<SepHybrid>(std::move(device), csr,
                                          derive<SepHybridOptions>(shared));
     }},
    {"hn07",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight) -> std::unique_ptr<GpuEngine> {
       return std::make_unique<HarishNarayanan>(std::move(device), csr, shared);
     }},
    {"davidson",
     [](gpusim::DeviceSpec device, const Csr& csr, const EngineOptions& shared,
        Weight delta) -> std::unique_ptr<GpuEngine> {
       auto options = derive<DavidsonOptions>(shared);
       options.delta = delta;
       return std::make_unique<DavidsonNearFar>(std::move(device), csr,
                                                options);
     }},
};

}  // namespace

std::span<const GpuEngineEntry> gpu_engines() { return kEngines; }

const GpuEngineEntry* gpu_engine(std::string_view name) {
  for (const GpuEngineEntry& entry : kEngines) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace rdbs::core
