#include "core/device_graph.hpp"

#include <algorithm>
#include <utility>

namespace rdbs::core {

DeviceCsrBuffers DeviceCsrBuffers::upload(gpusim::GpuSim& sim,
                                          const graph::Csr& csr) {
  const graph::VertexId n = csr.num_vertices();
  const graph::EdgeIndex m = csr.num_edges();
  DeviceCsrBuffers bufs;
  bufs.row_offsets =
      sim.alloc<graph::EdgeIndex>("row_offsets", n + 1, kDeviceWord);
  bufs.adjacency = sim.alloc<graph::VertexId>("adjacency", m, kDeviceWord);
  bufs.weights = sim.alloc<graph::Weight>("weights", m, kDeviceWord);
  std::copy(csr.row_offsets().begin(), csr.row_offsets().end(),
            bufs.row_offsets.data().begin());
  std::copy(csr.adjacency().begin(), csr.adjacency().end(),
            bufs.adjacency.data().begin());
  std::copy(csr.weights().begin(), csr.weights().end(),
            bufs.weights.data().begin());
  // The CSR arrays are an H2D upload and immutable for the buffers'
  // lifetime: mark them initialized and read-only so gsan flags any kernel
  // that stores into them (they may be shared across query streams).
  sim.mark_initialized(bufs.row_offsets);
  sim.mark_initialized(bufs.adjacency);
  sim.mark_initialized(bufs.weights);
  sim.mark_read_only(bufs.row_offsets);
  sim.mark_read_only(bufs.adjacency);
  sim.mark_read_only(bufs.weights);
  return bufs;
}

void init_distances(gpusim::GpuSim& sim, gpusim::StreamId stream,
                    gpusim::Buffer<graph::Distance>& dist,
                    gpusim::Buffer<std::uint8_t>* flags) {
  const std::uint64_t n = dist.size();
  sim.label_next_launch("init_distances");
  sim.run_kernel(
      gpusim::Schedule::kStatic, (n + 31) / 32, /*warps_per_block=*/8,
      [&](gpusim::WarpCtx& ctx, std::uint64_t w) {
        // One coalesced store of 32 distances (and flag clears) per warp.
        const std::uint64_t begin = w * 32;
        const auto lanes =
            static_cast<std::size_t>(std::min<std::uint64_t>(begin + 32, n) -
                                     begin);
        std::array<std::uint64_t, 32> idx{};
        for (std::size_t i = 0; i < lanes; ++i) idx[i] = begin + i;
        const std::span<const std::uint64_t> is(idx.data(), lanes);
        std::array<graph::Distance, 32> inf{};
        inf.fill(graph::kInfiniteDistance);
        ctx.store(dist, is,
                  std::span<const graph::Distance>(inf.data(), lanes));
        if (flags != nullptr) {
          const std::array<std::uint8_t, 32> zero{};
          ctx.store(*flags, is,
                    std::span<const std::uint8_t>(zero.data(), lanes));
        }
      },
      /*host_launch=*/true, stream);
}

void seed_source(gpusim::GpuSim& sim, gpusim::StreamId stream,
                 gpusim::Buffer<graph::Distance>& dist,
                 graph::VertexId source) {
  sim.label_next_launch("seed_source");
  sim.run_kernel(gpusim::Schedule::kStatic, 1, 1,
                 [&](gpusim::WarpCtx& ctx, std::uint64_t) {
                   ctx.store_one(dist, source, graph::Distance{0});
                 },
                 /*host_launch=*/true, stream);
}

void DeviceQueue::bind(gpusim::GpuSim& sim,
                       gpusim::Buffer<graph::VertexId> slots,
                       const gpusim::Buffer<std::uint32_t>& ctrl,
                       std::uint64_t tail_cell, std::uint64_t head_cell,
                       gpusim::Buffer<std::uint8_t> flags, bool charge_flags) {
  sim_ = &sim;
  slots_ = std::move(slots);
  ctrl_ = ctrl;
  tail_cell_ = tail_cell;
  head_cell_ = head_cell;
  has_flags_ = flags.size() != 0;
  charge_flags_ = has_flags_ && charge_flags;
  flags_ = std::move(flags);
}

void DeviceQueue::reset() {
  pending_.clear();
  tail_ = 0;
  tail_slot_ = 0;
  head_ = 0;
  flushed_ = 0;
  std::fill(flags_.data().begin(), flags_.data().end(), 0);
}

void DeviceQueue::seed(graph::VertexId v) {
  if (!has_flags_) {
    append(v);
    return;
  }
  if (offer(v) && charge_flags_) sim_->mark_initialized(flags_, v, 1);
}

void DeviceQueue::publish() {
  if (flushed_ == tail_) return;
  for (std::size_t s = slot_of(flushed_); flushed_ < tail_;
       ++flushed_, s = next_slot(s)) {
    sim_->mark_initialized(slots_, s, 1);
  }
}

void DeviceQueue::drop_pending() {
  if (has_flags_) {
    for (const graph::VertexId v : pending_) flags_[v] = 0;
  }
  pending_.clear();
  head_ = tail_;
  flushed_ = tail_;
}

std::uint32_t DeviceQueue::take_front(std::span<graph::VertexId> out) {
  const auto count = static_cast<std::uint32_t>(
      std::min<std::size_t>(out.size(), pending_.size()));
  for (std::uint32_t i = 0; i < count; ++i) {
    out[i] = pending_.front();
    pending_.pop_front();
  }
  return count;
}

std::vector<graph::VertexId> DeviceQueue::take_all() {
  std::vector<graph::VertexId> out(pending_.begin(), pending_.end());
  pending_.clear();
  return out;
}

}  // namespace rdbs::core
