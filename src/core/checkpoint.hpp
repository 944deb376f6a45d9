// Checkpoint-resume state for the GPU engines (docs/serving.md
// "Checkpoint-resume & lane migration").
//
// Δ-stepping and Near-Far are label-correcting: at any point of a run the
// tentative distance vector is a set of valid upper bounds on the true
// distances (the same argument that makes landmark warm starts exact; see
// AttemptDriver::set_warm_start). A snapshot of that vector taken at a
// bucket/round boundary is therefore a *restart point*: a retry — or a
// whole different lane — can seed from it via the warm-start path and
// converge to exactly the same distances as a cold run, having already
// paid for none of the lost work.
//
// Validity: a snapshot is only taken when the attempt has seen NO poisoning
// fault so far (gfi; docs/fault_injection.md) and the distance buffer's
// region is not poisoned (GpuSim::buffer_poisoned) — a corrupt bound could
// be *below* the true distance, which would break the label-correcting
// argument, so a tainted attempt simply stops checkpointing and the last
// good snapshot stands.
//
// Capture: the kernel that ends at the boundary copies the distances into
// the engine's own `checkpoint` device buffer, which the asynchronous D2H
// then reads while later kernels run (core/recovery.hpp). No later fault
// can reach it: only the snapshot warps write that buffer, and none run
// while its copy is in flight. A snapshot becomes the checkpoint once its
// copy has landed; until then it is staged, and a retry or a migration
// uses the checkpoint before it.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace rdbs::core {

// One host-side snapshot of an engine's tentative distances. `bounds` is in
// the ENGINE's vertex numbering (PRO-reordered when the lane reorders) —
// resume and migration stay inside one QueryBatch, which shares that
// numbering across all lanes, so no permutation round-trip is needed.
struct QueryCheckpoint {
  std::vector<graph::Distance> bounds;  // valid upper bounds, one per vertex
  double taken_ms = 0;        // stream clock at which its D2H copy lands
  std::uint64_t boundaries = 0;  // bucket/round boundaries crossed at capture
  std::uint64_t snapshots = 0;   // snapshots taken this run (this is #latest)

  bool valid() const { return !bounds.empty(); }
  void clear() {
    bounds.clear();
    taken_ms = 0;
    boundaries = 0;
    snapshots = 0;
  }
};

}  // namespace rdbs::core
