// Shrink-to-survivors recovery driver (the top of the failure tentpole).
//
// run_resilient() executes the paper's irregular-loop experiment under an
// optional FaultPlan and survives losing ranks:
//
//   1. Phase B builds one lb::AdaptiveExecutor per rank with the
//      load-balance check off (a static run of the one loop driver), then
//      the loop runs in chunks of checkpoint_every sweeps with a checkpoint
//      (stance/checkpoint.hpp) charged to the virtual clock between chunks.
//   2. When a rank dies, every survivor's blocked operation resolves into
//      mp::PeerFailed; the survivor charges the detection cost, joins
//      Process::agree_on_survivors, and leaves the wave cleanly.
//   3. The driver shrinks the machine to the survivors
//      (MachineSpec::subset; delegate re-election is NodeMap::shrink_to),
//      builds static executors for the survivor partition on a fresh
//      cluster, restores the last committed checkpoint, and reruns the
//      remaining iterations.
//
// Because the parallel loop is bit-compatible with the sequential reference
// regardless of partition, the recovered run's final values are
// byte-identical to a failure-free run started from the same checkpoint on
// the survivor set — the oracle tests/test_recovery.cpp asserts, and the
// recovery bench re-checks while measuring detection / agreement /
// rebuild / restore costs.
//
// Scope (documented limitation): one failure burst per run. Survivors of a
// second failure during the *recovered* wave would abort rather than
// recover again; rejoin of repaired ranks is future work (ROADMAP). The
// executors never remap: recovering an adaptive run is future work too.
#pragma once

#include <vector>

#include "exec/irregular_loop.hpp"
#include "graph/csr.hpp"
#include "mp/cluster.hpp"
#include "mp/fault.hpp"
#include "sched/inspector.hpp"
#include "sim/machine.hpp"
#include "stance/checkpoint.hpp"

namespace stance {

struct ResilientOptions {
  int iterations = 100;
  int checkpoint_every = 10;         ///< sweeps between checkpoints (<=0: none)
  double detect_cost_seconds = 0.0;  ///< virtual cost of detecting the failure
  CheckpointCostModel checkpoint_cost{};
  mp::FaultPlan faults{};            ///< empty: failure-free run
  mp::TransportKind transport = mp::TransportKind::kDefault;
  sched::BuildMethod build = sched::BuildMethod::kSort2;
  sim::CpuCostModel cpu = sim::CpuCostModel::free();
  exec::LoopCostModel loop = exec::LoopCostModel::free();
};

/// Virtual-time breakdown of one recovery (all `max over ranks`).
struct RecoveryCosts {
  double detect_virtual_seconds = 0.0;    ///< failure-detection charge
  double agree_virtual_seconds = 0.0;     ///< survivor-agreement collective
  double rebuild_virtual_seconds = 0.0;   ///< survivor Phase B (schedules)
  double restore_virtual_seconds = 0.0;   ///< checkpoint reload
  double checkpoint_virtual_seconds = 0.0;///< checkpointing overhead pre-failure
};

struct ResilientResult {
  std::vector<double> y;            ///< final global solution vector
  std::vector<mp::Rank> dead;       ///< original ranks lost (empty: no failure)
  std::vector<mp::Rank> survivors;  ///< original ranks that finished the job
  int resume_iteration = 0;         ///< checkpoint restored from (0: from start)
  int checkpoints_committed = 0;
  double loop_virtual_seconds = 0.0;///< loop + recovery + resumed loop makespan
  RecoveryCosts costs;
};

/// Run `opts.iterations` sweeps of the irregular loop on `machine`
/// (one rank per node), surviving rank deaths injected by `opts.faults`.
/// The mesh must already be permuted (Phase A), as inside a Session.
[[nodiscard]] ResilientResult run_resilient(const graph::Csr& mesh,
                                            const sim::MachineSpec& machine,
                                            const ResilientOptions& opts);

/// The failure-free oracle arm: run `iterations` sweeps on `machine`
/// starting from the global vector `y0` (no faults, no checkpoints) and
/// return the final global vector. A recovered run's tail is byte-identical
/// to this when started from the checkpoint it restored.
[[nodiscard]] std::vector<double> run_reference_from(const graph::Csr& mesh,
                                                     const sim::MachineSpec& machine,
                                                     std::vector<double> y0,
                                                     int iterations,
                                                     const ResilientOptions& opts);

}  // namespace stance
