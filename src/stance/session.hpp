// Session: top-level experiment driver tying all four phases together.
//
//   Session s(graph::paper_mesh(), cfg);       // Phase A inside: mesh is
//                                              // permuted by cfg.ordering
//   auto r = s.run_static(500);                // Phases B + C
//   s.cluster().set_profile(1, competing);     // make the environment adapt
//   auto a = s.run_adaptive(500, lb, true);    // Phases B + C + D
//
// Every run goes through lb::AdaptiveExecutor, the one loop driver: a
// static run is the same Phase B/C/D cycle with the load-balance check off
// (enable_lb = false). Timing discipline: the executors are constructed
// (Phase B) on zeroed clocks, that makespan is recorded, the clocks are
// zeroed again, and then the loop phase is timed — matching the paper, which
// reports schedule-construction time (Table 3) separately from loop time
// (Tables 4-5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/irregular_loop.hpp"
#include "graph/builders.hpp"
#include "graph/csr.hpp"
#include "lb/adaptive_executor.hpp"
#include "mp/cluster.hpp"
#include "order/ordering.hpp"
#include "sched/inspector.hpp"
#include "sim/machine.hpp"

namespace stance {

struct SessionConfig {
  sim::MachineSpec machine = sim::MachineSpec::sun4_ethernet(5);
  order::Method ordering = order::Method::kSpectral;
  sched::BuildMethod build = sched::BuildMethod::kSort2;
  sim::CpuCostModel cpu = sim::CpuCostModel::sun4();
  exec::LoopCostModel loop = exec::LoopCostModel::sun4();
  std::uint64_t seed = 1996;
};

struct StaticRunResult {
  double build_seconds = 0.0;       ///< Phase B makespan
  double loop_seconds = 0.0;        ///< Phase C makespan (`iterations` sweeps)
  double efficiency = 0.0;          ///< paper §4 metric
  std::vector<double> finish_times; ///< per-rank loop-phase clocks
  mp::CommStats loop_stats;         ///< aggregated over ranks, loop phase
  double checksum = 0.0;            ///< sum of final y (cross-run determinism)
};

struct AdaptiveRunResult {
  double loop_seconds = 0.0;      ///< makespan incl. checks and remaps
  int checks = 0;
  int remaps = 0;
  double check_seconds = 0.0;     ///< max over ranks
  double remap_seconds = 0.0;     ///< max over ranks
  double build_seconds = 0.0;     ///< initial Phase B (excluded from loop_seconds)
  double checksum = 0.0;
};

class Session {
 public:
  /// Applies Phase A: permutes `mesh` by cfg.ordering and builds the cluster.
  Session(graph::Csr mesh, SessionConfig cfg);

  [[nodiscard]] const graph::Csr& mesh() const noexcept { return mesh_; }
  [[nodiscard]] mp::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] const SessionConfig& config() const noexcept { return cfg_; }

  /// Estimated time for node i to run the whole task alone (paper §4's
  /// T(pi)), derived from the loop cost model and node speed.
  [[nodiscard]] std::vector<double> sequential_times(int iterations) const;

  /// Static environment (paper Table 4): blocks proportional to node speeds.
  StaticRunResult run_static(int iterations);

  /// Static run with an explicit weight vector (for ablations).
  StaticRunResult run_static_weighted(int iterations, std::vector<double> weights);

  /// Adaptive environment (paper Table 5): equal initial decomposition; the
  /// cluster's load profiles drive the adaptation; LB per `lb`/`enable_lb`.
  AdaptiveRunResult run_adaptive(int iterations, lb::LbOptions lb, bool enable_lb);

  /// Max |y_parallel - y_reference| after `iterations` sweeps — the parallel
  /// execution is bit-compatible with the sequential reference, so this is 0.
  double verify_against_reference(int iterations);

  /// Deterministic initial value of element g (shared by parallel and
  /// reference runs).
  [[nodiscard]] static double initial_value(graph::Vertex g) noexcept {
    return 1.0 + static_cast<double>(g % 97) * 0.25;
  }

  /// initial_value of the global ids [first, first + count): a rank's owned
  /// slice (part.first(r), part.size(r)), or from 0 the whole vector.
  [[nodiscard]] static std::vector<double> initial_values(graph::Vertex first, graph::Vertex count);

 private:
  /// One loop run: executors for `part` on zeroed clocks (Phase B), then
  /// `iterations` sweeps from initial_values on fresh clocks. The cluster's
  /// last run is the loop phase.
  struct LoopRun {
    double build_seconds = 0.0;               ///< Phase B makespan
    std::vector<std::vector<double>> y;       ///< per rank, final partition
    std::vector<lb::AdaptiveReport> reports;  ///< per rank
  };
  LoopRun run_loop(const partition::IntervalPartition& part, int iterations,
                   lb::LbOptions lb, bool enable_lb);

  SessionConfig cfg_;
  graph::Csr mesh_;  ///< permuted by cfg.ordering
  std::unique_ptr<mp::Cluster> cluster_;
};

/// Phase B on zeroed clocks: one lb::AdaptiveExecutor per rank of `cluster`
/// (construction is collective and builds each rank's schedule). The
/// cluster's makespan afterwards is the Phase B time.
[[nodiscard]] std::vector<std::unique_ptr<lb::AdaptiveExecutor>> build_executors(
    mp::Cluster& cluster, const graph::Csr& mesh,
    const partition::IntervalPartition& part, const lb::AdaptiveOptions& opts);

}  // namespace stance
