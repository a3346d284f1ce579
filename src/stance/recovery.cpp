#include "stance/recovery.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "mp/errors.hpp"
#include "partition/interval.hpp"
#include "stance/session.hpp"
#include "support/assert.hpp"

namespace stance {
namespace {

std::vector<double> node_speeds(const sim::MachineSpec& machine) {
  std::vector<double> w;
  w.reserve(machine.size());
  for (const auto& node : machine.nodes) w.push_back(node.speed);
  return w;
}

/// Static runs: the executor cycle with the load-balance check off.
lb::AdaptiveOptions static_options(const ResilientOptions& opts) {
  lb::AdaptiveOptions a;
  a.build = opts.build;
  a.cpu = opts.cpu;
  a.loop = opts.loop;
  a.enable_lb = false;
  return a;
}

/// Scatter the global vector into one rank's owned slice.
std::vector<double> slice_of(const std::vector<double>& global,
                             const partition::IntervalPartition& part, mp::Rank rank) {
  const auto first = static_cast<std::size_t>(part.first(rank));
  const auto size = static_cast<std::size_t>(part.size(rank));
  return std::vector<double>(global.begin() + static_cast<std::ptrdiff_t>(first),
                             global.begin() + static_cast<std::ptrdiff_t>(first + size));
}

/// Gather per-rank slices back into the global vector.
void assemble(std::vector<double>& global, const partition::IntervalPartition& part,
              const std::vector<std::vector<double>>& per_rank,
              std::span<const mp::Rank> ranks) {
  for (const mp::Rank r : ranks) {
    const auto& slice = per_rank[static_cast<std::size_t>(r)];
    std::copy(slice.begin(), slice.end(),
              global.begin() + static_cast<std::ptrdiff_t>(part.first(r)));
  }
}

}  // namespace

std::vector<double> run_reference_from(const graph::Csr& mesh,
                                       const sim::MachineSpec& machine,
                                       std::vector<double> y0, int iterations,
                                       const ResilientOptions& opts) {
  STANCE_REQUIRE(iterations >= 0, "run_reference_from: negative iterations");
  STANCE_REQUIRE(y0.size() == static_cast<std::size_t>(mesh.num_vertices()),
                 "run_reference_from: y0 must cover the mesh");
  if (iterations == 0) return y0;
  const auto part =
      partition::IntervalPartition::from_weights(mesh.num_vertices(), node_speeds(machine));
  mp::Cluster cluster(machine, opts.transport);
  const auto execs = build_executors(cluster, mesh, part, static_options(opts));

  std::vector<std::vector<double>> per_rank(machine.size());
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    std::vector<double> y = slice_of(y0, part, p.rank());
    execs[r]->run(p, y, iterations);
    per_rank[r] = std::move(y);
  });

  std::vector<mp::Rank> all(machine.size());
  for (std::size_t r = 0; r < all.size(); ++r) all[r] = static_cast<mp::Rank>(r);
  assemble(y0, part, per_rank, all);
  return y0;
}

ResilientResult run_resilient(const graph::Csr& mesh, const sim::MachineSpec& machine,
                              const ResilientOptions& opts) {
  STANCE_REQUIRE(opts.iterations >= 1, "run_resilient: need at least one iteration");
  const graph::Vertex nv = mesh.num_vertices();
  const int p = static_cast<int>(machine.size());
  const auto part = partition::IntervalPartition::from_weights(nv, node_speeds(machine));

  mp::Cluster cluster(machine, opts.transport);
  STANCE_REQUIRE(cluster.node_map().trivial(),
                 "run_resilient: expects one rank per node (the paper's testbed shape)");

  // Phase B, failure-free: faults are installed for the loop wave only.
  const auto execs = build_executors(cluster, mesh, part, static_options(opts));

  ResilientResult result;
  CheckpointStore store(p, static_cast<std::size_t>(nv));
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(p));
  std::vector<std::optional<mp::Process::SurvivorSet>> agreed(static_cast<std::size_t>(p));
  std::vector<double> agree_cost(static_cast<std::size_t>(p), 0.0);
  std::vector<double> ckpt_cost(static_cast<std::size_t>(p), 0.0);

  cluster.set_fault_plan(opts.faults);
  cluster.reset_clocks();
  cluster.run([&](mp::Process& pr) {
    const auto r = static_cast<std::size_t>(pr.rank());
    std::vector<double> y = Session::initial_values(part.first(pr.rank()), part.size(pr.rank()));
    try {
      // Chunks of checkpoint_every sweeps, saving between chunks. A chunk of
      // k is exactly k single sweeps, so every send (and every fault-plan
      // trigger) lands where a sweep-by-sweep loop would put it.
      const int chunk = opts.checkpoint_every > 0 ? opts.checkpoint_every : opts.iterations;
      for (int done = 0; done < opts.iterations;) {
        const int n = std::min(chunk, opts.iterations - done);
        execs[r]->run(pr, y, n);
        done += n;
        if (opts.checkpoint_every > 0 && done < opts.iterations) {
          const std::size_t bytes =
              store.save(pr.rank(), done, static_cast<std::size_t>(part.first(pr.rank())),
                         y);
          const double cost = opts.checkpoint_cost.seconds(bytes);
          pr.clock().advance_delay(cost);
          ckpt_cost[r] += cost;
        }
      }
      // Failure fence: a rank whose neighbors never include the victim can
      // reach here unscathed; the collective surfaces any pending failure
      // (and is a plain barrier otherwise), so every survivor takes the
      // recovery path below.
      pr.barrier();
      per_rank[r] = std::move(y);
    } catch (const mp::PeerFailed&) {
      const double before = pr.now();
      auto agreement = pr.agree_on_survivors(opts.detect_cost_seconds);
      agree_cost[r] = pr.now() - before - opts.detect_cost_seconds;
      agreed[r] = std::move(agreement);
    }
  });

  result.dead = cluster.dead_ranks();
  result.checkpoints_committed = store.commits();
  result.costs.checkpoint_virtual_seconds =
      *std::max_element(ckpt_cost.begin(), ckpt_cost.end());

  if (result.dead.empty()) {
    result.survivors.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) result.survivors[static_cast<std::size_t>(r)] = r;
    result.y.assign(static_cast<std::size_t>(nv), 0.0);
    assemble(result.y, part, per_rank, result.survivors);
    result.loop_virtual_seconds = cluster.makespan();
    return result;
  }

  // Every survivor recorded the same agreement; take the first.
  const auto it = std::find_if(agreed.begin(), agreed.end(),
                               [](const auto& a) { return a.has_value(); });
  STANCE_ASSERT_MSG(it != agreed.end(), "rank died but no survivor ran the agreement");
  result.survivors = (*it)->survivors;
  result.costs.detect_virtual_seconds = opts.detect_cost_seconds;
  result.costs.agree_virtual_seconds =
      *std::max_element(agree_cost.begin(), agree_cost.end());
  const double first_wave_seconds = cluster.makespan();

  // Restore point: last committed checkpoint, or the initial state.
  auto checkpoint = store.last();
  result.resume_iteration = checkpoint ? checkpoint->iteration : 0;
  std::vector<double> y0 = checkpoint ? std::move(checkpoint->y) : Session::initial_values(0, nv);
  const int remaining = opts.iterations - result.resume_iteration;

  // Shrink to the survivors: their nodes, their speeds, a fresh cluster
  // (virtual clocks restart at zero; recovery costs are accounted above).
  const sim::MachineSpec survivor_spec = machine.subset(result.survivors);
  mp::Cluster survivor_cluster(survivor_spec, opts.transport);
  const auto survivor_part =
      partition::IntervalPartition::from_weights(nv, node_speeds(survivor_spec));
  const auto survivor_execs =
      build_executors(survivor_cluster, mesh, survivor_part, static_options(opts));
  result.costs.rebuild_virtual_seconds = survivor_cluster.makespan();

  const int sp = static_cast<int>(survivor_spec.size());
  std::vector<std::vector<double>> survivor_y(static_cast<std::size_t>(sp));
  std::vector<double> restore_cost(static_cast<std::size_t>(sp), 0.0);
  survivor_cluster.reset_clocks();
  survivor_cluster.run([&](mp::Process& pr) {
    const auto r = static_cast<std::size_t>(pr.rank());
    std::vector<double> y = slice_of(y0, survivor_part, pr.rank());
    const double cost = opts.checkpoint_cost.seconds(y.size() * sizeof(double));
    pr.clock().advance_delay(cost);  // reload from stable storage
    restore_cost[r] = cost;
    survivor_execs[r]->run(pr, y, remaining);
    survivor_y[r] = std::move(y);
  });
  result.costs.restore_virtual_seconds =
      *std::max_element(restore_cost.begin(), restore_cost.end());

  result.y.assign(static_cast<std::size_t>(nv), 0.0);
  std::vector<mp::Rank> all(static_cast<std::size_t>(sp));
  for (int r = 0; r < sp; ++r) all[static_cast<std::size_t>(r)] = r;
  assemble(result.y, survivor_part, survivor_y, all);
  result.loop_virtual_seconds = first_wave_seconds +
                                result.costs.rebuild_virtual_seconds +
                                survivor_cluster.makespan();
  return result;
}

}  // namespace stance
