#include "stance/session.hpp"

#include <algorithm>
#include <cmath>

#include "partition/interval.hpp"
#include "stance/metrics.hpp"
#include "support/assert.hpp"

namespace stance {

Session::Session(graph::Csr mesh, SessionConfig cfg) : cfg_(std::move(cfg)) {
  const auto perm = order::compute(mesh, cfg_.ordering, cfg_.seed);
  mesh_ = mesh.permuted(perm);
  cluster_ = std::make_unique<mp::Cluster>(cfg_.machine);
}

std::vector<double> Session::sequential_times(int iterations) const {
  const double work =
      static_cast<double>(iterations) *
      (cfg_.loop.per_vertex * static_cast<double>(mesh_.num_vertices()) +
       cfg_.loop.per_edge * 2.0 * static_cast<double>(mesh_.num_edges()));
  std::vector<double> t;
  t.reserve(cfg_.machine.size());
  for (const auto& node : cfg_.machine.nodes) t.push_back(work / node.speed);
  return t;
}

std::vector<double> Session::initial_values(graph::Vertex first, graph::Vertex count) {
  std::vector<double> y(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = initial_value(first + static_cast<graph::Vertex>(i));
  }
  return y;
}

std::vector<std::unique_ptr<lb::AdaptiveExecutor>> build_executors(
    mp::Cluster& cluster, const graph::Csr& mesh,
    const partition::IntervalPartition& part, const lb::AdaptiveOptions& opts) {
  std::vector<std::unique_ptr<lb::AdaptiveExecutor>> execs(
      static_cast<std::size_t>(cluster.nprocs()));
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    execs[static_cast<std::size_t>(p.rank())] =
        std::make_unique<lb::AdaptiveExecutor>(p, mesh, part, opts);
  });
  return execs;
}

namespace {

/// Per-rank sums, then their sum in rank order (cross-run determinism).
double checksum_of(const std::vector<std::vector<double>>& per_rank) {
  double checksum = 0.0;
  for (const auto& y : per_rank) {
    double sum = 0.0;
    for (const double v : y) sum += v;
    checksum += sum;
  }
  return checksum;
}

}  // namespace

Session::LoopRun Session::run_loop(const partition::IntervalPartition& part,
                                   int iterations, lb::LbOptions lb, bool enable_lb) {
  lb::AdaptiveOptions opts;
  opts.lb = lb;
  opts.build = cfg_.build;
  opts.cpu = cfg_.cpu;
  opts.loop = cfg_.loop;
  opts.enable_lb = enable_lb;
  const auto execs = build_executors(*cluster_, mesh_, part, opts);

  LoopRun run;
  run.build_seconds = cluster_->makespan();
  run.y.resize(cfg_.machine.size());
  run.reports.resize(cfg_.machine.size());
  cluster_->reset_clocks();
  cluster_->run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    std::vector<double> y = initial_values(part.first(p.rank()), part.size(p.rank()));
    run.reports[r] = execs[r]->run(p, y, iterations);
    run.y[r] = std::move(y);
  });
  return run;
}

StaticRunResult Session::run_static(int iterations) {
  std::vector<double> weights;
  weights.reserve(cfg_.machine.size());
  for (const auto& node : cfg_.machine.nodes) weights.push_back(node.speed);
  return run_static_weighted(iterations, std::move(weights));
}

StaticRunResult Session::run_static_weighted(int iterations, std::vector<double> weights) {
  STANCE_REQUIRE(weights.size() == cfg_.machine.size(),
                 "run_static: one weight per node required");
  const auto part = partition::IntervalPartition::from_weights(mesh_.num_vertices(),
                                                               weights);
  const LoopRun run = run_loop(part, iterations, {}, /*enable_lb=*/false);
  StaticRunResult result;
  result.build_seconds = run.build_seconds;
  result.loop_seconds = cluster_->makespan();
  result.finish_times = cluster_->finish_times();
  result.loop_stats = cluster_->total_stats();
  result.checksum = checksum_of(run.y);
  result.efficiency = nonuniform_efficiency(result.loop_seconds, sequential_times(iterations));
  return result;
}

AdaptiveRunResult Session::run_adaptive(int iterations, lb::LbOptions lb, bool enable_lb) {
  // Paper §5: "The graph was decomposed assuming all the processors had
  // equal computational ratio."
  const std::vector<double> equal(cfg_.machine.size(), 1.0);
  const auto part =
      partition::IntervalPartition::from_weights(mesh_.num_vertices(), equal);
  const LoopRun run = run_loop(part, iterations, lb, enable_lb);

  AdaptiveRunResult result;
  result.build_seconds = run.build_seconds;
  result.loop_seconds = cluster_->makespan();
  for (const auto& rep : run.reports) {
    result.checks = std::max(result.checks, rep.checks);
    result.remaps = std::max(result.remaps, rep.remaps);
    result.check_seconds = std::max(result.check_seconds, rep.check_seconds);
    result.remap_seconds = std::max(result.remap_seconds, rep.remap_seconds);
  }
  result.checksum = checksum_of(run.y);
  return result;
}

double Session::verify_against_reference(int iterations) {
  const auto nv = mesh_.num_vertices();
  std::vector<double> weights;
  for (const auto& node : cfg_.machine.nodes) weights.push_back(node.speed);
  const auto part = partition::IntervalPartition::from_weights(nv, weights);
  // Static run: the final partition is `part`.
  const LoopRun run = run_loop(part, iterations, {}, /*enable_lb=*/false);

  std::vector<double> parallel(static_cast<std::size_t>(nv));
  for (std::size_t r = 0; r < run.y.size(); ++r) {
    std::copy(run.y[r].begin(), run.y[r].end(),
              parallel.begin() + static_cast<std::ptrdiff_t>(part.first(static_cast<mp::Rank>(r))));
  }

  std::vector<double> reference = initial_values(0, nv);
  exec::IrregularLoop::reference_iterate(mesh_, reference, iterations);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(parallel[i] - reference[i]));
  }
  return max_diff;
}

}  // namespace stance
