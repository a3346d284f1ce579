// refine_front: an AMR refinement front sweeps a seeded Delaunay mesh.
//
// The mesh is RCB-ordered, so the front is a sliding index range. Inside the
// front vertices get a denser stencil (skip-level (v, v+2) edges) and a
// higher weight; vertices it has passed coarsen back. Each phase is one
// graph::CsrDelta. 4 ranks run as 2 nodes x 2 over the shm transport with
// SUN4 costs and node-aware coalescing; the load-balance controller is off
// because the application knows its cost structure and repartitions by
// vertex weight itself.
//
// One solve = AdaptiveExecutor construction through the last phase. One
// step = one phase: the driving thread applies the phase's delta once
// (Csr::apply), every rank adopts the result through
// AdaptiveExecutor::apply_mesh_delta (schedule splice, plan patch,
// redistribution onto the weight-balanced partition), then a few iterations.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "graph/delta.hpp"
#include "partition/redistribute.hpp"
#include "stance/stance.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace stance;

constexpr int kRanks = 4;
constexpr int kPerNode = 2;

struct Config {
  graph::Vertex vertices = 20000;
  graph::Vertex quick_vertices = 3000;
  int phases = 12;
  int iters_per_phase = 4;
  std::size_t step_floor = 200;   ///< p95 phase tail
  int scratch_solves = 5;         ///< traced run: from-scratch comparison solves
};

/// Everything the seed determines, generated before timing starts.
struct Inputs {
  graph::Csr raw;                                   ///< unordered mesh (ordering replay)
  graph::Csr base;                                  ///< RCB-ordered starting mesh
  std::vector<graph::CsrDelta> deltas;              ///< one per phase, unstamped
  std::vector<partition::IntervalPartition> parts;  ///< weight-balanced, per phase
  std::vector<std::vector<double>> work;            ///< per-vertex weight, per phase
  std::vector<double> expected;                     ///< reference final y
  graph::Vertex moved = 0;                          ///< vertices changing owner, per solve
};

Inputs make_inputs(const RunOptions& opt, const Config& cfg) {
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 23);
  Inputs in;
  in.raw = graph::random_delaunay(opt.quick ? cfg.quick_vertices : cfg.vertices, rng());
  in.base = in.raw.permuted(order::compute(in.raw, order::Method::kRcb));
  const auto n = in.base.num_vertices();

  // The front: seeded half-width, weight and a jittered left-to-right path.
  const double half = rng.uniform(0.072, 0.078);
  const double hot = rng.uniform(19.0, 21.0);
  std::vector<double> center(static_cast<std::size_t>(cfg.phases));
  for (int k = 0; k < cfg.phases; ++k) {
    center[static_cast<std::size_t>(k)] =
        (0.5 + k + rng.uniform(-0.3, 0.3)) / static_cast<double>(cfg.phases);
  }
  auto in_front = [&](graph::Vertex v, int k) {
    return std::abs(in.base.coord(v).x - center[static_cast<std::size_t>(k)]) < half;
  };
  auto refined_edges = [&](int k) {
    std::vector<graph::Edge> out;
    for (graph::Vertex v = 0; v + 2 < n; ++v) {
      if (!in_front(v, k)) continue;
      const auto nbrs = in.base.neighbors(v);
      if (std::find(nbrs.begin(), nbrs.end(), v + 2) != nbrs.end()) continue;
      out.emplace_back(v, v + 2);
    }
    return out;
  };

  const auto loop = exec::LoopCostModel::sun4();
  graph::Csr mesh = in.base;
  std::vector<graph::Edge> prev;
  auto part = partition::IntervalPartition::from_weights(n, std::vector<double>(kRanks, 1.0));
  in.expected = initial_values(n);
  for (int k = 0; k < cfg.phases; ++k) {
    const auto refined = refined_edges(k);
    graph::CsrDelta d;
    std::set_difference(refined.begin(), refined.end(), prev.begin(), prev.end(),
                        std::back_inserter(d.insert_edges));
    std::set_difference(prev.begin(), prev.end(), refined.begin(), refined.end(),
                        std::back_inserter(d.remove_edges));
    for (graph::Vertex v = 0; v < n; ++v) {
      const bool now = in_front(v, k);
      const bool before = k > 0 && in_front(v, k - 1);
      if (now != before) d.weight_edits.push_back({v, now ? hot : 1.0});
    }
    in.deltas.push_back(d);  // unstamped: each solve applies a fresh copy once per phase
    mesh = mesh.apply(d);
    prev = refined;

    std::vector<double> vw(static_cast<std::size_t>(n));
    std::vector<double> weight(static_cast<std::size_t>(n));
    for (graph::Vertex v = 0; v < n; ++v) {
      weight[static_cast<std::size_t>(v)] = mesh.weight(v);
      vw[static_cast<std::size_t>(v)] =
          loop.per_vertex * mesh.weight(v) + loop.per_edge * static_cast<double>(mesh.degree(v));
    }
    auto next = partition::IntervalPartition::from_vertex_weights(
        vw, std::vector<double>(kRanks, 1.0));
    in.moved += part.moved(next);
    part = next;
    in.parts.push_back(std::move(next));
    in.work.push_back(std::move(weight));
    exec::IrregularLoop::reference_iterate(mesh, in.expected, cfg.iters_per_phase);
  }
  return in;
}

/// The deterministic outcome of one solve.
struct Signature {
  double virtual_s = 0.0;
  std::uint64_t dirty = 0;  ///< sum of the splice's dirty vertices over phases
  MpCounts mp;

  friend bool operator==(const Signature&, const Signature&) = default;
};

class RefineFront {
 public:
  RefineFront(const RunOptions& opt, const Config& cfg) : opt_(opt), cfg_(cfg) {}

  void setup() {
    cluster_.reset();
    in_.reset();
    reference_.reset();
    in_.emplace(make_inputs(opt_, cfg_));
    const sim::MachineSpec spec = sim::MachineSpec::sun4_ethernet(kRanks);
    const auto kind = opt_.transport == mp::TransportKind::kDefault ? mp::TransportKind::kShm
                                                                    : opt_.transport;
    cluster_ = std::make_unique<mp::Cluster>(spec, mp::NodeMap::contiguous(kRanks, kPerNode),
                                             kind);
    opts_ = lb::AdaptiveOptions{};
    opts_.cpu = sim::CpuCostModel::sun4();
    opts_.loop = exec::LoopCostModel::sun4();
    opts_.enable_lb = false;  // the phases repartition explicitly
    opts_.lb.objective =
        partition::ArrangementObjective::from_network(spec.net, sizeof(double));
    opts_.coalesce = true;
    opts_.coalesce_opts.policy = sched::CoalescePolicy::kAdaptive;
    opts_.coalesce_opts.bytes_per_elem = sizeof(double);
    initial_ = partition::IntervalPartition::from_weights(in_->base.num_vertices(),
                                                          std::vector<double>(kRanks, 1.0));
    // Warm-up solve: first-touch arenas and the reference signature.
    Timings scratch;
    (void)solve(scratch, probe_);
    reference_ = last_;
  }

  void set_work(lb::AdaptiveExecutor& ax, int k, int rank) const {
    const auto& part = ax.partition();
    const auto& weight = in_->work[static_cast<std::size_t>(k)];
    std::vector<double> w(static_cast<std::size_t>(part.size(rank)));
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = weight[static_cast<std::size_t>(part.to_global(rank, static_cast<graph::Vertex>(i)))];
    }
    ax.set_vertex_work(std::move(w));
  }

  /// One spliced solve; appends its phases to `t`, returns its wall and CPU
  /// seconds.
  /// The driving thread edits the mesh (one Csr::apply per phase, the mesh
  /// generator's job); every rank then adopts it through apply_mesh_delta in
  /// that phase's cluster run. Executors and values live across the runs.
  HostSeconds solve(Timings& t, Result& r) {
    std::vector<std::unique_ptr<lb::AdaptiveExecutor>> ax(kRanks);
    std::vector<std::vector<double>> y(kRanks);
    Signature sig;
    cluster_->reset_clocks();
    const HostTimer timer;
    cluster_->run([&](mp::Process& p) {
      Tracer::set_thread_rank(p.rank());
      const auto rank = static_cast<std::size_t>(p.rank());
      Span span("lb.executor_build");
      ax[rank] = std::make_unique<lb::AdaptiveExecutor>(p, in_->base, initial_, opts_);
      y[rank] = initial_values(initial_, p.rank());
    });
    sig.mp.add(cluster_->total_stats());
    // The executors read `current` until the next apply_mesh_delta repoints
    // them, so the previous mesh is released only after that.
    std::unique_ptr<graph::Csr> current;
    for (std::size_t k = 0; k < in_->deltas.size(); ++k) {
      const auto ts = Clock::now();
      graph::CsrDelta d = in_->deltas[k];
      std::unique_ptr<graph::Csr> next;
      {
        Span span("graph.apply");
        next = std::make_unique<graph::Csr>((current ? *current : in_->base).apply(d));
      }
      cluster_->run([&](mp::Process& p) {
        Tracer::set_thread_rank(p.rank());
        const auto rank = static_cast<std::size_t>(p.rank());
        {
          Span span("lb.mesh_delta");
          ax[rank]->apply_mesh_delta(p, *next, d, &in_->parts[k], y[rank]);
        }
        if (rank == 0) sig.dirty += ax[rank]->last_delta().dirty.size();
        set_work(*ax[rank], static_cast<int>(k), p.rank());
        Span span("exec.iterate");
        (void)ax[rank]->run(p, y[rank], cfg_.iters_per_phase);
      });
      sig.mp.add(cluster_->total_stats());
      current = std::move(next);
      t.step_ms.push_back(seconds_since(ts) * 1e3);
    }
    const HostSeconds solve_time = timer.elapsed();

    sig.virtual_s = cluster_->makespan();
    last_ = sig;
    const bool y_ok = bit_equal(gather(ax, y), in_->expected);
    const bool sig_ok = !reference_ || sig == *reference_;
    ++r.attempted;
    if (!y_ok || !sig_ok) ++r.failed;
    r.check(y_ok, "refine_front: final y differs from the reference replay");
    r.check(sig_ok, "refine_front: virtual time or mp counts changed between solves");
    return solve_time;
  }

  /// The ranks' final values in global numbering.
  [[nodiscard]] std::vector<double> gather(
      const std::vector<std::unique_ptr<lb::AdaptiveExecutor>>& ax,
      const std::vector<std::vector<double>>& y) const {
    std::vector<double> out(in_->expected.size(), 0.0);
    for (int r = 0; r < kRanks; ++r) {
      const auto& part = ax[static_cast<std::size_t>(r)]->partition();
      const auto& values = y[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < values.size(); ++i) {
        out[static_cast<std::size_t>(part.to_global(r, static_cast<graph::Vertex>(i)))] =
            values[i];
      }
    }
    return out;
  }

  /// Traced run only: the same phases with a from-scratch Phase B at every
  /// boundary (redistribute, then a fresh AdaptiveExecutor). Returns the
  /// busiest rank's boundary host seconds per phase; checks the final y.
  double scratch_boundary_s(Result& r) {
    std::vector<graph::Csr> meshes;
    meshes.reserve(in_->deltas.size());
    for (const auto& delta : in_->deltas) {
      graph::CsrDelta d = delta;
      meshes.push_back((meshes.empty() ? in_->base : meshes.back()).apply(d));
    }
    std::vector<std::unique_ptr<lb::AdaptiveExecutor>> ax(kRanks);
    std::vector<std::vector<double>> y(kRanks);
    std::vector<double> boundary(kRanks, 0.0);
    cluster_->reset_clocks();
    cluster_->run([&](mp::Process& p) {
      const auto rank = static_cast<std::size_t>(p.rank());
      ax[rank] = std::make_unique<lb::AdaptiveExecutor>(p, in_->base, initial_, opts_);
      y[rank] = initial_values(initial_, p.rank());
    });
    for (std::size_t k = 0; k < meshes.size(); ++k) {
      cluster_->run([&](mp::Process& p) {
        const auto rank = static_cast<std::size_t>(p.rank());
        const auto tb = Clock::now();
        y[rank] = partition::redistribute<double>(p, y[rank], ax[rank]->partition(),
                                                  in_->parts[k]);
        ax[rank] = std::make_unique<lb::AdaptiveExecutor>(p, meshes[k], in_->parts[k], opts_);
        boundary[rank] += seconds_since(tb);
        set_work(*ax[rank], static_cast<int>(k), p.rank());
        (void)ax[rank]->run(p, y[rank], cfg_.iters_per_phase);
      });
    }
    const bool y_ok = bit_equal(gather(ax, y), in_->expected);
    ++r.attempted;
    if (!y_ok) ++r.failed;
    r.check(y_ok, "refine_front: from-scratch solve differs from the reference replay");
    return *std::max_element(boundary.begin(), boundary.end()) /
           static_cast<double>(meshes.size());
  }

  Result run() {
    Result r;
    const HostSeconds setup_time = timed_setups(opt_, [&] { setup(); });
    r.absorb(probe_);
    Timings t;
    t.step_floor = opt_.quick ? 20 : cfg_.step_floor;
    Tracer::get().clear();
    measure(opt_, t, [&] { return solve(t, r); });
    const std::size_t traced = t.traced_solves.size();

    const Signature& sig = *reference_;
    r.note("virtual_s", sig.virtual_s);
    if (!opt_.trace) {
      fill_end_to_end(r, t, setup_time, sig.virtual_s);
      return r;
    }
    for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0, unit);
    const SelfSeconds self = Tracer::get().self_seconds();
    const double mesh_delta_s = span_per_solve(self, "lb.mesh_delta", traced);
    r.set("exec.iterate_s", span_per_solve(self, "exec.iterate", traced), "s");
    r.set("lb.mesh_delta_s", mesh_delta_s, "s");
    r.set("graph.apply_s", span_per_solve(self, "graph.apply", traced), "s");
    r.set("partition.moved_vertices", static_cast<double>(in_->moved), "count");
    r.set("sched.dirty_vertices", static_cast<double>(sig.dirty), "count");
    sig.mp.report(r);
    r.set("trace.overhead_s", median(t.traced_solves).cpu - median(t.solves).cpu, "s");
    r.note("executor_build_s", span_per_solve(self, "lb.executor_build", traced));

    // Splice speedup on the host; base: a from-scratch rebuild (redistribute
    // + AdaptiveExecutor construction) of the same phase boundary.
    std::vector<double> scratch;
    for (int i = 0; i < (opt_.quick ? 1 : cfg_.scratch_solves); ++i) {
      scratch.push_back(scratch_boundary_s(r));
    }
    const double spliced = mesh_delta_s / static_cast<double>(cfg_.phases);
    r.set("sched.splice_host_speedup", median(scratch) / spliced, "x");
    r.note("splice_base_scratch_boundary_s", median(scratch));
    r.note("splice_boundary_s", spliced);

    const PhaseBReplay replay = replay_phase_b(*cluster_, in_->raw, order::Method::kRcb, 7,
                                               initial_, opts_.cpu, &opts_.coalesce_opts);
    r.set("order.rcb_s", replay.order_s, "s");
    r.set("sched.build_s", replay.build_s, "s");
    r.set("sched.coalesce_s", replay.coalesce_s, "s");
    return r;
  }

 private:
  const RunOptions& opt_;
  Config cfg_;
  std::optional<Inputs> in_;
  std::unique_ptr<mp::Cluster> cluster_;
  lb::AdaptiveOptions opts_;
  partition::IntervalPartition initial_;
  std::optional<Signature> reference_;
  Signature last_;
  Result probe_;  ///< oracle verdicts of every set-up's warm-up solve
};

}  // namespace

Result run_refine_front(const RunOptions& opt) {
  RefineFront w(opt, Config{});
  return w.run();
}

}  // namespace perfbench
