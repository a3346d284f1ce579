// adaptive_shift: the paper's adaptive environment (Table 5) as a whole job.
//
// The 30,269-vertex paper mesh in spectral order runs on 4 ranks grouped as
// 2 nodes x 2 over the tcp transport, with SUN4 costs, the network
// arrangement objective, node-aware coalescing, delegate rotation and
// measured frame feedback. Coalescing always frames (kAlwaysFrame): on this
// mesh the adaptive verdict demotes every node pair to direct messages, which
// would take the frame path — and what rotation prices — off the loop. A
// seeded competing load hops between the two nodes; a load-balance check
// runs every `check_interval` iterations.
//
// One solve = AdaptiveExecutor construction (Phase B) through the last
// iteration. One step = one check interval: AdaptiveExecutor::run for the
// interval's iterations, then AdaptiveExecutor::check_now (which may remap).
#include <algorithm>
#include <memory>
#include <optional>

#include "common.hpp"
#include "stance/stance.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace stance;

constexpr int kRanks = 4;
constexpr int kPerNode = 2;

struct Config {
  int iterations = 200;
  int check_interval = 10;
  graph::Vertex quick_vertices = 3000;  ///< smoke-mode mesh (full mode: paper mesh)
  std::size_t step_floor = 200;         ///< p95 step tail
};

/// Everything the seed determines, generated before timing starts.
struct Inputs {
  graph::Csr raw;                         ///< unordered mesh (ordering replay)
  graph::Csr mesh;                        ///< spectral order: what the solver sees
  std::vector<sim::LoadProfile> profiles;  ///< per rank
  std::vector<double> expected;           ///< reference final y, global numbering
};

/// The competing load starts on node 0 and hops to the other node every 3
/// virtual seconds on the paper mesh (scaled with the mesh size), about every
/// second check interval. The seed draws the CPU share each visit leaves to
/// the solver, from a narrow band: the remap decisions, and with them the
/// virtual time, stay comparable from seed to seed.
std::vector<sim::LoadProfile> load_schedule(Rng& rng, graph::Vertex n) {
  const double segment = 3.0 * static_cast<double>(n) / 30269.0;
  std::vector<std::vector<sim::LoadSegment>> segs(kRanks);
  int node = 0;
  for (int k = 0; k < 24; ++k, node = 1 - node) {  // outlasts any solve (~33 s)
    const double avail = rng.uniform(0.42, 0.44);
    for (int r = 0; r < kRanks; ++r) {
      segs[static_cast<std::size_t>(r)].push_back(
          {k * segment, r / kPerNode == node ? avail : 1.0});
    }
  }
  std::vector<sim::LoadProfile> out;
  for (auto& s : segs) out.push_back(sim::LoadProfile::trace(std::move(s)));
  return out;
}

Inputs make_inputs(const RunOptions& opt, const Config& cfg) {
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 11);
  Inputs in;
  // The paper mesh is one fixed mesh; smoke mode draws a small one.
  in.raw = opt.quick ? graph::random_delaunay(cfg.quick_vertices, rng())
                     : graph::paper_mesh();
  in.mesh = in.raw.permuted(order::compute(in.raw, order::Method::kSpectral));
  in.profiles = load_schedule(rng, in.mesh.num_vertices());
  in.expected = initial_values(in.mesh.num_vertices());
  exec::IrregularLoop::reference_iterate(in.mesh, in.expected, cfg.iterations);
  return in;
}

/// The deterministic outcome of one solve: everything that must repeat
/// bit-for-bit from solve to solve and run to run.
struct Signature {
  double virtual_s = 0.0;
  int checks = 0, remaps = 0, rotations = 0, replans = 0;
  MpCounts mp;

  friend bool operator==(const Signature&, const Signature&) = default;
};

class AdaptiveShift {
 public:
  AdaptiveShift(const RunOptions& opt, const Config& cfg) : opt_(opt), cfg_(cfg) {}

  void setup() {
    cluster_.reset();
    in_.reset();
    reference_.reset();
    in_.emplace(make_inputs(opt_, cfg_));
    sim::MachineSpec spec = sim::MachineSpec::sun4_ethernet(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      spec.nodes[static_cast<std::size_t>(r)].profile = in_->profiles[static_cast<std::size_t>(r)];
    }
    const auto kind = opt_.transport == mp::TransportKind::kDefault ? mp::TransportKind::kTcp
                                                                    : opt_.transport;
    cluster_ = std::make_unique<mp::Cluster>(spec, mp::NodeMap::contiguous(kRanks, kPerNode),
                                             kind);
    delegates_ = cluster_->node_map().delegates();
    opts_ = lb::AdaptiveOptions{};
    opts_.cpu = sim::CpuCostModel::sun4();
    opts_.loop = exec::LoopCostModel::sun4();
    opts_.lb.check_interval = cfg_.check_interval;
    opts_.lb.objective =
        partition::ArrangementObjective::from_network(spec.net, sizeof(double));
    opts_.coalesce = true;
    opts_.coalesce_opts.policy = sched::CoalescePolicy::kAlwaysFrame;
    opts_.coalesce_opts.bytes_per_elem = sizeof(double);
    opts_.rotate_delegates = true;
    opts_.measured_feedback = true;
    initial_ = partition::IntervalPartition::from_weights(
        in_->mesh.num_vertices(), std::vector<double>(kRanks, 1.0));
    // Warm-up solve: first-touch arenas, socket buffers, and the reference
    // signature every timed solve must reproduce.
    Timings scratch;
    (void)solve(scratch, probe_);
    reference_ = last_;
  }

  /// One full solve; appends its steps to `t`, records the oracle verdicts
  /// in `r`, returns its wall and CPU seconds.
  HostSeconds solve(Timings& t, Result& r) {
    const int steps = cfg_.iterations / cfg_.check_interval;
    std::vector<std::vector<double>> step_s(kRanks, std::vector<double>(steps, 0.0));
    std::vector<double> y_final(in_->expected.size(), 0.0);
    Signature sig;
    // A rotation persists in the cluster's node map; every solve starts from
    // the initial delegates.
    if (cluster_->node_map().delegates() != delegates_) cluster_->set_delegates(delegates_);
    cluster_->reset_clocks();
    const HostTimer timer;
    cluster_->run([&](mp::Process& p) {
      Tracer::set_thread_rank(p.rank());
      const auto rank = static_cast<std::size_t>(p.rank());
      std::unique_ptr<lb::AdaptiveExecutor> ax;
      {
        Span span("lb.executor_build");
        ax = std::make_unique<lb::AdaptiveExecutor>(p, in_->mesh, initial_, opts_);
      }
      std::vector<double> y = initial_values(initial_, p.rank());
      for (int k = 0; k < steps; ++k) {
        const auto ts = Clock::now();
        {
          Span span("exec.iterate");
          (void)ax->run(p, y, cfg_.check_interval);
        }
        if (k + 1 < steps) {
          Span span("lb.check");
          const auto outcome = ax->check_now(p, y);
          if (outcome.decision.remap) span.rename("lb.remap");
          if (rank == 0) {
            ++sig.checks;
            sig.remaps += outcome.decision.remap ? 1 : 0;
            sig.rotations += outcome.rotated ? 1 : 0;
            sig.replans += outcome.replanned ? 1 : 0;
          }
        }
        step_s[rank][static_cast<std::size_t>(k)] = seconds_since(ts);
      }
      const auto& part = ax->partition();
      for (std::size_t i = 0; i < y.size(); ++i) {
        y_final[static_cast<std::size_t>(part.to_global(p.rank(), static_cast<graph::Vertex>(i)))] =
            y[i];
      }
    });
    const HostSeconds solve_time = timer.elapsed();

    for (int k = 0; k < steps; ++k) {
      double worst = 0.0;
      for (const auto& per_rank : step_s) worst = std::max(worst, per_rank[static_cast<std::size_t>(k)]);
      t.step_ms.push_back(worst * 1e3);
    }

    sig.virtual_s = cluster_->makespan();
    sig.mp.add(cluster_->total_stats());
    last_ = sig;

    ++r.attempted;
    const bool y_ok = bit_equal(y_final, in_->expected);
    const bool sig_ok = !reference_ || sig == *reference_;
    if (!y_ok || !sig_ok) ++r.failed;
    r.check(y_ok, "adaptive_shift: final y differs from the reference replay");
    r.check(sig_ok, "adaptive_shift: virtual time or lb/mp counts changed between solves");
    return solve_time;
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
    r.note("lb.remaps", sig.remaps);
    r.note("lb.rotations", sig.rotations);
    if (!opt_.trace) {
      fill_end_to_end(r, t, setup_time, sig.virtual_s);
      return r;
    }
    for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0, unit);
    const SelfSeconds self = Tracer::get().self_seconds();
    r.set("exec.iterate_s", span_per_solve(self, "exec.iterate", traced), "s");
    r.set("lb.check_s", span_per_solve(self, "lb.check", traced), "s");
    r.set("lb.remap_s", span_per_solve(self, "lb.remap", traced), "s");
    r.set("lb.checks", sig.checks, "count");
    r.set("lb.remaps", sig.remaps, "count");
    r.set("lb.rotations", sig.rotations, "count");
    r.set("lb.replans", sig.replans, "count");
    sig.mp.report(r);
    r.set("trace.overhead_s", median(t.traced_solves).cpu - median(t.solves).cpu, "s");
    r.note("executor_build_s", span_per_solve(self, "lb.executor_build", traced));
    const PhaseBReplay replay =
        replay_phase_b(*cluster_, in_->raw, order::Method::kSpectral, 7, initial_, opts_.cpu,
                       &opts_.coalesce_opts);
    r.set("order.spectral_s", replay.order_s, "s");
    r.set("sched.build_s", replay.build_s, "s");
    r.set("sched.coalesce_s", replay.coalesce_s, "s");
    return r;
  }

 private:
  const RunOptions& opt_;
  Config cfg_;
  std::optional<Inputs> in_;
  std::unique_ptr<mp::Cluster> cluster_;
  std::vector<mp::Rank> delegates_;
  lb::AdaptiveOptions opts_;
  partition::IntervalPartition initial_;
  std::optional<Signature> reference_;
  Signature last_;
  Result probe_;  ///< oracle verdicts of every set-up's warm-up solve
};

}  // namespace

Result run_adaptive_shift(const RunOptions& opt) {
  AdaptiveShift w(opt, Config{});
  return w.run();
}

}  // namespace perfbench
