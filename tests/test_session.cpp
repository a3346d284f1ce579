// Integration tests for the Session facade and the paper §4 metrics —
// end-to-end pipeline runs at reduced scale.
#include <gtest/gtest.h>

#include "stance/stance.hpp"

namespace stance {
namespace {

SessionConfig small_config(std::size_t nprocs) {
  SessionConfig cfg;
  cfg.machine = sim::MachineSpec::sun4_ethernet(nprocs);
  cfg.ordering = order::Method::kHilbert;  // fast; spectral tested elsewhere
  cfg.build = sched::BuildMethod::kSort2;
  return cfg;
}

graph::Csr small_mesh() { return graph::random_delaunay(1500, 21); }

// --- metrics -------------------------------------------------------------------

TEST(Metrics, EfficiencyUniformClusterMatchesClassic) {
  // 4 equal nodes, perfect speedup: E = 1.
  const std::vector<double> t_individual{100.0, 100.0, 100.0, 100.0};
  EXPECT_NEAR(nonuniform_efficiency(25.0, t_individual), 1.0, 1e-12);
  EXPECT_NEAR(nonuniform_efficiency(50.0, t_individual), 0.5, 1e-12);
}

TEST(Metrics, EfficiencyHeterogeneousCluster) {
  // Nodes of rate 1/100 and 1/50: combined rate 0.03; perfect time 33.33.
  const std::vector<double> t_individual{100.0, 50.0};
  EXPECT_NEAR(nonuniform_efficiency(100.0 / 3.0, t_individual), 1.0, 1e-12);
}

TEST(Metrics, EfficiencyValidation) {
  EXPECT_THROW((void)nonuniform_efficiency(0.0, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)nonuniform_efficiency(1.0, std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW((void)nonuniform_efficiency(1.0, std::vector<double>{-1.0}),
               std::invalid_argument);
}

TEST(Metrics, SpeedupVsBest) {
  const std::vector<double> t{120.0, 80.0, 100.0};
  EXPECT_DOUBLE_EQ(speedup_vs_best(40.0, t), 2.0);
}

// --- static runs -----------------------------------------------------------------

TEST(Session, StaticRunProducesSensibleNumbers) {
  Session s(small_mesh(), small_config(3));
  const auto r = s.run_static(20);
  EXPECT_GT(r.build_seconds, 0.0);
  EXPECT_GT(r.loop_seconds, 0.0);
  EXPECT_GT(r.efficiency, 0.3);
  EXPECT_LE(r.efficiency, 1.0);
  EXPECT_EQ(r.finish_times.size(), 3u);
  EXPECT_GT(r.loop_stats.messages_sent, 0u);
}

TEST(Session, StaticRunIsDeterministic) {
  const auto mesh = small_mesh();
  Session a(mesh, small_config(4));
  Session b(mesh, small_config(4));
  const auto ra = a.run_static(15);
  const auto rb = b.run_static(15);
  EXPECT_EQ(ra.loop_seconds, rb.loop_seconds);
  EXPECT_EQ(ra.checksum, rb.checksum);
  EXPECT_EQ(ra.build_seconds, rb.build_seconds);
}

TEST(Session, MoreWorkstationsReduceLoopTime) {
  const auto mesh = small_mesh();
  double prev = 1e300;
  for (const std::size_t n : {1u, 3u, 5u}) {
    Session s(mesh, small_config(n));
    const auto r = s.run_static(20);
    EXPECT_LT(r.loop_seconds, prev) << n << " workstations";
    prev = r.loop_seconds;
  }
}

TEST(Session, EfficiencyDeclinesWithClusterSize) {
  const auto mesh = small_mesh();
  Session s1(mesh, small_config(1));
  Session s5(mesh, small_config(5));
  const auto r1 = s1.run_static(20);
  const auto r5 = s5.run_static(20);
  EXPECT_NEAR(r1.efficiency, 1.0, 0.05);
  EXPECT_LT(r5.efficiency, r1.efficiency);
}

TEST(Session, WeightedRunRespectsWeights) {
  Session s(small_mesh(), small_config(2));
  // Grossly unbalanced weights hurt: the overloaded node dominates. (The
  // ratio is compressed below the 1.8x compute skew by the per-iteration
  // communication latency both variants pay.)
  const auto balanced = s.run_static_weighted(10, {1.0, 1.0});
  const auto skewed = s.run_static_weighted(10, {9.0, 1.0});
  EXPECT_GT(skewed.loop_seconds, 1.2 * balanced.loop_seconds);
}

TEST(Session, SequentialTimesScaleWithSpeed) {
  SessionConfig cfg = small_config(2);
  cfg.machine.nodes[1].speed = 0.5;
  Session s(small_mesh(), cfg);
  const auto t = s.sequential_times(10);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t[1], 2.0 * t[0], 1e-9);
}

TEST(Session, VerifyAgainstReferenceIsExact) {
  Session s(small_mesh(), small_config(4));
  EXPECT_EQ(s.verify_against_reference(25), 0.0);
}

TEST(Session, AllOrderingsRunTheFullPipeline) {
  const auto mesh = graph::random_delaunay(800, 3);
  for (const auto m : order::all_methods()) {
    SessionConfig cfg = small_config(3);
    cfg.ordering = m;
    Session s(mesh, cfg);
    EXPECT_EQ(s.verify_against_reference(5), 0.0) << order::method_name(m);
  }
}

TEST(Session, AllBuildersRunTheFullPipeline) {
  const auto mesh = graph::random_delaunay(800, 4);
  for (const auto b : {sched::BuildMethod::kSimple, sched::BuildMethod::kSort1,
                       sched::BuildMethod::kSort2}) {
    SessionConfig cfg = small_config(3);
    cfg.build = b;
    Session s(mesh, cfg);
    EXPECT_EQ(s.verify_against_reference(5), 0.0) << sched::build_method_name(b);
  }
}

// --- static path oracle ------------------------------------------------------------

// Reference for the static path, written out by hand without
// lb::AdaptiveExecutor: per-rank build_schedule on zeroed clocks,
// IrregularLoop::iterate on fresh clocks, then the checksum.
StaticRunResult hand_written_static(Session& s, int iterations,
                                    const std::vector<double>& weights) {
  const SessionConfig& cfg = s.config();
  mp::Cluster& cluster = s.cluster();
  const auto part = partition::IntervalPartition::from_weights(s.mesh().num_vertices(), weights);
  std::vector<sched::InspectorResult> schedules(cfg.machine.size());
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    schedules[static_cast<std::size_t>(p.rank())] =
        sched::build_schedule(p, s.mesh(), part, cfg.build, cfg.cpu);
  });
  StaticRunResult result;
  result.build_seconds = cluster.makespan();

  std::vector<double> checksums(cfg.machine.size(), 0.0);
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    exec::IrregularLoop loop(schedules[r].lgraph, schedules[r].schedule, cfg.loop, cfg.cpu);
    std::vector<double> y(static_cast<std::size_t>(part.size(p.rank())));
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = Session::initial_value(part.first(p.rank()) + static_cast<graph::Vertex>(i));
    }
    loop.iterate(p, y, iterations);
    double sum = 0.0;
    for (const double v : y) sum += v;
    checksums[r] = sum;
  });
  result.loop_seconds = cluster.makespan();
  result.finish_times = cluster.finish_times();
  result.loop_stats = cluster.total_stats();
  for (const double c : checksums) result.checksum += c;
  return result;
}

void expect_identical(const StaticRunResult& got, const StaticRunResult& want) {
  EXPECT_EQ(got.build_seconds, want.build_seconds);
  EXPECT_EQ(got.loop_seconds, want.loop_seconds);
  EXPECT_EQ(got.finish_times, want.finish_times);
  EXPECT_EQ(got.loop_stats.messages_sent, want.loop_stats.messages_sent);
  EXPECT_EQ(got.loop_stats.bytes_sent, want.loop_stats.bytes_sent);
  EXPECT_EQ(got.checksum, want.checksum);
}

TEST(Session, StaticRunsMatchHandWrittenLoopExactly) {
  const auto mesh = small_mesh();
  for (const auto& machine :
       {sim::MachineSpec::uniform_ethernet(3), sim::MachineSpec::heterogeneous(4)}) {
    SCOPED_TRACE(machine.size());
    SessionConfig cfg = small_config(1);
    cfg.machine = machine;
    Session s(mesh, cfg);
    std::vector<double> speeds;
    for (const auto& node : machine.nodes) speeds.push_back(node.speed);
    expect_identical(s.run_static(12), hand_written_static(s, 12, speeds));

    std::vector<double> skewed(machine.size(), 1.0);
    skewed.front() = 3.0;
    expect_identical(s.run_static_weighted(12, skewed), hand_written_static(s, 12, skewed));
  }
}

// --- adaptive runs ----------------------------------------------------------------

lb::LbOptions test_lb_options() {
  lb::LbOptions lb;
  lb.check_interval = 10;
  lb.objective = partition::ArrangementObjective::from_network(
      sim::NetworkModel::ethernet_10mbps(), sizeof(double));
  return lb;
}

TEST(Session, AdaptiveWithLbBeatsWithout) {
  const auto mesh = small_mesh();
  SessionConfig cfg = small_config(3);
  Session s(mesh, cfg);
  s.cluster().set_profile(0, sim::LoadProfile::competing_jobs(2));
  const auto with = s.run_adaptive(100, test_lb_options(), true);
  const auto without = s.run_adaptive(100, test_lb_options(), false);
  EXPECT_GE(with.remaps, 1);
  EXPECT_EQ(without.remaps, 0);
  EXPECT_LT(with.loop_seconds, without.loop_seconds);
  // The two runs compute the same values regardless of load balancing; the
  // checksum regroups per-rank partial sums, so allow FP reassociation noise.
  EXPECT_NEAR(with.checksum, without.checksum, 1e-9 * std::abs(without.checksum));
}

TEST(Session, AdaptiveCheckCostOrderOfMagnitudeBelowRemap) {
  // Paper Table 5: per-check cost is ~an order of magnitude below the remap
  // cost. The ratio is driven by the mesh size (a remap redistributes data
  // and rebuilds the schedule), so use a mesh big enough to see it.
  const auto mesh = graph::random_delaunay(8000, 22);
  Session s(mesh, small_config(4));
  s.cluster().set_profile(1, sim::LoadProfile::competing_jobs(2));
  const auto r = s.run_adaptive(100, test_lb_options(), true);
  ASSERT_GE(r.remaps, 1);
  const double per_check = r.check_seconds / static_cast<double>(r.checks);
  const double per_remap = r.remap_seconds / static_cast<double>(r.remaps);
  EXPECT_LT(per_check, per_remap / 4.0);
}

TEST(Session, AdaptiveNoLoadNoRemap) {
  Session s(small_mesh(), small_config(3));
  const auto r = s.run_adaptive(60, test_lb_options(), true);
  EXPECT_EQ(r.remaps, 0);
  EXPECT_GT(r.checks, 0);
}

}  // namespace
}  // namespace stance
