// service_mix: one closed-loop client drives stance::Service.
//
// The fleet is 4 ranks as 2 nodes x 2 on the virtual transport with
// node-aware coalescing. The client works through a seeded sequence of
// rounds; each round submits, drains, and waits for the results before the
// next one starts (closed loop, one client):
//   * single  — one job, its key drawn from a Zipf-weighted pool of
//               unordered meshes of three sizes x {spectral, RCB} orderings;
//   * burst   — several tenants submit identical jobs that batch into one
//               execution;
//   * patch   — an identity-ordered "live" mesh evolves by a CsrDelta:
//               Service::patch_plan splices its resident plan onto the edited
//               mesh, then a job runs on the edited mesh.
// The pool holds more plan keys than the plan cache, so warm hits, cold
// inserts, evictions and patch re-keys all happen in one pass.
//
// The seed generates the job sequence's content: every mesh of the pool,
// the live mesh and its deltas, and the tenants. Its shape — which pool key
// each round draws (a stratified Zipf draw: each key's share fixed by its
// weight, the order shuffled), the round kinds and iteration budgets — comes
// from a fixed stream, so every seed replays the same pattern of cache hits,
// cold builds and evictions. Otherwise the seed would decide how many cold
// spectral builds of the largest mesh a pass pays, and with it most of the
// pass's host time.
//
// One solve = one pass over the whole sequence on a fresh Service (cold
// cache). One step = one round. One job = one submitted JobSpec, timed from
// its submit to the drain that returned its result.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "common.hpp"
#include "graph/delta.hpp"
#include "stance/stance.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace stance;

constexpr int kRanks = 4;
constexpr int kPerNode = 2;

struct Config {
  std::vector<graph::Vertex> sizes = {1000, 2000, 4000};
  std::vector<graph::Vertex> quick_sizes = {300, 600, 900};
  graph::Vertex live_vertices = 2000;
  graph::Vertex quick_live_vertices = 500;
  std::vector<int> budgets = {4, 8, 12};  ///< short iteration budgets
  int singles = 24;
  int bursts = 6;
  int patches = 6;
  int epochs = 3;  ///< each pass is this many independently shuffled copies
  int burst_jobs = 4;
  std::size_t cache_capacity = 4;
  double zipf_s = 1.1;
  std::size_t step_floor = 200;  ///< p95 round tail
  std::size_t job_floor = 200;   ///< p95 job tail
};

enum class RoundKind { kSingle, kBurst, kPatch };

struct Round {
  RoundKind kind = RoundKind::kSingle;
  int key = 0;     ///< pool key (single, burst)
  int budget = 4;  ///< iterations per job
  std::vector<std::string> tenants;  ///< one per job submitted
};

/// A pool key: one unordered mesh under one ordering.
struct PoolKey {
  int mesh = 0;
  order::Method ordering = order::Method::kSpectral;
};

/// Everything the seed determines, generated before timing starts.
struct Inputs {
  std::vector<std::shared_ptr<const graph::Csr>> meshes;  ///< unordered pool
  std::vector<PoolKey> keys;                              ///< Zipf rank order
  std::vector<std::shared_ptr<const graph::Csr>> live;    ///< live mesh history
  std::vector<graph::CsrDelta> live_deltas;               ///< live[i] -> live[i+1]
  std::vector<Round> rounds;
  /// Reference checksum per (mesh pointer, ordering, budget), computed by a
  /// sequential replay: order, iterate, sum per rank interval in rank order.
  std::map<std::tuple<const graph::Csr*, int, int>, double> expected;
};

sim::MachineSpec fleet() { return sim::MachineSpec::sun4_ethernet(kRanks); }

/// The partition stance::Service uses for an n-vertex mesh: the fleet's node
/// speeds as weights.
partition::IntervalPartition service_partition(graph::Vertex n) {
  std::vector<double> speeds;
  for (const auto& node : fleet().nodes) speeds.push_back(node.speed);
  return partition::IntervalPartition::from_weights(n, speeds);
}

const char* const kTenants[] = {"alpha", "beta", "gamma", "delta", "epsilon"};

/// The checksums stance::Service reports for jobs on `mesh` under
/// `ordering`, one per iteration budget (ascending): the final y summed per
/// rank interval, then over ranks in rank order.
std::vector<double> reference_checksums(const graph::Csr& mesh, order::Method ordering,
                                        const std::vector<int>& budgets) {
  const graph::Csr ordered = mesh.permuted(order::compute(mesh, ordering, 1996));
  const auto part = service_partition(ordered.num_vertices());
  std::vector<double> y = initial_values(ordered.num_vertices());
  std::vector<double> out;
  int done = 0;
  for (const int budget : budgets) {
    exec::IrregularLoop::reference_iterate(ordered, y, budget - done);
    done = budget;
    double checksum = 0.0;
    for (int r = 0; r < part.nparts(); ++r) {
      double sum = 0.0;
      for (graph::Vertex g = part.first(r); g < part.end(r); ++g) {
        sum += y[static_cast<std::size_t>(g)];
      }
      checksum += sum;
    }
    out.push_back(checksum);
  }
  return out;
}

/// A stencil churn on the live mesh: a few 2-hop edges appear, some earlier
/// ones go, and the touched vertices change weight.
graph::CsrDelta churn(const graph::Csr& mesh, Rng& rng, std::vector<graph::Edge>& added) {
  graph::CsrDelta d;
  const auto n = mesh.num_vertices();
  const int inserts = std::max(4, static_cast<int>(n / 100));
  for (int i = 0; i < inserts; ++i) {
    const auto v = static_cast<graph::Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const auto nb = mesh.neighbors(v);
    const graph::Vertex u = nb[rng.below(nb.size())];
    const auto nb2 = mesh.neighbors(u);
    const graph::Vertex w = nb2[rng.below(nb2.size())];
    if (w == v) continue;
    d.insert_edges.emplace_back(std::min(v, w), std::max(v, w));
    d.weight_edits.push_back({v, rng.uniform(1.0, 4.0)});
  }
  std::vector<graph::Edge> keep;
  for (const auto& e : added) {
    (rng.uniform() < 0.5 ? d.remove_edges : keep).push_back(e);
  }
  added = std::move(keep);
  added.insert(added.end(), d.insert_edges.begin(), d.insert_edges.end());
  return d;
}

Inputs make_inputs(const RunOptions& opt, const Config& cfg) {
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 37);
  Inputs in;
  const auto& sizes = opt.quick ? cfg.quick_sizes : cfg.sizes;
  for (const graph::Vertex n : sizes) {
    in.meshes.push_back(std::make_shared<const graph::Csr>(graph::random_delaunay(n, rng())));
  }
  // Zipf rank order over every (mesh, ordering) key: fixed, so the mix of
  // cheap and expensive keys — and with it a pass's work — does not depend
  // on the seed. Mid-size spectral leads; the largest spectral mesh sits in
  // the middle, where eviction makes it come back cold.
  const int mid = static_cast<int>(in.meshes.size()) / 2;
  const int big = static_cast<int>(in.meshes.size()) - 1;
  in.keys = {{mid, order::Method::kSpectral}, {0, order::Method::kRcb},
             {big, order::Method::kSpectral}, {mid, order::Method::kRcb},
             {0, order::Method::kSpectral}, {big, order::Method::kRcb}};

  // The live mesh and its edit history.
  const int patches = opt.quick ? 2 : cfg.patches;
  const int epochs = opt.quick ? 1 : cfg.epochs;
  in.live.push_back(std::make_shared<const graph::Csr>(graph::random_delaunay(
      opt.quick ? cfg.quick_live_vertices : cfg.live_vertices, rng())));
  std::vector<graph::Edge> added;
  for (int i = 0; i < patches * epochs; ++i) {
    graph::CsrDelta d = churn(*in.live.back(), rng, added);
    in.live.push_back(std::make_shared<const graph::Csr>(in.live.back()->apply(d)));
    in.live_deltas.push_back(std::move(d));
  }

  // Stratified Zipf: each key's share of an epoch's single and burst rounds
  // is fixed by its weight (largest remainder); a fixed stream orders the
  // rounds of every epoch.
  const int singles = opt.quick ? 6 : cfg.singles;
  const int bursts = opt.quick ? 2 : cfg.bursts;
  const int draws = singles + bursts;
  std::vector<double> weight(in.keys.size());
  double total = 0.0;
  for (std::size_t k = 0; k < weight.size(); ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), cfg.zipf_s);
    total += weight[k];
  }
  std::vector<int> count(in.keys.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  int assigned = 0;
  for (std::size_t k = 0; k < weight.size(); ++k) {
    const double exact = draws * weight[k] / total;
    count[k] = static_cast<int>(std::floor(exact));
    assigned += count[k];
    remainder.emplace_back(exact - count[k], k);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (int i = 0; assigned < draws; ++i, ++assigned) ++count[remainder[static_cast<std::size_t>(i)].second];
  std::vector<int> key_draws;
  for (std::size_t k = 0; k < count.size(); ++k) key_draws.insert(key_draws.end(), count[k], static_cast<int>(k));
  std::vector<RoundKind> kinds;
  kinds.insert(kinds.end(), static_cast<std::size_t>(singles), RoundKind::kSingle);
  kinds.insert(kinds.end(), static_cast<std::size_t>(bursts), RoundKind::kBurst);
  kinds.insert(kinds.end(), static_cast<std::size_t>(patches), RoundKind::kPatch);
  Rng shape(0x5eed);
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[shape.below(i)]);
  };
  const auto tenant = [&] { return std::string(kTenants[rng.below(std::size(kTenants))]); };
  for (int e = 0; e < epochs; ++e) {
    shuffle(key_draws);
    shuffle(kinds);
    std::size_t next_draw = 0;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      Round round;
      round.kind = kinds[i];
      round.budget = cfg.budgets[i % cfg.budgets.size()];
      if (round.kind != RoundKind::kPatch) round.key = key_draws[next_draw++];
      const int jobs = round.kind == RoundKind::kBurst ? cfg.burst_jobs : 1;
      for (int j = 0; j < jobs; ++j) round.tenants.push_back(tenant());
      in.rounds.push_back(std::move(round));
    }
  }

  // Reference checksums for every (mesh, ordering, budget) a job can carry.
  auto add_expected = [&](const graph::Csr& mesh, order::Method ordering) {
    const auto sums = reference_checksums(mesh, ordering, cfg.budgets);
    for (std::size_t b = 0; b < sums.size(); ++b) {
      in.expected[{&mesh, static_cast<int>(ordering), cfg.budgets[b]}] = sums[b];
    }
  };
  for (const PoolKey& k : in.keys) add_expected(*in.meshes[static_cast<std::size_t>(k.mesh)], k.ordering);
  for (const auto& mesh : in.live) add_expected(*mesh, order::Method::kIdentity);
  return in;
}

/// What must repeat bit-for-bit from pass to pass and run to run.
struct Signature {
  double virtual_s = 0.0;  ///< billed fleet seconds incl. plan patches
  PlanCache::Stats cache;
  std::uint64_t completed = 0, executions = 0;
  MpCounts mp;

  friend bool operator==(const Signature&, const Signature&) = default;
};

class ServiceMix {
 public:
  ServiceMix(const RunOptions& opt, const Config& cfg) : opt_(opt), cfg_(cfg) {}

  [[nodiscard]] ServiceOptions service_options() const {
    ServiceOptions so;
    so.plan_cache_capacity = cfg_.cache_capacity;
    so.batching = true;
    so.coalesce = true;
    so.coalesce_opts.policy = sched::CoalescePolicy::kAdaptive;
    so.coalesce_opts.bytes_per_elem = sizeof(double);
    return so;
  }

  [[nodiscard]] mp::TransportKind transport() const {
    return opt_.transport == mp::TransportKind::kDefault ? mp::TransportKind::kVirtual
                                                         : opt_.transport;
  }

  void setup() {
    in_.reset();
    reference_.reset();
    in_.emplace(make_inputs(opt_, cfg_));
    // Warm-up pass: first-touch arenas and the reference signature.
    Timings scratch;
    (void)pass(scratch, probe_);
    reference_ = last_;
  }

  [[nodiscard]] JobSpec job(std::shared_ptr<const graph::Csr> mesh, order::Method ordering,
                            int budget, const std::string& tenant) const {
    JobSpec spec;
    spec.tenant = tenant;
    spec.mesh = std::move(mesh);
    spec.config.ordering = ordering;
    spec.iterations = budget;
    return spec;
  }

  /// One pass over the round sequence on a fresh service; appends rounds
  /// and jobs to `t`, returns its wall and CPU seconds.
  HostSeconds pass(Timings& t, Result& r) {
    Signature sig;
    std::size_t live = 0;  // index of the live mesh's current version
    const HostTimer timer;
    Service svc(fleet(), service_options(), mp::NodeMap::contiguous(kRanks, kPerNode),
                transport());
    for (const Round& round : in_->rounds) {
      const auto ts = Clock::now();
      std::vector<JobSpec> specs;
      if (round.kind == RoundKind::kPatch) {
        const JobSpec old_spec =
            job(in_->live[live], order::Method::kIdentity, round.budget, round.tenants[0]);
        bool patched = false;
        {
          Span span("stance.patch_plan");
          patched = svc.patch_plan(old_spec, in_->live_deltas[live], in_->live[live + 1]);
        }
        if (patched) sig.virtual_s += svc.cluster().makespan();  // the splice's fleet time
        ++live;
        specs.push_back(job(in_->live[live], order::Method::kIdentity, round.budget,
                            round.tenants[0]));
      } else {
        const PoolKey& key = in_->keys[static_cast<std::size_t>(round.key)];
        for (const auto& tenant : round.tenants) {
          specs.push_back(
              job(in_->meshes[static_cast<std::size_t>(key.mesh)], key.ordering, round.budget, tenant));
        }
      }

      struct Pending {
        Clock::time_point at;
        const JobSpec* spec;
      };
      std::map<std::uint64_t, Pending> pending;  // by job id
      for (const JobSpec& spec : specs) {
        const auto at = Clock::now();
        Admission a;
        {
          Span span("stance.submit");
          a = svc.submit(spec);
        }
        ++r.attempted;
        if (!a.accepted) {
          ++r.failed;
          r.check(false, std::string("service_mix: job refused: ") + a.detail);
          continue;
        }
        pending[a.job] = Pending{at, &spec};
      }
      std::vector<JobResult> results;
      {
        Span span("stance.drain");
        results = svc.drain();
      }
      const auto done = Clock::now();
      for (std::size_t i = 0; i < results.size(); i += static_cast<std::size_t>(results[i].batch_size)) {
        sig.mp.add(results[i].loop_stats);  // once per execution, not per batched job
      }
      for (const JobResult& res : results) {
        sig.virtual_s += res.charged_seconds;
        const auto it = pending.find(res.job);
        if (it == pending.end()) continue;  // counted missing below
        const JobSpec& spec = *it->second.spec;
        const double ms = std::chrono::duration<double, std::milli>(done - it->second.at).count();
        pending.erase(it);
        t.job_ms.push_back(ms);
        (res.plan_cache_hit ? warm_ms_ : cold_ms_).push_back(ms);
        const auto want = in_->expected.find(
            {spec.mesh.get(), static_cast<int>(spec.config.ordering), spec.iterations});
        const bool ok = want != in_->expected.end() && want->second == res.checksum;
        if (!ok) ++r.failed;
        r.check(ok, "service_mix: job checksum differs from its key's cold execution");
      }
      r.failed += pending.size();
      r.check(pending.empty(), "service_mix: drain did not return every submitted job");
      t.step_ms.push_back(seconds_since(ts) * 1e3);
    }
    const HostSeconds pass_time = timer.elapsed();

    const ServiceStats st = svc.stats();
    sig.cache = st.plan_cache;
    sig.completed = st.completed;
    sig.executions = st.executions;
    last_ = sig;
    const bool sig_ok = !reference_ || sig == *reference_;
    ++r.attempted;
    if (!sig_ok) ++r.failed;
    r.check(sig_ok, "service_mix: billed seconds or service counters changed between passes");
    return pass_time;
  }

  Result run() {
    Result r;
    const HostSeconds setup_time = timed_setups(opt_, [&] { setup(); });
    r.absorb(probe_);
    Timings t;
    t.step_floor = opt_.quick ? 20 : cfg_.step_floor;
    t.job_floor = opt_.quick ? 20 : cfg_.job_floor;
    Tracer::get().clear();
    warm_ms_.clear();
    cold_ms_.clear();
    measure(opt_, t, [&] { return pass(t, r); });
    const std::size_t traced = t.traced_solves.size();

    const Signature& sig = *reference_;
    r.note("virtual_s", sig.virtual_s);
    r.note("rounds_per_pass", static_cast<double>(in_->rounds.size()));
    r.note("plan_keys", static_cast<double>(in_->keys.size() + in_->live.size()));
    r.note("plan_cache_capacity", static_cast<double>(cfg_.cache_capacity));
    if (!opt_.trace) {
      fill_end_to_end(r, t, setup_time, sig.virtual_s);
      return r;
    }
    for (const auto& [name, unit] : per_layer_metrics()) r.set(name, 0.0, unit);
    const SelfSeconds self = Tracer::get().self_seconds();
    r.set("stance.drain_s", span_per_solve(self, "stance.drain", traced), "s");
    r.set("stance.patch_plan_s", span_per_solve(self, "stance.patch_plan", traced), "s");
    const auto& c = sig.cache;
    r.set("stance.cache_hit_ratio",
          static_cast<double>(c.hits) / static_cast<double>(std::max<std::uint64_t>(1, c.hits + c.misses)),
          "ratio");
    r.set("stance.evictions", static_cast<double>(c.evictions), "count");
    r.set("stance.patches", static_cast<double>(c.patches), "count");
    r.set("stance.batch_factor",
          static_cast<double>(sig.completed) / static_cast<double>(std::max<std::uint64_t>(1, sig.executions)),
          "jobs/exec");
    r.set("stance.cold_job_ms", median(cold_ms_), "ms");
    r.set("stance.warm_job_ms", median(warm_ms_), "ms");
    sig.mp.report(r);
    r.set("trace.overhead_s", median(t.traced_solves).cpu - median(t.solves).cpu, "s");
    r.note("submit_s", span_per_solve(self, "stance.submit", traced));

    // Replay each pool key's cold layers from outside, once per key.
    mp::Cluster replay_cluster(fleet(), mp::NodeMap::contiguous(kRanks, kPerNode), transport());
    const ServiceOptions so = service_options();
    double spectral = 0.0, rcb = 0.0, build = 0.0, frame = 0.0;
    for (const PoolKey& k : in_->keys) {
      const auto& mesh = *in_->meshes[static_cast<std::size_t>(k.mesh)];
      const PhaseBReplay rep = replay_phase_b(replay_cluster, mesh, k.ordering, 1996,
                                              service_partition(mesh.num_vertices()),
                                              sim::CpuCostModel::sun4(), &so.coalesce_opts);
      (k.ordering == order::Method::kSpectral ? spectral : rcb) += rep.order_s;
      build += rep.build_s;
      frame += rep.coalesce_s;
    }
    r.set("order.spectral_s", spectral, "s");
    r.set("order.rcb_s", rcb, "s");
    r.set("sched.build_s", build, "s");
    r.set("sched.coalesce_s", frame, "s");
    return r;
  }

 private:
  const RunOptions& opt_;
  Config cfg_;
  std::optional<Inputs> in_;
  std::optional<Signature> reference_;
  Signature last_;
  Result probe_;  ///< oracle verdicts of every set-up's warm-up solve
  std::vector<double> warm_ms_, cold_ms_;
};

}  // namespace

Result run_service_mix(const RunOptions& opt) {
  ServiceMix w(opt, Config{});
  return w.run();
}

}  // namespace perfbench
