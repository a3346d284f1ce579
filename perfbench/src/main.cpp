// Whole-job benchmark of the stance runtime: the measuring program.
//
//   perfbench --workload <adaptive_shift|refine_front|service_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--quick] [--transport <virtual|shm|tcp>]
//
// Every input is generated from --seed before timing starts. The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the bounded end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). The line before it carries the run's details:
// workload rationale, the unbounded wall, step and job figures with their units,
// tail percentiles, sample counts and error rate. The exit code is 1 when an
// output oracle failed and 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

/// Why a workload exists and which layers it leans on or bypasses.
struct WorkloadInfo {
  const char* name;
  const char* why;
  const char* stresses;
  const char* bypasses;
};

const WorkloadInfo kWorkloads[] = {
    {"adaptive_shift",
     "paper mesh, competing load hopping between nodes on tcp: the loop and its "
     "framing carry the host time, lb/partition set the virtual time",
     "exec, mp (tcp framing), lb, partition, sim", "order and cold sched builds (set-up only), stance"},
    {"refine_front",
     "AMR front edits the mesh every phase on shm: graph edits drive the sched "
     "splice and redistribution instead of partition drift",
     "graph (Csr::apply), sched (rebuild_incremental splice), partition "
     "(redistribute), exec, mp (shm)",
     "lb controller checks, order (set-up only), stance"},
    {"service_mix",
     "closed-loop client of stance::Service on the virtual transport: Zipf job mix "
     "over more plan keys than the cache holds, bursts, and plan patches",
     "order (spectral, RCB), sched (cold builds, coalesce), stance (PlanCache, "
     "batching, patch_plan)",
     "lb, partition remaps, real transports"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <adaptive_shift|refine_front|"
               "service_mix> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--quick] [--transport <virtual|shm|tcp>]\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const long long x = std::stoll(v, &used);
    if (used == v.size()) return x;
  } catch (const std::exception&) {
  }
  usage(flag + " expects an integer, got '" + v + "'");
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      opt.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      const long long s = parse_int(flag, v);
      if (s < 0) usage("--seed must be non-negative");
      opt.seed = static_cast<std::uint64_t>(s);
      have_seed = true;
    } else if (flag == "--seconds") {
      const long long s = parse_int(flag, v);
      if (s < 1 || s > 60) usage("--seconds must be in [1, 60]");
      opt.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      const long long t = parse_int(flag, v);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = v;
    } else if (flag == "--transport") {
      if (v == "virtual") {
        opt.transport = stance::mp::TransportKind::kVirtual;
      } else if (v == "shm") {
        opt.transport = stance::mp::TransportKind::kShm;
      } else if (v == "tcp") {
        opt.transport = stance::mp::TransportKind::kTcp;
      } else {
        usage("unknown transport '" + v + "'");
      }
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions opt = parse(argc, argv);
  const WorkloadInfo* info = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) info = &w;
  }
  if (info == nullptr) usage("unknown workload '" + opt.workload + "'");

  Result r;
  try {
    if (opt.workload == "adaptive_shift") {
      r = run_adaptive_shift(opt);
    } else if (opt.workload == "refine_front") {
      r = run_refine_front(opt);
    } else {
      r = run_service_mix(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (!opt.trace_out.empty() && !Tracer::get().write_chrome_json(opt.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", opt.trace_out.c_str());
    return 1;
  }

  const double error_rate =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  if (r.attempted == 0) r.check(false, "no operation was attempted");
  r.note("workload", info->name);
  r.note("why", info->why);
  r.note("stresses", info->stresses);
  r.note("bypasses", info->bypasses);
  r.note("error_rate", error_rate);
  r.note("seed", static_cast<double>(opt.seed));

  for (const auto& e : r.errors) std::printf("oracle failure: %s\n", e.c_str());
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-28s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : r.reported) {
    std::printf("%-28s %16.6f %s (unbounded)\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %16.6f %s (unbounded)\n", "error_rate", error_rate, "ratio");

  std::string detail = "{\"detail\": {";
  bool first = true;
  for (const auto& [k, v] : r.detail) {
    detail += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  std::printf("%s}}\n", detail.c_str());

  std::string line = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
