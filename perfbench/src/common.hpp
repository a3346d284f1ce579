// Shared plumbing of the whole-job benchmark: run options, host timing,
// sample summaries, the result record every workload fills, and the
// in-memory span recorder the traced run uses.
//
// Spans are recorded only by the benchmark's own code, around the calls it
// makes into the runtime's public API — the runtime itself is never
// instrumented. With tracing off a Span costs one branch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "mp/cluster.hpp"
#include "mp/transport.hpp"
#include "order/ordering.hpp"
#include "partition/interval.hpp"
#include "sched/coalesce.hpp"
#include "sim/cpu_costs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this process has used so far, summed over its threads. Time
/// the host gives to other programs (or, in a virtual machine, steals from
/// its vCPUs) is not counted, so on a shared host this moves far less than
/// wall time: busy-loop neighbours that made a solve 2.4x slower by wall
/// time left its CPU time unchanged.
double process_cpu_seconds();

/// Wall and process CPU seconds of one timed window.
struct HostSeconds {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Starts both clocks at construction.
class HostTimer {
 public:
  HostTimer() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  [[nodiscard]] HostSeconds elapsed() const {
    return {seconds_since(wall0_), process_cpu_seconds() - cpu0_};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON written at exit; empty = none
  bool quick = false;     ///< smoke mode: small inputs, short run
  /// Transport override (smoke mode checks virtual_s across all three);
  /// kDefault keeps the workload's own transport.
  stance::mp::TransportKind transport = stance::mp::TransportKind::kDefault;
};

/// Bitwise equality of two value vectors (the byte-identity oracle).
inline bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- sample summaries --------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated percentile (p in [0, 100]).
double percentile(std::vector<double> v, double p);

/// The tail percentile of a sample: the highest rung of a fixed ladder
/// (99.9, 99, 95, 90, 75, 50) that leaves at least ten samples beyond it.
/// The ladder is applied to the workload's guaranteed sample floor, not to
/// the count a run happened to reach, so the rung — and with it the meaning
/// of the tail metric — does not move when the program gets faster.
double tail_rung(std::size_t sample_floor);

/// JSON encodings of a number (all its digits; null when not finite) and of
/// a string (control characters become spaces).
std::string json_number(double v);
std::string json_string(const std::string& s);

// --- result record -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// One workload run's outcome. `metrics` holds the bounded end-to-end
/// metrics of an untraced run or the per-layer metrics of a traced one;
/// `reported` holds unbounded end-to-end figures (step and job latencies,
/// throughput) that are printed but carry no regression bound; `detail`
/// carries those and the rest (sample counts, percentiles, error rate) as
/// preformatted JSON values.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, Metric>> reported;
  std::map<std::string, std::string> detail;
  std::vector<std::string> errors;  ///< first few distinct oracle mismatches, for the log

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// An unbounded end-to-end figure: printed with its unit and kept in
  /// `detail` as {"value", "unit"}.
  void report(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);
  /// Record an oracle verdict: a mismatch fails the run.
  void check(bool ok, const std::string& what);
  /// Fold in the operations and verdicts of another record (the set-up's
  /// warm-up solve).
  void absorb(const Result& other);
};

/// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb();

// --- span recorder ---------------------------------------------------------------

/// Seconds per span name, then per rank (-1 is the driving thread).
using SelfSeconds = std::map<std::string, std::map<int, double>>;

/// One recorded call: the span it nests in (-1 for a root) and host
/// begin/end.
struct SpanRecord {
  const char* name = "";
  int parent = -1;  ///< index into the same log's span list
  double begin_s = 0.0;
  double end_s = 0.0;
};

class Tracer {
 public:
  static Tracer& get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record the calling thread's spans under `rank`. Rank threads of
  /// successive cluster runs share one log per rank (they never overlap);
  /// untagged threads record under rank -1.
  static void set_thread_rank(int rank);

  int open(const char* name);
  void close(int index);
  void rename(int index, const char* name);

  /// Self time (duration minus the time covered by child spans) per span
  /// name and rank, summed over everything recorded so far.
  [[nodiscard]] SelfSeconds self_seconds() const;

  /// Drop everything recorded (keeps the enabled flag).
  void clear();

  /// Chrome trace-event JSON: one complete event per span, tid = rank.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct ThreadLog {
    std::vector<SpanRecord> spans;
    std::vector<int> stack;
  };
  ThreadLog& log_for(int rank);
  ThreadLog& local();

  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;  ///< guards logs_
  std::map<int, std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span around one public call.
class Span {
 public:
  explicit Span(const char* name)
      : index_(Tracer::get().enabled() ? Tracer::get().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::get().close(index_);
  }
  /// Re-label an open span once the call's outcome is known (a load-balance
  /// check that turned into a remap).
  void rename(const char* name) {
    if (index_ >= 0) Tracer::get().rename(index_, name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// Session::initial_value for global ids 0..n-1: the reference replay's
/// starting values.
std::vector<double> initial_values(stance::graph::Vertex n);
/// `rank`'s owned slice of the same values under `part`.
std::vector<double> initial_values(const stance::partition::IntervalPartition& part, int rank);

/// Message-layer counters of a solve or pass, summed over ranks. They are
/// deterministic: the oracle holds them bit-for-bit from solve to solve.
struct MpCounts {
  std::uint64_t messages = 0, bytes = 0, inter_node = 0, frames = 0;
  double comm_virtual_s = 0.0, compute_virtual_s = 0.0;

  void add(const stance::mp::CommStats& s);
  /// Set the six mp.* per-layer metrics.
  void report(Result& r) const;
  friend bool operator==(const MpCounts&, const MpCounts&) = default;
};

/// Self seconds of span `name` per solve: the busiest rank's total (the
/// driving thread counts as rank -1) divided by `solves`.
double span_per_solve(const SelfSeconds& self, const std::string& name, std::size_t solves);

/// Host seconds of one cold Phase A + Phase B, replayed from outside through
/// the public calls: order::compute on the unordered mesh, then
/// sched::build_schedule and sched::coalesce on every rank (busiest rank).
struct PhaseBReplay {
  double order_s = 0.0;
  double build_s = 0.0;
  double coalesce_s = 0.0;
};
PhaseBReplay replay_phase_b(stance::mp::Cluster& cluster, const stance::graph::Csr& raw,
                            stance::order::Method method, std::uint64_t order_seed,
                            const stance::partition::IntervalPartition& part,
                            const stance::sim::CpuCostModel& cpu,
                            const stance::sched::CoalesceOptions* coalesce);

// --- workloads -------------------------------------------------------------------

Result run_adaptive_shift(const RunOptions& opt);
Result run_refine_front(const RunOptions& opt);
Result run_service_mix(const RunOptions& opt);

/// Every per-layer metric the benchmark defines, with its unit. A traced run
/// prints all of them; a layer a workload does not touch reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Host samples a measured phase collected: whole solves (or service passes),
/// steps (check intervals, refinement phases or client rounds) and, for
/// service_mix only, jobs (single submitted JobSpecs), plus the sample
/// floors the workload guarantees for the tail percentiles.
struct Timings {
  std::vector<HostSeconds> solves;
  std::vector<HostSeconds> traced_solves;  ///< traced run: the traced half
  std::vector<double> step_ms;
  std::vector<double> job_ms;
  std::size_t step_floor = 0;
  std::size_t job_floor = 0;
};

/// Median wall and median CPU seconds of a sample, each taken on its own.
HostSeconds median(const std::vector<HostSeconds>& v);

/// Fill the bounded end-to-end metrics (setup_s, solve_s, virtual_s,
/// peak_rss_mb) and report the unbounded wall, step and job figures from one
/// untraced measurement. The bounded set-up and solve times are CPU seconds;
/// their wall times are reported unbounded as setup_wall_s and solve_wall_s.
void fill_end_to_end(Result& r, const Timings& t, HostSeconds setup, double virtual_s);

/// Keep calling `solve()` — which appends its steps and jobs to `t` and
/// returns its own wall and CPU seconds — until `seconds` have passed and the sample
/// floors are met (or a hard cap of four times the budget is hit). In a
/// traced run every second solve is traced, so traced and untraced solve
/// times come from the same interval.
void measure(const RunOptions& opt, Timings& t, const std::function<HostSeconds()>& solve);

/// Run `body` three times (once in smoke mode), keeping the last product;
/// returns the median wall and CPU seconds of one set-up.
HostSeconds timed_setups(const RunOptions& opt, const std::function<void()>& body);

}  // namespace perfbench
