#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "sched/inspector.hpp"
#include "stance/session.hpp"

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

HostSeconds median(const std::vector<HostSeconds>& v) {
  std::vector<double> wall, cpu;
  for (const HostSeconds& h : v) {
    wall.push_back(h.wall);
    cpu.push_back(h.cpu);
  }
  return {median(std::move(wall)), median(std::move(cpu))};
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail_rung(std::size_t sample_floor) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(sample_floor) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

void Result::note(const std::string& key, double value) { detail[key] = json_number(value); }
void Result::note(const std::string& key, const std::string& text) {
  detail[key] = json_string(text);
}

void Result::report(const std::string& name, double value, const std::string& unit) {
  detail[name] = "{\"value\": " + json_number(value) + ", \"unit\": " + json_string(unit) + "}";
  reported.emplace_back(name, Metric{value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 8 && std::find(errors.begin(), errors.end(), what) == errors.end()) {
    errors.push_back(what);
  }
}

void Result::absorb(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& e : other.errors) check(false, e);
  correct = correct && other.correct;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

HostSeconds timed_setups(const RunOptions& opt, const std::function<void()>& body) {
  std::vector<HostSeconds> samples;
  for (int i = 0; i < (opt.quick ? 1 : 3); ++i) {
    const HostTimer timer;
    body();
    samples.push_back(timer.elapsed());
  }
  return median(samples);
}

void fill_end_to_end(Result& r, const Timings& t, HostSeconds setup, double virtual_s) {
  const HostSeconds solve = median(t.solves);
  r.set("setup_s", setup.cpu, "s");
  r.set("solve_s", solve.cpu, "s");
  r.set("virtual_s", virtual_s, "s");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");

  r.report("setup_wall_s", setup.wall, "s");
  r.report("solve_wall_s", solve.wall, "s");

  const double step_rung = tail_rung(t.step_floor);
  r.report("step_p50_ms", median(t.step_ms), "ms");
  r.report("step_tail_ms", percentile(t.step_ms, step_rung), "ms");
  r.note("step_tail_percentile", step_rung);
  r.note("steps", static_cast<double>(t.step_ms.size()));
  r.note("solves", static_cast<double>(t.solves.size()));
  if (t.job_ms.empty()) return;
  // Throughput of the median solve: robust to the odd stalled solve that a
  // count-over-wall-time ratio would fold in.
  const double job_rung = tail_rung(t.job_floor);
  const double jobs_per_solve =
      static_cast<double>(t.job_ms.size()) / static_cast<double>(t.solves.size());
  r.report("jobs_per_s", jobs_per_solve / solve.wall, "1/s");
  r.report("job_p50_ms", median(t.job_ms), "ms");
  r.report("job_tail_ms", percentile(t.job_ms, job_rung), "ms");
  r.note("job_tail_percentile", job_rung);
  r.note("jobs", static_cast<double>(t.job_ms.size()));
}

void measure(const RunOptions& opt, Timings& t, const std::function<HostSeconds()>& solve) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const double elapsed = seconds_since(t0);
    const bool floors_met = t.step_ms.size() >= t.step_floor &&
                            t.job_ms.size() >= t.job_floor;
    if ((elapsed >= opt.seconds && floors_met) || elapsed >= 4.0 * opt.seconds) break;
    const bool traced = opt.trace && i % 2 == 1;
    Tracer::get().set_enabled(traced);
    const HostSeconds s = solve();
    Tracer::get().set_enabled(false);
    (traced ? t.traced_solves : t.solves).push_back(s);
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"exec.iterate_s", "s"},
      {"mp.messages", "count"},
      {"mp.bytes", "bytes"},
      {"mp.inter_node_msgs", "count"},
      {"mp.frames", "count"},
      {"mp.comm_virtual_s", "s"},
      {"mp.compute_virtual_s", "s"},
      {"lb.check_s", "s"},
      {"lb.remap_s", "s"},
      {"lb.checks", "count"},
      {"lb.remaps", "count"},
      {"lb.rotations", "count"},
      {"lb.replans", "count"},
      {"lb.mesh_delta_s", "s"},
      {"graph.apply_s", "s"},
      {"partition.moved_vertices", "count"},
      {"sched.dirty_vertices", "count"},
      {"sched.splice_host_speedup", "x"},
      {"sched.build_s", "s"},
      {"sched.coalesce_s", "s"},
      {"order.spectral_s", "s"},
      {"order.rcb_s", "s"},
      {"stance.drain_s", "s"},
      {"stance.patch_plan_s", "s"},
      {"stance.cache_hit_ratio", "ratio"},
      {"stance.evictions", "count"},
      {"stance.patches", "count"},
      {"stance.batch_factor", "jobs/exec"},
      {"stance.cold_job_ms", "ms"},
      {"stance.warm_job_ms", "ms"},
      {"trace.overhead_s", "s"},
  };
  return kMetrics;
}

std::vector<double> initial_values(stance::graph::Vertex n) {
  std::vector<double> y(static_cast<std::size_t>(n));
  for (std::size_t g = 0; g < y.size(); ++g) {
    y[g] = stance::Session::initial_value(static_cast<stance::graph::Vertex>(g));
  }
  return y;
}

std::vector<double> initial_values(const stance::partition::IntervalPartition& part, int rank) {
  std::vector<double> y(static_cast<std::size_t>(part.size(rank)));
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = stance::Session::initial_value(
        part.to_global(rank, static_cast<stance::graph::Vertex>(i)));
  }
  return y;
}

void MpCounts::add(const stance::mp::CommStats& s) {
  messages += s.messages_sent;
  bytes += s.bytes_sent;
  inter_node += s.inter_node_sent;
  frames += s.frames_sent;
  comm_virtual_s += s.comm_seconds;
  compute_virtual_s += s.compute_seconds;
}

void MpCounts::report(Result& r) const {
  r.set("mp.messages", static_cast<double>(messages), "count");
  r.set("mp.bytes", static_cast<double>(bytes), "bytes");
  r.set("mp.inter_node_msgs", static_cast<double>(inter_node), "count");
  r.set("mp.frames", static_cast<double>(frames), "count");
  r.set("mp.comm_virtual_s", comm_virtual_s, "s");
  r.set("mp.compute_virtual_s", compute_virtual_s, "s");
}

double span_per_solve(const SelfSeconds& self, const std::string& name, std::size_t solves) {
  const auto it = self.find(name);
  if (it == self.end() || solves == 0) return 0.0;
  double busiest = 0.0;
  for (const auto& [rank, secs] : it->second) busiest = std::max(busiest, secs);
  return busiest / static_cast<double>(solves);
}

PhaseBReplay replay_phase_b(stance::mp::Cluster& cluster, const stance::graph::Csr& raw,
                            stance::order::Method method, std::uint64_t order_seed,
                            const stance::partition::IntervalPartition& part,
                            const stance::sim::CpuCostModel& cpu,
                            const stance::sched::CoalesceOptions* coalesce) {
  using namespace stance;
  PhaseBReplay out;
  const auto t0 = Clock::now();
  const auto perm = order::compute(raw, method, order_seed);
  out.order_s = seconds_since(t0);
  const graph::Csr ordered = raw.permuted(perm);
  const auto n = static_cast<std::size_t>(cluster.nprocs());
  std::vector<double> build(n, 0.0), frame(n, 0.0);
  cluster.reset_clocks();
  cluster.run([&](mp::Process& p) {
    const auto r = static_cast<std::size_t>(p.rank());
    const auto tb = Clock::now();
    const auto ir = sched::build_schedule(p, ordered, part, sched::BuildMethod::kSort2, cpu);
    build[r] = seconds_since(tb);
    if (coalesce != nullptr) {
      const auto tc = Clock::now();
      (void)sched::coalesce(p, ir.schedule, cpu, *coalesce);
      frame[r] = seconds_since(tc);
    }
  });
  out.build_s = *std::max_element(build.begin(), build.end());
  out.coalesce_s = *std::max_element(frame.begin(), frame.end());
  return out;
}

// --- tracer ------------------------------------------------------------------------

namespace {
thread_local void* t_log = nullptr;
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog& Tracer::log_for(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& log = logs_[rank];
  if (log == nullptr) log = std::make_unique<ThreadLog>();
  return *log;
}

Tracer::ThreadLog& Tracer::local() {
  if (t_log == nullptr) t_log = &log_for(-1);
  return *static_cast<ThreadLog*>(t_log);
}

void Tracer::set_thread_rank(int rank) { t_log = &get().log_for(rank); }

int Tracer::open(const char* name) {
  ThreadLog& log = local();
  SpanRecord rec;
  rec.name = name;
  rec.parent = log.stack.empty() ? -1 : log.stack.back();
  rec.begin_s = seconds_since(epoch_);
  log.spans.push_back(rec);
  const int index = static_cast<int>(log.spans.size()) - 1;
  log.stack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  ThreadLog& log = local();
  log.spans[static_cast<std::size_t>(index)].end_s = seconds_since(epoch_);
  log.stack.pop_back();
}

void Tracer::rename(int index, const char* name) {
  local().spans[static_cast<std::size_t>(index)].name = name;
}

SelfSeconds Tracer::self_seconds() const {
  SelfSeconds out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [rank, log] : logs_) {
    std::vector<double> child(log->spans.size(), 0.0);
    for (const SpanRecord& s : log->spans) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_s - s.begin_s;
    }
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      out[s.name][rank] += (s.end_s - s.begin_s) - child[i];
    }
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [rank, log] : logs_) {
    log->spans.clear();
    log->stack.clear();
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [rank, log] : logs_) {
    for (const SpanRecord& s : log->spans) {
      out << (first ? "\n" : ",\n") << "{\"name\":" << json_string(s.name)
          << ",\"ph\":\"X\",\"pid\":0,\"tid\":" << rank
          << ",\"ts\":" << json_number(s.begin_s * 1e6)
          << ",\"dur\":" << json_number((s.end_s - s.begin_s) * 1e6) << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  out.flush();
  return out.good();
}

}  // namespace perfbench
