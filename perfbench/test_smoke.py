#!/usr/bin/env python3
"""Smoke test of the whole-job benchmark: every workload in quick mode.

    python3 perfbench/test_smoke.py

Builds the benchmark like run.py does, then runs adaptive_shift,
refine_front and service_mix on small inputs for one second each, untraced
and traced, and asserts that
  * the output oracles pass (correct, no failed operation, error_rate 0);
  * every metric BENCHMARK.json names is printed, with its unit — the
    end-to-end metrics untraced, the per-layer metrics traced — and an
    untraced run's detail holds the unbounded wall, step (and, for
    service_mix, job) figures with their units;
  * virtual_s and the lb.*/mp.* counts repeat bit-for-bit between two runs
    of one seed;
  * virtual_s of adaptive_shift and refine_front is identical on the
    virtual, shm and tcp transports.
Exits non-zero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def perfbench(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--quick", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, "%s failed (%d):\n%s%s" % (
        " ".join(cmd), done.returncode, done.stdout, done.stderr)
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail


def check_result(workload, trace, result, detail):
    where = "%s --trace %d" % (workload, trace)
    assert result["correct"] is True, where + ": oracle failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    assert detail["error_rate"] == 0, where + ": error_rate " + str(detail["error_rate"])
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == wanted, "%s: metrics differ from BENCHMARK.json: %s" % (
        where, sorted(set(printed.items()) ^ set(wanted.items())))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), where + ": " + name
    if trace:
        return
    figures = {"setup_wall_s": "s", "solve_wall_s": "s", "step_p50_ms": "ms", "step_tail_ms": "ms"}
    if workload == "service_mix":
        figures.update({"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms"})
    for name, unit in figures.items():
        assert detail.get(name, {}).get("unit") == unit, where + ": detail lacks " + name
        assert detail[name]["value"] > 0, where + ": " + name + " is not positive"


def deterministic(metrics):
    """The lb.*/mp.* metrics that are counts or virtual seconds, not host time."""
    return {k: v["value"] for k, v in metrics.items()
            if k.split(".")[0] in ("lb", "mp") and (v["unit"] != "s" or "virtual" in k)}


def main():
    binary = run.build()
    for workload in run.WORKLOADS:
        untraced, detail = perfbench(binary, workload, 0)
        check_result(workload, 0, untraced, detail)
        traced, detail = perfbench(binary, workload, 1)
        check_result(workload, 1, traced, detail)
        again, _ = perfbench(binary, workload, 1)
        assert deterministic(traced["metrics"]) == deterministic(again["metrics"]), \
            workload + ": lb/mp counts differ between two runs of one seed"
        repeat, _ = perfbench(binary, workload, 0)
        assert repeat["metrics"]["virtual_s"] == untraced["metrics"]["virtual_s"], \
            workload + ": virtual_s differs between two runs of one seed"
        print("ok  %-15s virtual_s=%r" % (workload, untraced["metrics"]["virtual_s"]["value"]))

    for workload in ("adaptive_shift", "refine_front"):
        seen = {}
        for transport in ("virtual", "shm", "tcp"):
            result, _ = perfbench(binary, workload, 0, "--transport", transport)
            seen[transport] = result["metrics"]["virtual_s"]["value"]
        assert len(set(seen.values())) == 1, workload + ": virtual_s differs by transport: " + str(seen)
        print("ok  %-15s virtual_s identical on virtual, shm, tcp" % workload)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
