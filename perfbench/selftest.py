#!/usr/bin/env python3
"""Self-test of the repository benchmark (about two minutes).

    python3 perfbench/selftest.py

1. BENCHMARK.json has the required shape and limits.
2. A smoke-size run of every workload is correct and prints exactly the
   end_to_end metrics of BENCHMARK.json with their units; one traced run
   prints exactly the per_layer metrics.
3. Every correctness check can fail: each planted wrong expectation (a
   wrong E1 or E2 value, a wrong rank, a wrong expected action, a wrong
   canary cohort, a candidate that does not regress, an unsettleable cap
   step) must turn `correct` false.
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# (workload, planted defect, text of the check that must fail).
PLANTS = [
    ("paper_e1", "e1", "rl_eqos_gain_pct"),
    ("paper_e1", "hw", "hw_speedup_x"),
    ("paper_e1", "rank", "rank first"),
    ("fleet_budgeted", "settle", "did not settle"),
    ("serve_query", "action", "differ from greedy_actions"),
    ("serve_rollout", "action", "differ from greedy_actions"),
    ("serve_rollout", "canary", "canary cohort"),
    ("serve_rollout", "candidate", "does not regress"),
]

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= len(spec["paths"]) <= 16 and all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        and os.path.isdir(os.path.join(ROOT, p)) for p in spec["paths"]),
        "paths are 1..16 relative directories")
    cmd = spec["command"]
    expect(1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)
           and not any(c.startswith("/") or ".." in c for c in cmd),
           "command shape")
    expect(isinstance(spec["run_seconds"], int)
           and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    wl = spec["workloads"]
    expect(2 <= len(wl) <= 8 and all(
        set(w) == {"name", "why"} and "\n" not in w["why"]
        and len(w["why"]) <= 200 for w in wl), "workloads shape")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"}
        and 0 < m["bound"] <= 0.25 for m in e2e), "end_to_end shape")
    expect(1 <= len(layers) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in layers),
        "per_layer shape")
    names = [x["name"] for x in wl + e2e + layers]
    expect(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
           "names are valid and unique")
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in e2e + layers), "units and directions")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in e2e),
           "setup_s present with the largest bound")
    expect(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024,
           "BENCHMARK.json size")


def run(workload, trace=0, plant="", seconds=1, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def last_json(proc):
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_result(label, result, wanted):
    if result is None:
        expect(False, label + ": printed a result")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           label + ": result keys")
    expect(result["correct"] is True, label + ": correct")
    expect(result["attempted"] >= 1 and result["failed"] == 0,
           label + ": attempted >= 1, failed == 0")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    expect(got == want, label + ": metric names and units match BENCHMARK.json")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)

    for w in spec["workloads"]:
        check_result(w["name"], last_json(run(w["name"])), spec["end_to_end"])
    check_result("traced", last_json(run(spec["workloads"][0]["name"], 1)),
                 spec["per_layer"])

    for workload, plant, check in PLANTS:
        proc = run(workload, plant=plant)
        result = last_json(proc)
        expect(result is not None and result["correct"] is False
               and "CHECK FAILED: " in proc.stderr and check in proc.stderr,
               "planted %s on %s fails the '%s' check" % (plant, workload, check))

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc = run(spec["workloads"][0]["name"], cwd=bare)
    expect(proc.returncode != 0 and last_json(proc) is None,
           "without the sources the command fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
