#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from the checkout's sources (into
.bench_build/perfbench), runs one workload, and prints as its last line
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.

    python3 perfbench/run.py --workload paper_e1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 2   # every workload

Run from the repository root. See perfbench/README.md.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configures once, then lets the build tool rebuild what changed."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(multiprocessing.cpu_count())
    cmd = [cmake, "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def run_workload(spec, workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    if args.plant:
        cmd += ["--plant", args.plant]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("%s: exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("%s: metric %s was not measured" % (workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s: metric %s has unit %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--plant", default="",
                        help="self-test only: plant a wrong expected value")
    args = parser.parse_args()

    build()
    if args.workload != "all":
        print(json.dumps(run_workload(spec, args.workload, args)))
        return
    results = {w: run_workload(spec, w, args) for w in names}
    print("\n%-16s %-8s %-10s %-7s" % ("workload", "correct", "attempted",
                                        "failed"))
    for w, r in results.items():
        print("%-16s %-8s %-10d %-7d" % (w, r["correct"], r["attempted"],
                                         r["failed"]))
        for name, m in r["metrics"].items():
            print("    %-38s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({w: r["correct"] for w, r in results.items()}))


if __name__ == "__main__":
    main()
