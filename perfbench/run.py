#!/usr/bin/env python3
"""The repository benchmark: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from the sources of the checkout it sits in
(into .bench_build/ at the checkout root), runs the workload in a child
process, echoes the binary's metric lines and prints, as the last line
of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and the
traced rep's spans are written to .bench_build/traces/. See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

# The default seed, and the held-out seed a claimed gain must also pass
# on (it is not to be used while a change is being written).
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261016

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"

# A run measures for --seconds and then finishes its last rep (the
# minimum reps, the thread workload's oracle and one last rep take well
# under a minute); the binary is killed if it runs longer than
# --seconds plus this margin.
RUN_MARGIN_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binary; build output goes
    to stderr so standard output stays the benchmark's own."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def binary_env():
    """The binary's environment: malloc backs its heap with transparent
    huge pages. With 4 KiB pages a run lands, for its whole length, on a
    physical layout of its working set that can cost 20 % of its speed
    (runs of one seed read 42,000 or 52,000 txn/s on durable_crash); on
    huge pages they read within a few percent of each other."""
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = "glibc.malloc.hugetlb=1"
    return env


def parse_metrics(lines):
    """The binary's metric lines -> {name: (value, unit, set, exactness)}."""
    metrics = {}
    for line in lines:
        fields = line.split()
        if fields[:1] == ["metric"] and len(fields) == 6:
            _, name, value, unit, metric_set, exactness = fields
            metrics[name] = (float(value), unit, metric_set, exactness)
    return metrics


def parse(lines, trace):
    """The binary's metric and result lines -> the benchmark's JSON."""
    wanted = "layer" if trace else "e2e"
    result = None
    for line in lines:
        fields = line.split()
        if fields[:1] == ["result"]:
            result = dict(f.split("=", 1) for f in fields[1:])
    if result is None:
        return None
    return {
        "correct": result["correct"] == "1",
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, metric_set, _)
                    in parse_metrics(lines).items() if metric_set == wanted},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json; the binary "
                             "rejects unknown names")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--force-check-failure", action="store_true",
                        help="fail every output check (the self-test's "
                             "proof that failures are counted)")
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.force_check_failure:
        cmd.append("--force-check-failure")
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, env=binary_env())
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    report = parse(lines, args.trace)
    if report is None:
        fail(f"{args.workload} printed no result line")
    for line in lines:
        print(line)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
