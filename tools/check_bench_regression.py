#!/usr/bin/env python3
"""Bench-baseline regression gate for BENCH_*.json reports.

Compares freshly produced tdr.run_report.v1 reports against the
baselines committed at the repo root, row by row:

  * identity fields (scheme, seed, backend, fault_plan, section, ...)
    pair each fresh row with its baseline row;
  * deterministic outputs (digests, commit/abort counts) must be EXACT
    — these come from seeded virtual-time runs, so any drift is a
    behavior change, not noise;
  * rate metrics (committed_per_sec, *_rate) get a relative tolerance
    band (default ±25%);
  * wall-clock columns are ignored — they measure the machine, not
    the model.

Informational by default: every violation prints as a GitHub
`::warning` annotation and the exit code stays 0, so CI surfaces
drift without blocking. `--strict` upgrades violations to `::error`
and exits 1 — flip it on once the baselines are re-recorded on the CI
runner class.

Usage:
  check_bench_regression.py --baseline-dir . --fresh-dir build/bench
  check_bench_regression.py BENCH_runtime.json --fresh-dir build/bench
  check_bench_regression.py --strict --tolerance 0.10 ...

No third-party dependencies.
"""

import argparse
import glob
import json
import os
import sys

# Fields that name a row rather than measure it.
IDENTITY_FIELDS = (
    "section",
    "scheme",
    "seed",
    "backend",
    "fault_plan",
    "durability",
    "nodes",
    "num_shards",
    "clients_per_node",
    "fsync",
)

# Deterministic outputs of a seeded virtual-time run: exact match.
EXACT_FIELDS = (
    "state_digest",
    "shard_digests",
    "committed",
    "submitted",
    "unavailable",
    "divergent_slots",
    "wal_records",
    "wal_flushes",
)

# Rates derived from virtual time: tolerance-banded, not exact, so a
# baseline recorded before a rounding change doesn't hard-fail.
RATE_SUFFIXES = ("_per_sec", "_rate")

# Machine-dependent measurements: never compared.
IGNORED_FIELDS = (
    "wall_seconds",
    "wall_sim_ratio",
    "runtime_dispatched",
    "seconds",
    "records_per_sec",
    "syncs_per_sec",
)


def row_key(row):
    return tuple((f, json.dumps(row[f])) for f in IDENTITY_FIELDS
                 if f in row)


def key_str(key):
    return ", ".join(f"{f}={v}" for f, v in key) or "<no identity fields>"


def index_rows(rows, path, problems):
    indexed = {}
    for i, row in enumerate(rows):
        key = row_key(row)
        if key in indexed:
            problems.append(f"{path}: duplicate row identity ({key_str(key)})"
                            f" at rows[{i}]")
        indexed[key] = row
    return indexed


def classify(field):
    if field in IDENTITY_FIELDS or field in IGNORED_FIELDS:
        return "skip"
    if field in EXACT_FIELDS:
        return "exact"
    if field.endswith(RATE_SUFFIXES):
        return "rate"
    # Unknown metric: compare exactly if it isn't numeric noise we know
    # about — new deterministic columns get gated by default.
    return "exact"


def compare_rows(name, key, base, fresh, tolerance, problems):
    for field in sorted(set(base) & set(fresh)):
        kind = classify(field)
        if kind == "skip":
            continue
        b, f = base[field], fresh[field]
        if kind == "rate" and isinstance(b, (int, float)) \
                and isinstance(f, (int, float)):
            limit = tolerance * max(abs(b), 1e-9)
            if abs(f - b) > limit:
                problems.append(
                    f"{name} ({key_str(key)}): {field} drifted "
                    f"{b} -> {f} (>±{tolerance:.0%})")
        elif b != f:
            problems.append(
                f"{name} ({key_str(key)}): {field} changed "
                f"{b!r} -> {f!r} (deterministic, must be exact)")


def check_report(baseline_path, fresh_path, tolerance, problems):
    name = os.path.basename(baseline_path)
    with open(baseline_path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(fresh_path, encoding="utf-8") as fh:
        fresh = json.load(fh)
    base_rows = index_rows(baseline.get("rows", []), baseline_path, problems)
    fresh_rows = index_rows(fresh.get("rows", []), fresh_path, problems)
    compared = 0
    for key, base in base_rows.items():
        if key not in fresh_rows:
            problems.append(f"{name} ({key_str(key)}): row missing from "
                            f"fresh report")
            continue
        compare_rows(name, key, base, fresh_rows[key], tolerance, problems)
        compared += 1
    return compared, len(base_rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="*",
                        help="baseline report filenames (default: every "
                             "BENCH_*.json in --baseline-dir)")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding committed baselines")
    parser.add_argument("--fresh-dir", default="build/bench",
                        help="directory holding freshly produced reports")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative band for rate metrics (default 0.25)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any violation (default: warn only)")
    args = parser.parse_args()

    baselines = [os.path.join(args.baseline_dir, r) for r in args.reports]
    if not baselines:
        baselines = sorted(
            glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline_dir}; "
              f"nothing to check")
        return 0

    problems = []
    checked = 0
    for baseline_path in baselines:
        fresh_path = os.path.join(args.fresh_dir,
                                  os.path.basename(baseline_path))
        if not os.path.exists(fresh_path):
            print(f"skip {os.path.basename(baseline_path)}: no fresh report "
                  f"at {fresh_path}")
            continue
        compared, total = check_report(baseline_path, fresh_path,
                                       args.tolerance, problems)
        checked += 1
        print(f"checked {os.path.basename(baseline_path)}: "
              f"{compared}/{total} baseline rows matched against fresh run")

    level = "error" if args.strict else "warning"
    for p in problems:
        print(f"::{level} title=bench regression::{p}")
    if problems:
        print(f"{len(problems)} violation(s) across {checked} report(s)"
              f"{' (strict: failing)' if args.strict else ' (informational)'}")
        return 1 if args.strict else 0
    print(f"OK: {checked} report(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
