#!/usr/bin/env python3
"""Checks for tdr.run_report.v1 documents and the committed bench baselines.

  report.py check report.json [more_reports.json ...] [--trace t.json ...]

    Validates run reports (schema "tdr.run_report.v1", written by
    RunReport: the output of every bench and chaos run) and Chrome
    trace-event JSON written by ChromeTraceWriter, against the Perfetto
    loading contract: metadata first, required keys, monotone per-track
    timestamps, complete X slices, balanced flow start/finish pairs.
    Prints one OK line per valid file; exits 1 with a per-file
    diagnostic when any file is invalid.

  report.py regress [BENCH_x.json ...] [--baseline-dir .] [--fresh-dir build]

    Compares freshly produced BENCH_*.json reports against the baselines
    committed at the repo root, row by row. Identity fields (scheme,
    seed, fault_plan, section, ...) pair each fresh row with its
    baseline row; every other field must match EXACTLY, because a
    seeded virtual-time run is a pure function of its seed and any
    drift is a behaviour change. Only bench_wal's fsync_appends columns
    (wall_seconds, syncs_per_sec) are skipped: they time the host's
    storage. Each violation prints as a GitHub `::error` annotation and
    the exit code is 1. A run that compares no report at all (no
    baseline, or no fresh report next to any baseline) exits 2: a gate
    that checked nothing has not passed.

No third-party dependencies.
"""

import argparse
import glob
import json
import os
import sys


class Bad(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Bad(msg)


# --- check -------------------------------------------------------------

REPORT_SCHEMA = "tdr.run_report.v1"
SECTION_ORDER = [
    "schema", "experiment", "config", "rows",
    "metrics", "series", "invariants",
]
REQUIRED_BY_KIND = {
    "counter": {"value"},
    "gauge": {"value"},
    "histogram": {"count", "mean", "min", "max", "p50", "p95", "p99"},
    "stats": {"count", "mean", "stddev", "min", "max"},
}


def check_metrics_section(metrics):
    expect(isinstance(metrics, dict), "metrics: must be an object")
    names = list(metrics)
    expect(names == sorted(names), "metrics: metric names not sorted")
    for name, value in metrics.items():
        expect(isinstance(value, dict), f"metrics.{name}: must be an object")
        kind = value.get("kind")
        expect(kind in REQUIRED_BY_KIND, f"metrics.{name}: bad kind {kind!r}")
        missing = REQUIRED_BY_KIND[kind] - value.keys()
        expect(not missing, f"metrics.{name}: missing {sorted(missing)}")


def check_series_section(series):
    expect(isinstance(series, dict), "series: must be an object")
    expect(isinstance(series.get("interval_seconds"), (int, float)),
           "series.interval_seconds: missing or not a number")
    channels = series.get("channels")
    expect(isinstance(channels, list), "series.channels: must be an array")
    names = []
    for i, channel in enumerate(channels):
        expect(isinstance(channel, dict),
               f"series.channels[{i}]: must be an object")
        name = channel.get("name")
        expect(isinstance(name, str) and name,
               f"series.channels[{i}]: missing name")
        names.append(name)
        expect(isinstance(channel.get("values"), list),
               f"series.channels[{i}] ({name}): values must be an array")
    expect(names == sorted(names), "series.channels: names not sorted")


def check_report(doc):
    expect(isinstance(doc, dict), "top level must be an object")
    expect(doc.get("schema") == REPORT_SCHEMA,
           f"schema must be {REPORT_SCHEMA!r}, got {doc.get('schema')!r}")
    expect(isinstance(doc.get("experiment"), str) and doc["experiment"],
           "experiment: missing or empty")
    expect(isinstance(doc.get("config"), dict), "config: must be an object")
    rows = doc.get("rows")
    expect(isinstance(rows, list), "rows: must be an array")
    for i, row in enumerate(rows):
        expect(isinstance(row, dict), f"rows[{i}]: must be an object")

    unknown = set(doc) - set(SECTION_ORDER)
    expect(not unknown, f"unknown top-level sections {sorted(unknown)}")
    positions = [SECTION_ORDER.index(k) for k in doc]
    expect(positions == sorted(positions),
           f"sections out of canonical order: {list(doc)}")

    if "metrics" in doc:
        check_metrics_section(doc["metrics"])
    if "series" in doc:
        check_series_section(doc["series"])
    if "invariants" in doc:
        expect(isinstance(doc["invariants"], dict),
               "invariants: must be an object")


def check_trace(doc):
    expect(isinstance(doc, dict), "top level must be an object")
    events = doc.get("traceEvents")
    expect(isinstance(events, list), "traceEvents: must be an array")
    expect(events, "traceEvents: empty")

    last_ts = {}
    flow_starts = {}
    flow_finishes = {}
    metadata_done = False
    for i, e in enumerate(events):
        expect(isinstance(e, dict), f"traceEvents[{i}]: must be an object")
        for key in ("ph", "name", "ts", "pid", "tid"):
            expect(key in e, f"traceEvents[{i}]: missing {key!r}")
        ph = e["ph"]
        if ph == "M":
            expect(not metadata_done,
                   f"traceEvents[{i}]: metadata after timed events")
            continue
        metadata_done = True
        track = (e["pid"], e["tid"])
        ts = e["ts"]
        expect(isinstance(ts, (int, float)),
               f"traceEvents[{i}]: ts not a number")
        if track in last_ts:
            expect(last_ts[track] <= ts,
                   f"traceEvents[{i}]: ts {ts} < {last_ts[track]} "
                   f"on track {track}")
        last_ts[track] = ts
        if ph == "X":
            expect(isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0,
                   f"traceEvents[{i}]: X slice without nonnegative dur")
        elif ph in ("s", "t", "f"):
            expect("id" in e, f"traceEvents[{i}]: flow without id")
            if ph == "s":
                flow_starts[e["id"]] = flow_starts.get(e["id"], 0) + 1
            elif ph == "f":
                expect(e.get("bp") == "e",
                       f"traceEvents[{i}]: flow finish without bp=e")
                flow_finishes[e["id"]] = flow_finishes.get(e["id"], 0) + 1
        else:
            expect(ph == "i", f"traceEvents[{i}]: unexpected phase {ph!r}")
    expect(set(flow_starts) == set(flow_finishes),
           f"unbalanced flows: starts {sorted(flow_starts)} vs "
           f"finishes {sorted(flow_finishes)}")
    for flow_id, n in flow_starts.items():
        expect(n == 1 and flow_finishes[flow_id] == 1,
               f"flow {flow_id}: {n} starts / "
               f"{flow_finishes[flow_id]} finishes")


def run_check(args):
    failed = False
    for path, checker, label in (
            [(p, check_report, "report") for p in args.reports]
            + [(p, check_trace, "trace") for p in args.trace]):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            checker(doc)
            print(f"OK [{label}] {path}")
        except (OSError, json.JSONDecodeError, Bad) as err:
            print(f"FAIL [{label}] {path}: {err}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


# --- regress -----------------------------------------------------------

# Fields that name a row rather than measure it.
IDENTITY_FIELDS = (
    "section",
    "scheme",
    "seed",
    "fault_plan",
    "durability",
    "nodes",
    "num_shards",
    "clients_per_node",
    "fsync",
)

# bench_wal's fsync_appends columns time the host's storage: never
# compared. Every other field is a pure function of the seed.
IGNORED_FIELDS = (
    "wall_seconds",
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


def compare_rows(name, key, base, fresh, problems):
    for field in sorted(set(base) & set(fresh)):
        if field in IDENTITY_FIELDS or field in IGNORED_FIELDS:
            continue
        if base[field] != fresh[field]:
            problems.append(
                f"{name} ({key_str(key)}): {field} changed "
                f"{base[field]!r} -> {fresh[field]!r} (must be exact)")


def regress_report(baseline_path, fresh_path, problems):
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
        compare_rows(name, key, base, fresh_rows[key], problems)
        compared += 1
    return compared, len(base_rows)


def run_regress(args):
    baselines = [os.path.join(args.baseline_dir, r) for r in args.reports]
    if not baselines:
        baselines = sorted(
            glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
    if not baselines:
        print(f"FAIL: no BENCH_*.json baselines under {args.baseline_dir}; "
              f"nothing compared")
        return 2

    problems = []
    checked = 0
    for baseline_path in baselines:
        fresh_path = os.path.join(args.fresh_dir,
                                  os.path.basename(baseline_path))
        if not os.path.exists(fresh_path):
            print(f"skip {os.path.basename(baseline_path)}: no fresh report "
                  f"at {fresh_path}")
            continue
        compared, total = regress_report(baseline_path, fresh_path, problems)
        checked += 1
        print(f"checked {os.path.basename(baseline_path)}: "
              f"{compared}/{total} baseline rows matched against fresh run")

    if checked == 0:
        print(f"FAIL: no fresh report under {args.fresh_dir} matches a "
              f"baseline; nothing compared")
        return 2

    for p in problems:
        print(f"::error title=bench regression::{p}")
    if problems:
        print(f"{len(problems)} violation(s) across {checked} report(s)")
        return 1
    print(f"OK: {checked} report(s) match their baselines exactly")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate reports and traces")
    check.add_argument("reports", nargs="*", help="run report files")
    check.add_argument("--trace", nargs="+", action="extend", default=[],
                       help="Chrome trace-event files")

    regress = sub.add_parser("regress",
                             help="diff fresh reports against baselines")
    regress.add_argument("reports", nargs="*",
                         help="baseline report filenames (default: every "
                              "BENCH_*.json in --baseline-dir)")
    regress.add_argument("--baseline-dir", default=".",
                         help="directory holding committed baselines")
    regress.add_argument("--fresh-dir", default="build",
                         help="directory holding freshly produced reports")

    args = parser.parse_args()
    if args.command == "check":
        if not args.reports and not args.trace:
            check.print_usage()
            return 2
        return run_check(args)
    return run_regress(args)


if __name__ == "__main__":
    sys.exit(main())
