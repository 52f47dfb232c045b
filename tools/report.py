#!/usr/bin/env python3
"""Checks for run reports, the committed bench baselines and perfbench outputs.

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

  report.py diff PARENT CHANGE

    Compares two perfbench outputs of one workload (the `metric`, `span`
    and `fingerprint` lines perfbench/run.py prints, as CI's perfbench
    job uploads them), one from a parent commit and one from a change. A
    fingerprint mismatch, and each `exact` metric that differs or is
    missing on one side, prints as a GitHub `::error` annotation naming
    the metric's layer (the prefix of its name); the exit code is then
    1. Every `host` metric and span self time prints with its parent
    value, change value and ratio, furthest from 1 first, to show which
    layer a saving or a regression sits in. An input with no `metric`
    line exits 2.

  report.py pairs --parent P1 ... PN --change C1 ... CN

    Reads N perfbench outputs of one workload from a parent commit and N
    from a change, in run order: pair i is Pi and Ci. It runs nothing
    itself. For each end-to-end metric BENCHMARK.json lists, it prints
    each side's median and quartiles, how many pairs the change won
    (ties count for neither side) with the range of its pair ratios
    (change / parent), and the verdict of the rule for claiming a gain:
    the change wins at least 9 in 10 pairs, and its median is better
    than the parent's by more than the parent's interquartile range.
    The exit code is 0 whatever the verdicts; an input with no `metric`
    line, or lists of different lengths, exit 2.

No third-party dependencies.
"""

import argparse
import glob
import json
import math
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


# --- diff --------------------------------------------------------------


def read_perfbench(path):
    """A perfbench output -> (fingerprint, {metric: (value, exactness)},
    {span: self_ms}). Lines of any other kind are skipped."""
    fingerprint = None
    metrics = {}
    spans = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if fields[:1] == ["metric"] and len(fields) == 6:
                metrics[fields[1]] = (float(fields[2]), fields[5])
            elif fields[:1] == ["span"] and len(fields) > 2:
                attrs = dict(f.split("=", 1) for f in fields[2:] if "=" in f)
                if "self_ms" in attrs:
                    spans[fields[1]] = float(attrs["self_ms"])
            elif fields[:1] == ["fingerprint"]:
                fingerprint = " ".join(fields[1:])
    return fingerprint, metrics, spans


def layer(name):
    return name.split(".", 1)[0]


def ratio(parent, change):
    """change / parent; None when either side is missing."""
    if parent is None or change is None:
        return None
    if parent == change:
        return 1.0
    return change / parent if parent else math.inf


def distance_from_one(r):
    """How far a ratio is from 1, in log terms (so 0.5 and 2 rank alike);
    a missing side, a zero or an infinity ranks first."""
    if r is None or r <= 0 or math.isinf(r):
        return math.inf
    return abs(math.log(r))


def run_diff(args):
    parent_fp, parent_metrics, parent_spans = read_perfbench(args.parent)
    change_fp, change_metrics, change_spans = read_perfbench(args.change)
    for path, metrics in ((args.parent, parent_metrics),
                          (args.change, change_metrics)):
        if not metrics:
            print(f"FAIL: no metric line in {path}; nothing compared")
            return 2

    problems = []
    if parent_fp != change_fp:
        problems.append(f"fingerprint changed: {parent_fp} -> {change_fp}")
    both = {**parent_metrics, **change_metrics}
    exact = sorted(n for n, (_, kind) in both.items() if kind == "exact")
    for name in exact:
        base = parent_metrics.get(name)
        fresh = change_metrics.get(name)
        what = f"exact metric {name} (layer {layer(name)})"
        if base is None or fresh is None:
            side = "parent" if base is None else "change"
            problems.append(f"{what} missing from the {side}")
        elif base[0] != fresh[0]:
            problems.append(f"{what} changed {base[0]!r} -> {fresh[0]!r}")

    rows = []
    for name in sorted(set(both) - set(exact)):
        rows.append(("metric", name,
                     parent_metrics.get(name, (None,))[0],
                     change_metrics.get(name, (None,))[0]))
    for name in sorted(set(parent_spans) | set(change_spans)):
        rows.append(("span", f"{name} self_ms", parent_spans.get(name),
                     change_spans.get(name)))
    rows.sort(key=lambda row: -distance_from_one(ratio(row[2], row[3])))

    def cell(value):
        return "-" if value is None else f"{value:.6g}"

    print(f"{len(exact)} exact metric(s); host metrics and span self "
          f"times, furthest from 1 first:")
    print(f"  {'':6} {'name':36} {'parent':>12} {'change':>12} "
          f"{'change/parent':>13}")
    for kind, name, base, fresh in rows:
        r = ratio(base, fresh)
        r_cell = "-" if r is None else f"{r:.3f}"
        print(f"  {kind:6} {name:36} {cell(base):>12} {cell(fresh):>12} "
              f"{r_cell:>13}")

    for p in problems:
        print(f"::error title=perfbench diff::{p}")
    if problems:
        print(f"{len(problems)} exact difference(s)")
        return 1
    print(f"OK: fingerprint and {len(exact)} exact metric(s) identical")
    return 0


# --- pairs -------------------------------------------------------------

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    ordered = sorted(values)

    def at(q):
        pos = q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_verdict(parent, change, higher_is_better):
    """The row `pairs` prints for one metric's N parent and N change
    values, given in run order."""
    sign = 1 if higher_is_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ratios = [ratio(p, c) for p, c in zip(parent, change)]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    reasons = []
    if wins * 10 < 9 * len(parent):
        reasons.append(f"{wins}/{len(parent)} wins < 9/10")
    if gap <= iqr:
        reasons.append(f"median gap {gap:.6g} <= parent IQR {iqr:.6g}")
    verdict = (f"no gain ({'; '.join(reasons)})" if reasons else
               f"gain ({wins}/{len(parent)} wins, median gap {gap:.6g} > "
               f"parent IQR {iqr:.6g})")
    return (f"{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]",
            f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]",
            f"{wins}/{len(parent)}",
            f"{min(ratios):.3f}-{max(ratios):.3f}",
            verdict)


def run_pairs(args):
    if len(args.parent) != len(args.change):
        print(f"FAIL: {len(args.parent)} parent and {len(args.change)} "
              f"change outputs; pairs need as many of each")
        return 2
    sides = []
    for paths in (args.parent, args.change):
        runs = []
        for path in paths:
            _, metrics, _ = read_perfbench(path)
            if not metrics:
                print(f"FAIL: no metric line in {path}; nothing compared")
                return 2
            runs.append(metrics)
        sides.append(runs)
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    rows = [("metric", "better", "parent median [q1, q3]",
             "change median [q1, q3]", "wins", "pair ratios", "verdict")]
    for metric in end_to_end:
        name = metric["name"]
        values = [[run[name][0] for run in runs if name in run]
                  for runs in sides]
        if any(len(v) != len(args.parent) for v in values):
            rows.append((name, metric["better"], "-", "-", "-", "-",
                         "missing from some inputs"))
            continue
        rows.append((name, metric["better"])
                    + pair_verdict(*values, metric["better"] == "higher"))
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    print(f"{len(args.parent)} pair(s); the rule for a gain: at least 9/10 "
          f"wins and a median gap wider than the parent's IQR")
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        print("  " + " ".join(cells + [row[6]]))
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

    diff = sub.add_parser("diff",
                          help="compare a parent's and a change's "
                               "perfbench outputs")
    diff.add_argument("parent", help="the parent commit's perfbench output")
    diff.add_argument("change", help="the change's perfbench output")

    pairs = sub.add_parser("pairs",
                           help="judge N alternated parent/change "
                                "perfbench pairs")
    pairs.add_argument("--parent", nargs="+", required=True,
                       help="the parent's perfbench outputs, in run order")
    pairs.add_argument("--change", nargs="+", required=True,
                       help="the change's perfbench outputs, in run order")

    args = parser.parse_args()
    if args.command == "diff":
        return run_diff(args)
    if args.command == "pairs":
        return run_pairs(args)
    if args.command == "check":
        if not args.reports and not args.trace:
            check.print_usage()
            return 2
        return run_check(args)
    return run_regress(args)


if __name__ == "__main__":
    sys.exit(main())
