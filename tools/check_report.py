#!/usr/bin/env python3
"""Schema checker for tdr observability artifacts.

Validates two document families:

  * run reports (schema "tdr.run_report.v1") written by RunReport — the
    machine-readable output of every bench and chaos run;
  * Chrome trace-event JSON written by ChromeTraceWriter (--trace),
    checked against the Perfetto loading contract: metadata first,
    required keys, monotone per-track timestamps, complete X slices,
    balanced flow start/finish pairs.

Usage:
  check_report.py report.json [more_reports.json ...] [--trace t.json ...]

Exits nonzero with a per-file diagnostic on the first violation; prints
one OK line per valid file. No third-party dependencies.
"""

import json
import sys

REPORT_SCHEMA = "tdr.run_report.v1"
SECTION_ORDER = [
    "schema", "experiment", "config", "rows",
    "metrics", "series", "invariants", "profile",
]
METRIC_KINDS = {"counter", "gauge", "histogram", "stats", "profile"}
REQUIRED_BY_KIND = {
    "counter": {"value"},
    "gauge": {"value"},
    "histogram": {"count", "mean", "min", "max", "p50", "p95", "p99"},
    "stats": {"count", "mean", "stddev", "min", "max"},
    "profile": {"count", "mean", "stddev", "min", "max"},
}


class Bad(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Bad(msg)


def check_metrics_section(metrics, where):
    expect(isinstance(metrics, dict), f"{where}: must be an object")
    names = list(metrics)
    expect(names == sorted(names), f"{where}: metric names not sorted")
    for name, value in metrics.items():
        expect(isinstance(value, dict), f"{where}.{name}: must be an object")
        kind = value.get("kind")
        expect(kind in METRIC_KINDS, f"{where}.{name}: bad kind {kind!r}")
        missing = REQUIRED_BY_KIND[kind] - value.keys()
        expect(not missing, f"{where}.{name}: missing {sorted(missing)}")


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
        check_metrics_section(doc["metrics"], "metrics")
        expect(not any(v.get("kind") == "profile"
                       for v in doc["metrics"].values()),
               "metrics: profile entries belong in the profile section")
    if "series" in doc:
        check_series_section(doc["series"])
    if "invariants" in doc:
        expect(isinstance(doc["invariants"], dict),
               "invariants: must be an object")
    if "profile" in doc:
        check_metrics_section(doc["profile"], "profile")


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


def main(argv):
    reports, traces = [], []
    bucket = reports
    for arg in argv[1:]:
        if arg == "--trace":
            bucket = traces
            continue
        bucket.append(arg)
    if not reports and not traces:
        print(__doc__)
        return 2

    failed = False
    for path, checker, label in (
            [(p, check_report, "report") for p in reports]
            + [(p, check_trace, "trace") for p in traces]):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            checker(doc)
            print(f"OK [{label}] {path}")
        except (OSError, json.JSONDecodeError, Bad) as err:
            print(f"FAIL [{label}] {path}: {err}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
