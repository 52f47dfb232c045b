#!/usr/bin/env python3
"""Cross-backend digest differ for BENCH_runtime.json (E15/E18).

Groups a tdr.run_report.v1 report's rows by (section, scheme, seed,
fault_plan) and requires every backend's state_digest and
shard_digests to be identical within a group — the sim-as-oracle
equivalence property, re-checked from the report artifact alone so CI
validates the whole pipeline (run -> report -> artifact), not just the
in-process comparison. The fault_plan axis keeps faulted rows
(crash/recovery, chaos drops) compared only against the same fault
plan on the other backend; rows without the field compare as plan
"none". The section axis keeps experiments apart (E18's epoch_speedup
rows reuse E15's schemes at different cluster sizes); within a group,
thread rows for EVERY dispatch mode (turn, epoch) must match the sim
oracle bit for bit.

Usage:
  diff_digests.py BENCH_runtime.json [more_reports.json ...]

Exits nonzero listing every mismatching group; prints one OK line per
clean file. No third-party dependencies.
"""

import json
import sys


def check_file(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    rows = report.get("rows", [])
    if not rows:
        return [f"{path}: no rows"]

    groups = {}
    for i, row in enumerate(rows):
        backend = row.get("backend")
        if backend is None:
            return [f"{path}: rows[{i}] missing 'backend'"]
        if "state_digest" not in row:
            return [f"{path}: rows[{i}] missing 'state_digest'"]
        key = (row.get("section", "main"), row.get("scheme"),
               row.get("seed"), row.get("fault_plan", "none"))
        groups.setdefault(key, []).append((backend, row))

    errors = []
    for (section, scheme, seed, plan), members in sorted(groups.items()):
        where = (f"({section}, {scheme}, seed={seed}, plan={plan})")
        backends = [b for b, _ in members]
        if len(set(backends)) < 2:
            errors.append(
                f"{path}: {where} has only "
                f"backend(s) {sorted(set(backends))} — nothing to compare")
            continue
        reference_backend, reference = members[0]
        for backend, row in members[1:]:
            # Thread rows carry the dispatch mode; name it in mismatch
            # output so a diverging epoch cell is identifiable.
            label = backend
            if "dispatch" in row:
                label = f"{backend}/{row['dispatch']}"
            for field in ("state_digest", "shard_digests", "committed"):
                if row.get(field) != reference.get(field):
                    errors.append(
                        f"{path}: {where} "
                        f"{field} differs: "
                        f"{reference_backend}={reference.get(field)!r} "
                        f"{label}={row.get(field)!r}")
    if not errors:
        n = len(groups)
        print(f"OK {path}: {n} (section, scheme, seed, fault_plan) groups "
              f"bit-identical across backends")
    return errors


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 2
    errors = []
    for path in argv[1:]:
        try:
            errors.extend(check_file(path))
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{path}: {e}")
    for e in errors:
        print(f"MISMATCH {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
