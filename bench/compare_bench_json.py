#!/usr/bin/env python3
"""Compares fresh bench NDJSON rows with the committed BENCH_*.json rows.

    python3 bench/compare_bench_json.py FRESH.ndjson BENCH_a.json [BENCH_b.json ...]

FRESH.ndjson is what the bench_perf_* binaries append under
PPDM_BENCH_JSON=FILE. Each fresh row is matched with the last committed row
of the same "bench" and "case", preferring rows tagged "rev": "change" (the
state the file was committed at). Every numeric field the two rows share is
printed as fresh / committed; a ratio beyond 1.5x either way prints a
warning (a GitHub Actions "::warning::" line). Rows whose workload fields
(records, items, fits, bytes, ...) differ are listed but not compared:
their timings measure different work. The script reports only; it always
exits 0.
"""

import json
import sys

THRESHOLD = 1.5
# Fields that describe the work a row measured rather than how fast it ran.
WORKLOAD_KEYS = {"items", "records", "batch_records", "fits", "bytes",
                 "refreshes", "cores", "runs"}


def read_rows(path):
    rows = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(row, dict) and "bench" in row and "case" in row:
                    rows.append(row)
    except OSError as error:
        print(f"compare_bench_json: cannot read {path}: {error}")
    return rows


def numeric(row):
    return {key: value for key, value in row.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def committed_index(paths):
    """(bench, case) -> the committed row a fresh row is compared with."""
    index = {}
    for path in paths:
        for row in read_rows(path):
            key = (row["bench"], row["case"])
            held = index.get(key)
            if held is None or row.get("rev") == "change" or held.get("rev") != "change":
                index[key] = row
    return index


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip())
        return 0
    fresh = read_rows(argv[1])
    committed = committed_index(argv[2:])
    compared = warned = unmatched = 0
    for row in fresh:
        if row["case"].startswith("machine"):
            continue
        base = committed.get((row["bench"], row["case"]))
        label = f'{row["bench"]} / {row["case"]}'
        if base is None:
            unmatched += 1
            continue
        mine, theirs = numeric(row), numeric(base)
        differs = [key for key in WORKLOAD_KEYS & mine.keys() & theirs.keys()
                   if mine[key] != theirs[key]]
        if differs:
            print(f"{label}: not compared, workload differs ({', '.join(sorted(differs))})")
            continue
        for key in sorted((mine.keys() & theirs.keys()) - WORKLOAD_KEYS):
            if mine[key] == 0 or theirs[key] == 0:
                continue
            ratio = mine[key] / theirs[key]
            compared += 1
            line = f"{label}: {key} {mine[key]:.6g} vs committed {theirs[key]:.6g} ({ratio:.2f}x)"
            if ratio > THRESHOLD or ratio < 1.0 / THRESHOLD:
                warned += 1
                print(f"::warning::{line}")
            else:
                print(line)
    print(f"compare_bench_json: {compared} field(s) compared, {warned} beyond "
          f"{THRESHOLD}x, {unmatched} fresh row(s) with no committed case")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except Exception as error:  # a report, never a gate
        print(f"compare_bench_json: {error}")
        sys.exit(0)
