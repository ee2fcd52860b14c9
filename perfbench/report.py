"""Raw run records -> CSV -> one cross-layer table; and the record gate.

Three steps, stdlib and NumPy only::

    python3 perfbench/report.py csv     # .bench_build/perfbench/raw/*.json -> runs.csv
    python3 perfbench/report.py table   # runs.csv -> median [q1, q3] per metric x workload
    python3 perfbench/report.py compare BASE_DIR NEW_DIR

``compare`` applies the bounds fixed in ``BENCHMARK.json`` to two sets of
raw records, workload by workload.  It first compares the records'
machine fingerprints: if any differ it prints "not comparable", names
the differing fields and stops with exit code 3.  Records from another
machine are never scaled or "corrected" onto this one.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import check_bound, fingerprint_mismatch  # noqa: E402

RAW = HERE.parent / ".bench_build" / "perfbench" / "raw"
CSV_DEFAULT = HERE.parent / ".bench_build" / "perfbench" / "runs.csv"
FIELDS = ("workload", "seed", "trace", "run", "metric", "value", "unit")


def load_records(raw_dir: Path) -> list[dict]:
    records = []
    for path in sorted(Path(raw_dir).glob("*.json")):
        rec = json.loads(path.read_text())
        rec["_run"] = path.stem
        records.append(rec)
    return records


def rows(records) -> list[dict]:
    """One row per (run, metric): end-to-end metrics of every run and
    per-layer metrics of traced runs."""
    out = []
    for rec in records:
        metrics = dict(rec["end_to_end"])
        metrics.update(rec.get("per_layer", {}))
        for name, value in metrics.items():
            out.append({
                "workload": rec["workload"], "seed": rec["seed"],
                "trace": rec["trace"], "run": rec["_run"], "metric": name,
                "value": value, "unit": rec["units"][name],
            })
    return out


def write_csv(records, path: Path) -> int:
    data = rows(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(data)
    return len(data)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def table(csv_rows) -> str:
    """Metric rows x workload columns: ``median [q1, q3] (n)``.

    End-to-end metrics come from untraced runs only, per-layer metrics
    from traced runs only, so tracing overhead never leaks into an
    end-to-end figure.
    """
    cells = defaultdict(list)
    units = {}
    for r in csv_rows:
        traced = r["trace"] == "1"
        is_layer = "." in r["metric"]
        if traced != is_layer:
            continue
        cells[r["metric"], r["workload"]].append(float(r["value"]))
        units[r["metric"]] = r["unit"]
    workloads = sorted({w for _, w in cells})
    metrics = sorted(units, key=lambda m: ("." in m, m))
    head = ["metric", "unit", *workloads]
    lines = [head]
    for m in metrics:
        line = [m, units[m]]
        for w in workloads:
            vals = cells.get((m, w))
            if not vals:
                line.append("-")
                continue
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            line.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(vals)})")
        lines.append(line)
    widths = [max(len(row[i]) for row in lines) for i in range(len(head))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in lines
    )


def compare(base: list[dict], new: list[dict], spec: dict) -> tuple[int, str]:
    """Gate *new* records against *base* with the bounds in *spec*."""
    lines = []
    for a in base:
        for b in new:
            diff = fingerprint_mismatch(a["fingerprint"], b["fingerprint"])
            if diff:
                return 3, ("not comparable: the records come from different "
                           "machines (" + "; ".join(diff) + "); no correction "
                           "is applied")
    status = 0
    for workload in sorted({r["workload"] for r in base}):
        b_runs = [r for r in base if r["workload"] == workload and not r["trace"]]
        n_runs = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not b_runs or not n_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict = check_bound(
                [r["end_to_end"][name] for r in b_runs],
                [r["end_to_end"][name] for r in n_runs],
                metric["better"], metric["bound"])
            if verdict["verdict"] == "regressed":
                status = 1
            lines.append(
                f"{workload:<22} {name:<12} {verdict['verdict']:<10} "
                f"worse by {verdict['worse_by']:+.3f} (bound "
                f"{metric['bound']}, base spread {verdict['base_spread']:.3f})")
        # More failed ops than the base is a regression whatever the speed.
        failed = [sum(r["counts"]["failed"] for r in runs)
                  for runs in (b_runs, n_runs)]
        if failed[1] > failed[0]:
            status = 1
        lines.append(f"{workload:<22} {'failed ops':<12} "
                     f"{'regressed' if failed[1] > failed[0] else 'ok':<10} "
                     f"{failed[0]} -> {failed[1]}")
    return status, "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("csv")
    c.add_argument("--raw", type=Path, default=RAW)
    c.add_argument("--out", type=Path, default=CSV_DEFAULT)
    t = sub.add_parser("table")
    t.add_argument("--csv", type=Path, default=CSV_DEFAULT)
    g = sub.add_parser("compare")
    g.add_argument("base", type=Path)
    g.add_argument("new", type=Path)
    g.add_argument("--spec", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.cmd == "csv":
        n = write_csv(load_records(args.raw), args.out)
        print(f"wrote {n} rows to {args.out}")
        return 0
    if args.cmd == "table":
        print(table(read_csv(args.csv)))
        return 0
    spec = json.loads(args.spec.read_text())
    status, text = compare(load_records(args.base), load_records(args.new), spec)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
