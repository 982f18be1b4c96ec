#!/usr/bin/env python3
"""Compare two result files written by run.py, e.g. a parent commit's and a change's.

    python3 perfbench/compare.py .bench_out/A.json .bench_out/B.json [--tol 1e-9]

Reports three things:
  counts     whether every count matches exactly (per-op counts such as the
             selected fit's iterations, matched by input; and, when both
             runs were traced, the per-layer counters)
  estimates  the largest absolute difference between estimates of the same
             input, and whether it is within --tol
  timings    median and quartiles of each file's op and set-up times, and of
             the per-layer times when the run was traced

Exits 1 when counts differ or an estimate differs by more than --tol.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import LAYER_COUNTS


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def first_by_input(res: dict) -> dict[int, dict]:
    """The first successful op of each input; later ops repeat the same computation."""
    out = {}
    for op in res["ops"]:
        if op["failure"] is None:
            out.setdefault(op["input"], op)
    return out


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.6g}" if values else "no samples"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  (n={len(values)})"


def compare(a: dict, b: dict, tol: float) -> bool:
    ok = True
    if (a["workload"], a["seed"], a["small"]) != (b["workload"], b["seed"], b["small"]):
        print(f"warning: different inputs: {a['workload']}/seed {a['seed']} vs {b['workload']}/seed {b['seed']}")

    ops_a, ops_b = first_by_input(a), first_by_input(b)
    shared = sorted(set(ops_a) & set(ops_b))
    count_diffs = []
    for k in shared:
        ca, cb = ops_a[k]["counts"], ops_b[k]["counts"]
        for name in sorted(set(ca) | set(cb)):
            if ca.get(name) != cb.get(name):
                count_diffs.append(f"input {k} {name}: {ca.get(name)} vs {cb.get(name)}")
    if a["layers"] and b["layers"]:
        for name in LAYER_COUNTS:
            if a["layers"][name] != b["layers"][name]:
                count_diffs.append(f"{name}: {a['layers'][name]} vs {b['layers'][name]}")
    print(f"counts: {'match' if not count_diffs else 'DIFFER'} ({len(shared)} inputs compared)")
    for line in count_diffs:
        print(f"  {line}")
    ok &= not count_diffs

    worst, worst_key, missing = 0.0, None, 0
    for k in shared:
        ea, eb = ops_a[k]["estimates"], ops_b[k]["estimates"]
        missing += len(set(ea) ^ set(eb))
        for name in set(ea) & set(eb):
            d = abs(ea[name] - eb[name])
            if d > worst or worst_key is None:
                worst, worst_key = d, f"input {k} {name}"
    within = worst <= tol and missing == 0
    print(f"estimates: max abs difference {worst:.3g} at {worst_key}; "
          f"{'within' if within else 'NOT within'} tolerance {tol:g}"
          + (f"; {missing} estimates present on one side only" if missing else ""))
    ok &= within

    print("timings:")
    for label, res in (("A", a), ("B", b)):
        times = [op["seconds"] for op in res["ops"] if op["failure"] is None and not op["traced"]]
        print(f"  {label} op_s     {quartiles(times)}")
        print(f"  {label} setup_s  {quartiles(res['setup_samples'])}")
    if a["layers"] and b["layers"]:
        for name in sorted(a["layers"]):
            if name not in LAYER_COUNTS:
                print(f"  {name:<34} A {a['layers'][name]:.6g}  B {b['layers'].get(name, float('nan')):.6g}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-9, help="largest accepted absolute estimate difference")
    args = p.parse_args(argv)
    return 0 if compare(load(args.a), load(args.b), args.tol) else 1


if __name__ == "__main__":
    sys.exit(main())
