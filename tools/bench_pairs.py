#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent a59f222 --seeds 1-10 --out BENCH_rows.json \\
        --change "what the change does"

Neither side runs in this checkout.  The parent commit is exported with
`git archive`, and this checkout's files (the ones git tracks or would
add, as they are in the working tree) are copied, each into a fresh
temporary directory; both are removed on every exit path (including
Ctrl-C and SIGTERM).  So both sides start with no bytecode caches or
benchmark outputs, and both keep their scratch files under the same
temporary directory.  For each seed and each workload in BENCHMARK.json,
perfbench/run.py runs for the benchmark's run_seconds once on the parent's
tree and once on the change's, one process at a time; the parent runs
first on odd seeds and second on even ones.  perfbench/compare.py
then checks the two runs' per-op counts and estimates.  The summary goes to
--out in the schema of BENCH_solver.json: per metric, each side's median and
quartiles (statistics.quantiles, as compare.py reports them), every run's
value, and the number of pairs in which the change's value is lower.  Each
metric that BENCHMARK.json gives a direction ("better": "lower" or "higher")
also records whether the gain rule holds for it: the change is better in at
least 9 of every 10 pairs, and its median is better than the parent's by more
than the distance between the parent's quartiles.  It records the mirror too:
a metric has regressed when the change is worse in at least 9 of every 10
pairs and its median is worse than the parent's by more than that distance.
The medians of every metric are printed at the end, then the metrics that
regressed.
Each run's result file is kept as .bench_out/pairs/<side>-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("before", "after")


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix, '1-3,7') as a list of seeds in the order given."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


@contextlib.contextmanager
def exported_tree(commit: str):
    """The files of commit in a fresh temporary directory, removed on exit.

    `git archive` copies the committed files only, so nothing is registered
    in this repository's .git that a killed run could leave behind.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@contextlib.contextmanager
def copied_checkout():
    """This checkout's working-tree files in a fresh temporary directory, removed on exit.

    The files are those `git ls-files` lists as tracked, or untracked and
    not ignored, so uncommitted edits are measured but no cache or earlier
    output is carried over.  A tracked file deleted from the working tree
    is left out.
    """
    tmp = Path(tempfile.mkdtemp(prefix="bench-change-"))
    try:
        listed = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True,
        ).stdout
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.is_file():
                (tmp / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, tmp / name)
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; the run's summary line and its result file.

    A failed run raises RuntimeError naming the tree, workload and seed and
    ending with the last lines the run wrote to stderr.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RuntimeError(
            f"perfbench/run.py in {tree} failed on workload {workload}, seed {seed} "
            f"(exit status {proc.returncode}); the end of its stderr:\n{tail}"
        )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result_file = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return {"summary": summary, "result_file": result_file}


def compare_runs(before_file: Path, after_file: Path) -> dict:
    """perfbench/compare.py's verdict on two result files, at tolerance 0."""
    proc = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(before_file), str(after_file), "--tol", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    counts = next((ln for ln in lines if ln.startswith("counts:")), "")
    estimates = next((ln for ln in lines if ln.startswith("estimates:")), "")
    return {"identical": proc.returncode == 0, "counts": counts, "estimates": estimates}


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(q2, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def gain_holds(before: list[float], after: list[float], better: str) -> bool:
    """Whether the paired runs show a gain for a metric whose better direction is "lower" or "higher".

    The change must be better in at least 9 of every 10 pairs (a tie is not
    better), and its median better than the parent's by more than the
    parent's quartile spread.
    """
    sign = {"lower": 1, "higher": -1}[better]
    wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
    parent, change = quartiles(before), quartiles(after)
    return 10 * wins >= 9 * len(before) and sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"]


def regressed(before: list[float], after: list[float], better: str) -> bool:
    """The gain rule mirrored: the change is worse in at least 9 of every 10 pairs, and by more than the parent's spread.

    A tie is not worse.  The median gap is measured against the parent's
    quartile spread, as for a gain.
    """
    return gain_holds(before, after, {"lower": "higher", "higher": "lower"}[better])


def paired_summary(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles and values, the pairs the change won, and the verdicts of both rules.

    pairs holds one {"before": summary, "after": summary} per seed, where a
    summary is run.py's last output line.  better maps a metric's name to its
    better direction; a metric it lacks gets no verdict (gain and regressed
    are None).  A tie counts for neither side.
    """
    out = {}
    for name, info in pairs[0]["before"]["metrics"].items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        out[name] = {
            "unit": info["unit"],
            **{side: {**quartiles(values[side]), "values": values[side]} for side in SIDES},
            "pairs_after_lower": sum(a < b for b, a in zip(values["before"], values["after"])),
            "pairs": len(pairs),
            "better": better.get(name),
            "gain": gain_holds(values["before"], values["after"], better[name]) if name in better else None,
            "regressed": regressed(values["before"], values["after"], better[name]) if name in better else None,
        }
    out["ops"] = {
        side: {
            "attempted": [p[side]["attempted"] for p in pairs],
            "failed": sum(p[side]["failed"] for p in pairs),
        }
        for side in SIDES
    }
    return out


def medians_line(workload: str, name: str, m: dict) -> str:
    """One metric's medians and pair count from paired_summary, and the gain rule's verdict if it has one."""
    verdict = {True: "; gain rule holds", False: "; gain rule fails", None: ""}[m["gain"]]
    return (
        f"{workload} {name}: median {m['before']['median']:.6g} -> {m['after']['median']:.6g} {m['unit']}"
        f" (parent quartiles {m['before']['q1']:.6g}-{m['before']['q3']:.6g});"
        f" after lower in {m['pairs_after_lower']}/{m['pairs']} pairs{verdict}"
    )


def regressions_line(end_to_end: dict) -> str:
    """'regressed: ' and every "<workload> <metric>" that regressed; end_to_end maps each workload to its paired_summary."""
    worse = [f"{wl} {name}" for wl, metrics in end_to_end.items() for name, m in metrics.items()
             if name != "ops" and m["regressed"]]
    return "regressed: " + (", ".join(worse) if worse else "none")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    p.add_argument("--out", required=True, help="summary JSON path, e.g. BENCH_rows.json")
    p.add_argument("--change", required=True, help="one line describing the change")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in benchmark["workloads"]], benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark.get("end_to_end", [])}
    signal.signal(signal.SIGTERM, _raise_exit)  # so the parent's tree is removed on kill too

    keep = ROOT / ".bench_out" / "pairs"
    keep.mkdir(parents=True, exist_ok=True)
    parent = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent], capture_output=True, text=True, check=True
    ).stdout.strip()
    pairs = {wl: [] for wl in workloads}
    checks = {wl: [] for wl in workloads}
    environment = None
    with exported_tree(parent) as before_tree, copied_checkout() as after_tree:
        trees = {"before": before_tree, "after": after_tree}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for wl in workloads:
                pair, files = {}, {}
                for side in order:
                    run = run_once(trees[side], wl, seed, seconds)
                    files[side] = keep / f"{side}-{wl}-seed{seed}.json"
                    shutil.copyfile(run["result_file"], files[side])
                    pair[side] = run["summary"]
                    if environment is None:
                        environment = json.loads(files[side].read_text())["environment"]
                    value = run["summary"]["metrics"]["op_s.mean_norm"]["value"]
                    print(f"seed {seed} {wl} {side}: op_s.mean_norm {value:.6g} s", flush=True)
                pairs[wl].append(pair)
                checks[wl].append({"seed": seed, **compare_runs(files["before"], files["after"])})

    summary = {
        "change": args.change,
        "before": parent,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "seeds": seeds,
        "pairing": "one before run and one after run per seed and workload, run back to back, "
        "one process at a time; before ran first on odd seeds, after on even seeds; "
        "each side ran in a fresh temporary copy of its files",
        "environment": environment,
        "end_to_end": {wl: paired_summary(pairs[wl], better) for wl in workloads},
        "compare": checks,
    }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    for wl, metrics in summary["end_to_end"].items():
        for name, m in metrics.items():
            if name != "ops":
                print(medians_line(wl, name, m))
    print(regressions_line(summary["end_to_end"]))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
