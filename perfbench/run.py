#!/usr/bin/env python3
"""Run one benchmark workload against the puomm sources of this checkout.

    python3 perfbench/run.py --workload experiment_sweep --seed 1 --seconds 50 --trace 0

The workload's inputs are made from --seed.  Ops run back to back in this
one process (a closed loop with one client) until --seconds have passed
and the workload's minimum number of ops has run; each op's output is
checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
With --trace 1 ops alternate between untraced and traced, the tracer
wraps each layer's public functions, and the metrics are the per-layer
ones.  Per-op records (estimates, counts, timings) go to
.bench_out/<workload>-seed<seed>-trace<trace>.json for compare.py; a
traced run also writes its spans to .bench_out/<workload>-seed<seed>.spans.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1

# Set-up is repeated and its median reported, so one slow import does not decide setup_s.
SETUP_REPEATS = 5

IMPORT_PROBE = "import time; t = time.perf_counter(); import puomm; print(time.perf_counter() - t)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.mean_norm": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "beta_err": "l2",
    "theta_err": "l2",
    "test_brier": "ratio",
}
# Printed and stored, not reported: fail_frac is 0 on a healthy commit, and
# op_s.p50 follows the shared host's speed as much as the code's.
UNREPORTED = ("op_s.p50", "fail_frac")

# Counters are taken from the first traced op, so two traced runs at one seed
# report identical values; times are medians over the traced ops.
LAYER_COUNTS = {
    "model.loss.calls": "count",
    "model.loss_grad.calls": "count",
    "model.objective.gb_computed": "GB",
    "optimizer.fit.calls": "count",
    "optimizer.fit.iterations": "count",
    "optimizer.fit.extra_loss_calls": "count",
    "optimizer.fit.not_converged": "count",
    "selection.grid_points": "count",
    "selection.grid_failed": "count",
    "selection.iters_per_point.max": "count",
    "dataio.write_dataset_csv.rows": "count",
    "dataio.write.mb": "MB",
    "dataio.ingest_csv.rows": "count",
    "dataio.read.mb": "MB",
    "experiment.cells": "count",
    "experiment.cells_failed": "count",
}
LAYER_TIMES = (
    "model.objective.s",
    "optimizer.self_s",
    "selection.self_s",
    "dataio.self_s",
    "dataio.write_dataset_csv.s",
    "dataio.ingest_csv.s",
    "simulate.self_s",
    "simulate.make_datasets.s",
    "baselines.self_s",
    "baselines.fit_oracle.s",
    "baselines.fit_observed_mixture.s",
    "metrics.self_s",
    "metrics.evaluate_trial.s",
    "cli.self_s",
    "cli.simulate.s",
    "cli.fit.s",
    "cli.evaluate.s",
    "experiment.self_s",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny inputs, for the benchmark's self-test")
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread; must run before numpy loads.

    The package's matrices are n x 10, too thin for threaded BLAS to pay (a
    kernel like its objective ran no faster on two threads than on one), and
    one thread keeps the load on one of the host's CPUs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_puomm() -> float:
    """Import the package from this checkout's src/ and return the seconds it took."""
    if not (SRC / "puomm" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'puomm'} not found; run from the root of a puomm checkout")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import puomm

    dt = time.perf_counter() - t
    if Path(puomm.__file__).resolve().parent != SRC / "puomm":
        sys.exit(f"error: imported puomm from {puomm.__file__}, not from {SRC}")
    return dt


def fresh_import_seconds() -> float:
    """Import time of puomm in a new interpreter, as a user of the package pays it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class HostProbe:
    """Times a fixed numpy kernel while ops run, to track the shared host's speed.

    On a shared host, other tenants can slow ops by a third, in spells of
    seconds to minutes, and a 50-s run cannot average that out.  The kernel (thin
    matrix-vector products and elementwise logs on a 5000 x 10 array, like
    the package's objective) runs once before each op and then every PERIOD
    seconds inside it, from a SIGALRM handler.  Each op's time, less the
    kernel's own time, scaled by REF_S over the kernel's mean time during
    that op, is the op's time at reference host speed.
    """

    PERIOD = 0.25
    REF_S = 0.00375  # the kernel's usual time on the host in perfbench/README.md

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x, self.w = rng.standard_normal((5000, 10)), rng.standard_normal(10)
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def kernel_seconds(self) -> float:
        import numpy as np

        t = time.perf_counter()
        for _ in range(40):
            z = self.x @ self.w
            np.log1p(np.exp(-np.abs(z))).sum()
            self.x.T @ (0.5 * z)
        return time.perf_counter() - t

    def _sample(self, signum, frame):
        self.samples.append(self.kernel_seconds())

    def start(self) -> None:
        self.samples = [self.kernel_seconds()]
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self) -> list[float]:
        """Stop sampling; the first sample was taken before the op started."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples

    @classmethod
    def normalised(cls, seconds: float, samples: list[float]) -> float:
        return (seconds - sum(samples[1:])) * cls.REF_S / statistics.fmean(samples)


def run_ops(wl, seconds: float, tracer, probe, min_ops: int) -> list[dict]:
    """Closed loop: ops back to back until the time is up and min_ops have run.

    In a traced run, ops 2i and 2i+1 use the same input, one untraced and one
    traced, in the order untraced-traced, traced-untraced, ... so that warm-up
    of the first op does not land on one side only.  A traced run has no
    probe, whose signals would land inside the tracer's spans.
    """
    from workloads import CheckFailed

    records = []
    deadline = time.perf_counter() + seconds
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and op % 2 != (op // 2) % 2
        k = wl.input_for(op // 2 if tracer is not None else op)
        wl.tracer = tracer if traced else None
        if traced:
            tracer.op = op
            tracer.install()
        failure, res = None, None
        if probe:
            probe.start()
        t = time.perf_counter()
        try:
            res = wl.op(k)
        except CheckFailed as exc:
            failure = f"check failed: {exc}"
        except Exception as exc:  # an op that raises is counted as failed; the run goes on
            failure = f"{type(exc).__name__}: {exc}"
        samples = probe.stop() if probe else []  # before the clock stops: no sample lands outside the op
        dt = time.perf_counter() - t
        if traced:
            tracer.uninstall()
            tracer.op = -1
        records.append({
            "op": op,
            "input": k,
            "traced": traced,
            "seconds": dt,
            "probe": samples,
            "failure": failure,
            "estimates": res.estimates if res else {},
            "counts": res.counts if res else {},
            "errors": {
                "beta_err": res.beta_err, "theta_err": res.theta_err, "test_brier": res.test_brier,
            } if res else {},
        })
        op += 1
    return records


def end_to_end_metrics(records, setup_samples, peak_rss_mb, scored_inputs) -> dict[str, float]:
    ok = [r for r in records if r["failure"] is None]
    times = [r["seconds"] for r in (ok or records)]
    out = {
        "setup_s": statistics.median(setup_samples),
        "op_s.p50": statistics.median(times),
        # The mean weighs every config's cost alike; host spells, which a
        # median would have to ride out, are taken out by the probe.
        "op_s.mean_norm": statistics.fmean(
            HostProbe.normalised(r["seconds"], r["probe"]) for r in (ok or records) if r["probe"]
        ) if any(r["probe"] for r in records) else float("nan"),
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": (len(records) - len(ok)) / len(records),
    }
    # The first successful op of each scored input: these metrics then depend
    # on the seed only, not on how many ops the run made.
    first = {}
    for r in ok:
        if r["input"] < scored_inputs:
            first.setdefault(r["input"], r["errors"])
    for name in ("beta_err", "theta_err", "test_brier"):
        values = [v for errs in first.values() for v in errs[name]]
        out[name] = statistics.fmean(values) if values else float("nan")
    return out


def layer_metrics(records, tracer, import_s: float) -> dict[str, float]:
    traced = [r for r in records if r["traced"]]
    summaries = [tracer.op_summary(r["op"]) for r in traced]
    first = summaries[0] if summaries else {}
    out = {name: first.get(name, 0.0) for name in LAYER_COUNTS}
    out["optimizer.fit.extra_loss_calls"] = first.get("model.loss.calls", 0.0) - first.get(
        "optimizer.fit.iterations", 0.0
    )
    for name in LAYER_TIMES:
        out[name] = statistics.median(s.get(name, 0.0) for s in summaries) if summaries else 0.0
    out["import.s"] = import_s
    untraced = [r["seconds"] for r in records if not r["traced"]]
    out["trace_overhead_frac"] = (
        statistics.median(r["seconds"] for r in traced) / statistics.median(untraced) - 1.0
        if traced and untraced
        else 0.0
    )
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in LAYER_COUNTS:
        return LAYER_COUNTS[name]
    return "ratio" if name == "trace_overhead_frac" else "s"


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    import_s = import_puomm()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    scratch = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.small, scratch)

    tracer = Tracer() if args.trace else None
    setup_samples = []
    try:
        for _ in range(SETUP_REPEATS):
            t_import = fresh_import_seconds()
            t = time.perf_counter()
            wl.setup()
            setup_samples.append(t_import + time.perf_counter() - t)

        min_ops = 2 if args.trace else wl.min_ops
        records = run_ops(wl, args.seconds, tracer, None if args.trace else HostProbe(), min_ops)
    finally:
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = end_to_end_metrics(records, setup_samples, peak_rss_mb, wl.scored_inputs)
    failed = sum(1 for r in records if r["failure"] is not None)
    if args.trace:
        metrics = layer_metrics(records, tracer, import_s)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = {k: v for k, v in e2e.items() if k not in UNREPORTED}

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "small": args.small,
            "environment": environment(blas_threads),
            "import_s": import_s,
            "setup_samples": setup_samples,
            "end_to_end": e2e,
            "layers": metrics if args.trace else None,
            "ops": records,
        }, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  failed {failed}  results {result_path.relative_to(ROOT)}")
    for r in records:
        if r["failure"]:
            print(f"  op {r['op']} (input {r['input']}) failed: {r['failure']}")
    for name, value in e2e.items():
        extra = f"  (n={len(records) - failed} ops)" if name.startswith("op_s") else ""
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}{extra}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<34} {value:.6g} {unit_of(name)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
