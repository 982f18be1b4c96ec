"""The benchmark's workloads: inputs made from a seed, one timed op, its checks.

Every call into puomm goes through a module attribute (``selection.fit_pu_omm``,
``cli.main``, ...), so the tracer's wrappers see the benchmark's own calls too.

Sizes differ from the package's defaults on purpose (README.md gives the
measurements).  Projected gradient descent needs several hundred to
several thousand iterations per detection rate, and that count varies
by a factor of two or more between datasets drawn with the default
coefficient scale 9/p.  A run lasts tens of seconds and is repeated on
many seeds, so the solver workload uses coefficient variance 0.02,
n=5000 and a two-point detection-rate grid around the true rate, and
both workloads spread their ops over many seeded inputs, so that the
mean op time averages over datasets.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from puomm import cli, experiment, metrics, selection, simulate

P = 10
LAMBDA_TRUE = 0.24
PARAM_SCALE = 0.02


class CheckFailed(Exception):
    """An op ran but its output failed one of the benchmark's checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class OpResult:
    """What one op produced: estimates to compare across commits and error metrics."""

    estimates: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    beta_err: list[float] = field(default_factory=list)
    theta_err: list[float] = field(default_factory=list)
    test_brier: list[float] = field(default_factory=list)


class CliIO:
    """The simulate -> fit -> evaluate CLI pipeline, run in-process in a scratch directory.

    Op k simulates with its own seed, so the error metrics average over
    several datasets; the I/O work is the same for every k.
    """

    name = "cli_io"
    methods = ("oracle", "logistic_gamma")

    def __init__(self, seed: int, small: bool, scratch: Path):
        self.seed = seed
        self.n = 500 if small else 10000
        self.n_test = 1000 if small else 50000
        self.inputs = self.scored_inputs = self.min_ops = 1 if small else 12
        self.scratch = scratch
        self.tracer = None  # set by the runner for traced ops

    def input_for(self, i: int) -> int:
        """The i-th op goes round the pool of inputs."""
        return i % self.inputs

    def setup(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)

    def _main(self, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        check(rc == 0, f"puomm {argv[0]} exited {rc}: {err.getvalue().strip()}")

    def op(self, k: int) -> OpResult:
        d = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            return self._pipeline(d, self.seed * 1000 + k)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    def _pipeline(self, d: Path, seed: int) -> OpResult:
        self._main([
            "simulate", "--setting", "correct", "--n", str(self.n), "--p", str(P),
            "--n-test", str(self.n_test), "--lambda-eps", str(LAMBDA_TRUE),
            "--seed", str(seed), "--out", str(d),
        ])
        res = OpResult()
        for method in self.methods:
            self._main(["fit", "--data", str(d / "train.csv"), "--method", method,
                        "--out", str(d / f"{method}.json")])
        for method in self.methods:
            self._main(["evaluate", "--model", str(d / f"{method}.json"), "--data", str(d / "test.csv"),
                        "--truth", str(d / "meta.json"), "--mode", "simulation",
                        "--out", str(d / f"{method}_metrics.csv")])

            with open(d / f"{method}.json") as fh:
                model = json.load(fh)
            check(model.get("kind") == "two_part" and model.get("method") == method,
                  f"{method}.json has the wrong kind or method")
            for key in ("occurrence_coef", "magnitude_coef"):
                check(len(model[key]) == P and all(np.isfinite(model[key])), f"{method}.json {key} is malformed")
                res.estimates.update({f"{method}.{key}[{j}]": float(v) for j, v in enumerate(model[key])})

            with open(d / f"{method}_metrics.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            check(tuple(rows[0]) == metrics.CSV_COLUMNS and len(rows) == 2,
                  f"{method}_metrics.csv does not have the header and one row")
            row = dict(zip(rows[0], rows[1]))
            check(row["method"] == method and int(row["n_eval"]) == self.n_test,
                  f"{method}_metrics.csv scored the wrong method or row count")
            res.beta_err.append(float(row["rmse_beta"]))
            res.theta_err.append(float(row["rmse_theta"]))
            res.test_brier.append(float(row["brier"]))
        return res

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class ExperimentSweep:
    """run_experiment on a correct and a misspecified setting, grid selection included.

    Configs differ only in base_seed.  The second op repeats the first op's
    config and checks that its results file is byte-identical; every later
    op takes a fresh config, so the mean op time averages over as many
    datasets as the run has time for.  The error metrics come from the first
    scored_inputs configs, which every run makes.  Each grid-selected model
    is also checked as it leaves fit_pu_omm.
    """

    name = "experiment_sweep"
    methods = ("oracle", "pu_omm", "pu_omm_true_lambda", "logistic_gamma", "logistic_lognormal")
    # Two grid points bracket the true rate, which pu_omm_true_lambda fits already.
    grid = {"size": 2, "lo": LAMBDA_TRUE / 2, "hi": LAMBDA_TRUE * 2}

    def __init__(self, seed: int, small: bool, scratch: Path):
        self.seed = seed
        self.n = 5000  # PGD at small n can exhaust max_iter, so the self-test keeps this size
        self.n_test = 1000 if small else 20000
        self.trials = 1
        self.scored_inputs = 1 if small else 10
        self.min_ops = self.scored_inputs + 1
        self.scratch = scratch
        self.tracer = None  # set by the runner for traced ops
        self.digests = {}
        grid = selection.make_lambda_grid(self.grid["size"], self.grid["lo"], self.grid["hi"])
        self.grid_values = [float(v) for v in grid.values]
        self.radius = selection.default_radius(P)

    def input_for(self, i: int) -> int:
        """Op 1 repeats op 0's config; op i > 1 takes config i - 1."""
        return max(i - 1, 0)

    def setup(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        setting = {"p": P, "lambda_eps_true": LAMBDA_TRUE, "n_test": self.n_test, "param_scale": PARAM_SCALE}
        self.config = {
            "mode": "simulation",
            "methods": list(self.methods),
            "settings": [dict(setting, setting="correct"), dict(setting, setting="lognormal")],
            "n_values": [self.n],
            "trials": self.trials,
            "grid": self.grid,
        }

    def op(self, k: int) -> OpResult:
        selected = []
        inner = experiment.fit_pu_omm  # the tracer's wrapper in a traced op

        def fit_pu_omm(*args, **kwargs):
            model = inner(*args, **kwargs)
            selected.append(model)
            return model

        d = Path(tempfile.mkdtemp(dir=self.scratch))
        experiment.fit_pu_omm = fit_pu_omm
        try:
            cfg = experiment.ExperimentConfig.from_dict(
                dict(self.config, base_seed=self.seed * 1000 + 100 * k, output_dir=str(d))
            )
            long_path, _ = experiment.run_experiment(cfg)
            raw = long_path.read_bytes()
        finally:
            experiment.fit_pu_omm = inner
            shutil.rmtree(d, ignore_errors=True)

        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        cells = {(r["setting"], r["trial"], r["method"]) for r in rows}
        failed = {(r["setting"], r["trial"], r["method"]) for r in rows if r["status"] != "ok"}
        if self.tracer:
            self.tracer.count("experiment.cells", len(cells))
            self.tracer.count("experiment.cells_failed", len(failed))
        expected = 2 * self.trials * len(self.methods)
        check(len(cells) == expected, f"results_long.csv has {len(cells)} cells, expected {expected}")
        check(not failed, f"cells not ok: {sorted(failed)}")
        digest = hashlib.sha256(raw).hexdigest()
        check(self.digests.setdefault(k, digest) == digest, "results_long.csv differs from an earlier op's on the same config")

        check(len(selected) == 2 * self.trials, f"{len(selected)} grid fits, expected {2 * self.trials}")
        res = OpResult(counts={"cells": len(cells)})
        for i, model in enumerate(selected):
            briers = [b for _, b in model.selection_scores]
            check(model.lambda_hat in self.grid_values, f"lambda_hat {model.lambda_hat} is not a grid value")
            check(len(briers) == len(self.grid_values) and all(np.isfinite(briers)), "a grid Brier score is not finite")
            check(model.fit.converged, "the selected fit did not converge")
            check(model.omega_hat.norm() <= self.radius * (1 + 1e-12), "the estimate lies outside the ball")
            res.counts[f"pu_omm[{i}].iterations"] = model.fit.iterations
            res.estimates[f"pu_omm[{i}].lambda_hat"] = model.lambda_hat
            res.estimates.update({f"pu_omm[{i}].beta[{j}]": float(v) for j, v in enumerate(model.beta)})
            res.estimates.update({f"pu_omm[{i}].theta[{j}]": float(v) for j, v in enumerate(model.theta)})
        errors = {"rmse_beta": res.beta_err, "rmse_theta": res.theta_err, "brier": res.test_brier}
        for r in rows:
            value = float(r["value"])
            res.estimates[f"{r['setting']}/{r['trial']}/{r['method']}/{r['metric']}"] = value
            if r["metric"] in errors:
                errors[r["metric"]].append(value)
        return res

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {w.name: w for w in (CliIO, ExperimentSweep)}
