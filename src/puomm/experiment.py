"""Multi-trial experiment runner: simulation sweeps and repeated real-data splits.

Emits a long-format CSV (setting, n, trial, method, metric, value,
status) plus a summary CSV with per-cell means and standard errors.
Status is ok, not_converged (a fit stopped by max_iter; its metrics are
written but left out of the summary) or failed.
Every output byte is a deterministic function of the configuration.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import fit_observed_mixture, fit_oracle
from .dataio import ingest_csv, reject_unknown_keys, sim_config_from_dict
from .optimizer import FitConfig
from .selection import (
    DEFAULT_GRID_HI,
    DEFAULT_GRID_LO,
    DEFAULT_GRID_SIZE,
    PuOmmModel,
    default_radius,
    fit_at_lambda,
    fit_pu_omm,
    make_lambda_grid,
)
from .metrics import evaluate_trial
from .simulate import SimConfig, make_datasets

SIM_METRICS = ("rmse_beta", "rmse_theta", "brier", "misclassification", "mad", "rmse_pred", "smape")
REAL_METRICS = ("brier", "misclassification", "mad", "rmse_pred", "smape")

LONG_COLUMNS = ("setting", "n", "trial", "method", "metric", "value", "status")
SUMMARY_COLUMNS = ("setting", "n", "method", "metric", "mean", "se", "n_trials")

# Tag for the split substream so real-data partitions never share draws
# with anything else derived from the trial seed.
_SPLIT_TAG = 90


def _fit_config(opts, p: int) -> FitConfig:
    """Solver settings from opts' tol, max_iter and radius; no radius means default_radius(p)."""
    radius = opts.radius if opts.radius is not None else default_radius(p)
    return FitConfig(radius=radius, tol=opts.tol, max_iter=opts.max_iter)


def _pu_omm(train, opts, true_lambda):
    grid = make_lambda_grid(opts.grid_size, opts.grid_lo, opts.grid_hi)
    return fit_pu_omm(train.observed_only(), grid, _fit_config(opts, train.p))


def _pu_omm_true_lambda(train, opts, true_lambda):
    if true_lambda is None:
        raise ValueError("no true detection rate available for this cell")
    return fit_at_lambda(train.observed_only(), true_lambda, _fit_config(opts, train.p))


# Every method the CLI and the experiment harness fit, as
# method(train, opts, true_lambda) -> model.  train may carry latent columns;
# only the LATENT_METHODS read them.  opts is anything with grid_size, grid_lo,
# grid_hi, tol, max_iter and radius attributes (an ExperimentConfig or the
# CLI's arguments).  The fitters are looked up as module globals at call
# time, so replacing experiment.fit_pu_omm replaces what the registry calls.
METHODS = {
    "oracle": lambda train, opts, true_lambda: fit_oracle(train),
    "pu_omm": _pu_omm,
    "pu_omm_true_lambda": _pu_omm_true_lambda,
    "logistic_gamma": lambda train, opts, true_lambda: fit_observed_mixture(train.observed_only(), "gamma"),
    "logistic_lognormal": lambda train, opts, true_lambda: fit_observed_mixture(train.observed_only(), "lognormal"),
}
# The methods that read the latent columns y, u, r, so fit only simulated data.
LATENT_METHODS = frozenset({"oracle"})


def _reject_duplicates(name: str, values: list) -> None:
    """ValueError naming the first two equal entries of values, the config list called name.

    The summary pools rows by setting label, n and method, so a repeated
    entry would count one trial's rows twice.
    """
    first = {}
    for i, value in enumerate(values):
        j = first.setdefault(value, i)
        if j != i:
            raise ValueError(f"{name}[{j}] and {name}[{i}] are both {value!r}; each may appear once")


@dataclass
class ExperimentConfig:
    mode: str  # "simulation" | "real_data"
    methods: list[str]
    trials: int
    base_seed: int
    output_dir: str
    settings: list[SimConfig] = field(default_factory=list)
    n_values: list[int] = field(default_factory=list)
    input_csv: str | None = None
    split_fraction: float = 0.9
    true_lambda: float | None = None
    grid_size: int = DEFAULT_GRID_SIZE
    grid_lo: float = DEFAULT_GRID_LO
    grid_hi: float = DEFAULT_GRID_HI
    tol: float = FitConfig.tol
    max_iter: int = FitConfig.max_iter
    radius: float | None = None
    add_intercept: bool | None = None  # default: on for real data, off for simulations

    def __post_init__(self):
        if self.mode not in ("simulation", "real_data"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {tuple(METHODS)}")
        _reject_duplicates("methods", self.methods)
        if self.mode == "simulation":
            if not self.settings or not self.n_values:
                raise ValueError("simulation mode needs settings and n_values")
            if not all(isinstance(n, numbers.Integral) and n >= 1 for n in self.n_values):
                raise ValueError(f"n_values must be integers >= 1, got {self.n_values}")
            _reject_duplicates("settings", [s.setting.value for s in self.settings])
            _reject_duplicates("n_values", self.n_values)
        else:
            if self.input_csv is None:
                raise ValueError("real_data mode needs input_csv")
            if not 0 < self.split_fraction < 1:
                raise ValueError("split_fraction must lie in (0, 1)")
            latent = [m for m in self.methods if m in LATENT_METHODS]
            if latent:
                raise ValueError(f"the {latent[0]} method requires simulation mode (latent labels)")
        if self.add_intercept is None:
            self.add_intercept = self.mode == "real_data"

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from parsed JSON; an unknown key at any level raises ValueError.

        Nested grid {size, lo, hi} and fit {tol, max_iter, radius} fill the fields no top-level key sets.
        """
        d = dict(d)
        grid = d.pop("grid", None) or {}
        fit_opts = d.pop("fit", None) or {}
        reject_unknown_keys(d, [f.name for f in fields(cls)], "the experiment config")
        reject_unknown_keys(grid, ("size", "lo", "hi"), "grid")
        reject_unknown_keys(fit_opts, ("tol", "max_iter", "radius"), "fit")
        for key, value in grid.items():
            d.setdefault(f"grid_{key}", value)
        for key, value in fit_opts.items():
            d.setdefault(key, value)
        if d.get("mode") == "simulation":
            settings = d.get("settings", [])
            d["settings"] = [sim_config_from_dict(s, f"settings[{i}]") for i, s in enumerate(settings)]
        return cls(**d)


def _cell_rows(cfg, setting_label, n, trial, train, test, truth, true_lambda, mode):
    rows = []
    metric_names = SIM_METRICS if mode == "simulation" else REAL_METRICS
    for method in cfg.methods:
        try:
            model = METHODS[method](train, cfg, true_lambda)
            report = evaluate_trial({method: model}, test, truth=truth, trial_id=trial, mode=mode)[0]
            # a fit stopped by max_iter is reported but kept out of the summary means
            status = "not_converged" if isinstance(model, PuOmmModel) and not model.fit.converged else "ok"
            for metric in metric_names:
                value = getattr(report, metric)
                if value is None:
                    continue
                rows.append((setting_label, n, trial, method, metric, repr(float(value)), status))
        except Exception as exc:  # record and continue: one bad fit must not kill the sweep
            rows.append((setting_label, n, trial, method, "all", "", f"failed: {exc}"))
    return rows


def _simulation_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    for sim_cfg in cfg.settings:
        for n in cfg.n_values:
            for trial in range(cfg.trials):
                trial_cfg = replace(sim_cfg, n=n, seed=cfg.base_seed + trial)
                # the previous cell's sim stays alive until this call returns,
                # so back-to-back cells that need one design share it
                sim = make_datasets(trial_cfg)
                train, test = sim.train, sim.test
                if cfg.add_intercept:
                    train, test = train.with_intercept(), test.with_intercept()
                    truth = None  # intercept shifts dimensions away from the generating coefficients
                else:
                    truth = (sim.beta0, sim.theta0)
                true_lambda = (
                    None if trial_cfg.setting.value == "threshold" else trial_cfg.lambda_eps_true
                )
                rows.extend(
                    _cell_rows(
                        cfg, trial_cfg.setting.value, n, trial, train, test, truth, true_lambda, "simulation",
                    )
                )
    return rows


def _real_data_rows(cfg: ExperimentConfig) -> list[tuple]:
    data = ingest_csv(cfg.input_csv, schema="observed_only")
    if cfg.add_intercept:
        data = data.with_intercept()
    label = Path(cfg.input_csv).stem
    n_train = math.ceil(cfg.split_fraction * data.n)
    if n_train >= data.n:
        raise ValueError(f"split_fraction {cfg.split_fraction} leaves no test rows from n={data.n} samples")
    rows = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed + trial, _SPLIT_TAG]))
        perm = rng.permutation(data.n)
        train = data.subset(perm[:n_train])
        test = data.subset(perm[n_train:])
        rows.extend(
            _cell_rows(cfg, label, n_train, trial, train, test, None, cfg.true_lambda, "observed")
        )
    return rows


def summarize(rows: list[tuple]) -> list[tuple]:
    """Per-(setting, n, method, metric) mean and standard error sd/sqrt(B) over ok trials."""
    groups: dict[tuple, list[float]] = {}
    for setting, n, _trial, method, metric, value, status in rows:
        if status != "ok":
            continue
        groups.setdefault((setting, n, method, metric), []).append(float(value))
    out = []
    for key, values in groups.items():
        arr = np.asarray(values)
        mean = float(arr.mean())
        se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else None
        out.append((*key, mean, se, arr.size))
    return out


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else str(v)) for v in row])


def run_experiment(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Run every (setting, n, trial, method) cell and write long + summary CSVs."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _simulation_rows(cfg) if cfg.mode == "simulation" else _real_data_rows(cfg)
    long_path = out_dir / "results_long.csv"
    summary_path = out_dir / "results_summary.csv"
    _write_rows(long_path, LONG_COLUMNS, rows)
    _write_rows(summary_path, SUMMARY_COLUMNS, summarize(rows))
    return long_path, summary_path
