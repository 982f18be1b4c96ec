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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import fit_observed_mixture, fit_oracle
from .dataio import ingest_csv, sim_config_from_dict
from .model import Dataset
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
from .simulate import SimConfig, SimOutput, make_datasets

METHODS = ("oracle", "pu_omm", "pu_omm_true_lambda", "logistic_gamma", "logistic_lognormal")
SIM_METRICS = ("rmse_beta", "rmse_theta", "brier", "misclassification", "mad", "rmse_pred", "smape")
REAL_METRICS = ("brier", "misclassification", "mad", "rmse_pred", "smape")

LONG_COLUMNS = ("setting", "n", "trial", "method", "metric", "value", "status")
SUMMARY_COLUMNS = ("setting", "n", "method", "metric", "mean", "se", "n_trials")

# Tag for the split substream so real-data partitions never share draws
# with anything else derived from the trial seed.
_SPLIT_TAG = 90


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
    tol: float = 1e-8
    max_iter: int = 10000
    radius: float | None = None
    add_intercept: bool | None = None  # default: on for real data, off for simulations

    def __post_init__(self):
        if self.mode not in ("simulation", "real_data"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if self.mode == "simulation":
            if not self.settings or not self.n_values:
                raise ValueError("simulation mode needs settings and n_values")
        else:
            if self.input_csv is None:
                raise ValueError("real_data mode needs input_csv")
            if not 0 < self.split_fraction < 1:
                raise ValueError("split_fraction must lie in (0, 1)")
            if "oracle" in self.methods:
                raise ValueError("the oracle method requires simulation mode (latent labels)")
        if self.add_intercept is None:
            self.add_intercept = self.mode == "real_data"

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if d.get("mode") == "simulation":
            d["settings"] = [sim_config_from_dict(s) for s in d.get("settings", [])]
        grid = d.pop("grid", None)
        if grid:
            d.setdefault("grid_size", grid.get("size", DEFAULT_GRID_SIZE))
            d.setdefault("grid_lo", grid.get("lo", DEFAULT_GRID_LO))
            d.setdefault("grid_hi", grid.get("hi", DEFAULT_GRID_HI))
        fit_opts = d.pop("fit", None)
        if fit_opts:
            d.setdefault("tol", fit_opts.get("tol", 1e-8))
            d.setdefault("max_iter", fit_opts.get("max_iter", 10000))
            d.setdefault("radius", fit_opts.get("radius"))
        return cls(**d)


def _fit_config(cfg: ExperimentConfig, p: int) -> FitConfig:
    radius = cfg.radius if cfg.radius is not None else default_radius(p)
    return FitConfig(radius=radius, tol=cfg.tol, max_iter=cfg.max_iter)


def _fit_method(method: str, cfg: ExperimentConfig, sim, train: Dataset, true_lambda):
    observed = train.observed_only()
    if method == "oracle":
        return fit_oracle(sim)
    if method == "pu_omm":
        grid = make_lambda_grid(cfg.grid_size, cfg.grid_lo, cfg.grid_hi)
        return fit_pu_omm(observed, grid, _fit_config(cfg, train.p))
    if method == "pu_omm_true_lambda":
        if true_lambda is None:
            raise ValueError("no true detection rate available for this cell")
        return fit_at_lambda(observed, true_lambda, _fit_config(cfg, train.p))
    if method == "logistic_gamma":
        return fit_observed_mixture(observed, "gamma")
    if method == "logistic_lognormal":
        return fit_observed_mixture(observed, "lognormal")
    raise ValueError(f"unknown method {method!r}")


def _cell_rows(cfg, setting_label, n, trial, sim, train, test, truth, true_lambda, mode):
    rows = []
    metric_names = SIM_METRICS if mode == "simulation" else REAL_METRICS
    for method in cfg.methods:
        try:
            model = _fit_method(method, cfg, sim, train, true_lambda)
            report = evaluate_trial({method: model}, test, truth=truth, trial_id=trial, mode=mode)[0]
            values = report.as_dict()
            # a fit stopped by max_iter is reported but kept out of the summary means
            status = "not_converged" if isinstance(model, PuOmmModel) and not model.fit.converged else "ok"
            for metric in metric_names:
                if values[metric] is None:
                    continue
                rows.append(
                    (setting_label, n, trial, method, metric, repr(float(values[metric])), status)
                )
        except Exception as exc:  # record and continue: one bad fit must not kill the sweep
            rows.append((setting_label, n, trial, method, "all", "", f"failed: {exc}"))
    return rows


def _simulation_rows(cfg: ExperimentConfig) -> list[tuple]:
    rows = []
    for sim_cfg in cfg.settings:
        for n in cfg.n_values:
            for trial in range(cfg.trials):
                trial_cfg = SimConfig(
                    setting=sim_cfg.setting,
                    n=n,
                    p=sim_cfg.p,
                    lambda_eps_true=sim_cfg.lambda_eps_true,
                    tau=sim_cfg.tau,
                    rho=sim_cfg.rho,
                    param_scale=sim_cfg.param_scale,
                    seed=cfg.base_seed + trial,
                    n_test=sim_cfg.n_test,
                )
                sim = make_datasets(trial_cfg)
                train, test = sim.train, sim.test
                if cfg.add_intercept:
                    train, test = train.with_intercept(), test.with_intercept()
                    sim = SimOutput(
                        train=train, test=test, beta0=sim.beta0, theta0=sim.theta0, config=sim.config
                    )
                    truth = None  # intercept shifts dimensions away from the generating coefficients
                else:
                    truth = (sim.beta0, sim.theta0)
                true_lambda = (
                    None if trial_cfg.setting.value == "threshold" else trial_cfg.lambda_eps_true
                )
                rows.extend(
                    _cell_rows(
                        cfg, trial_cfg.setting.value, n, trial, sim, train, test, truth,
                        true_lambda, "simulation",
                    )
                )
    return rows


def _real_data_rows(cfg: ExperimentConfig) -> list[tuple]:
    data = ingest_csv(cfg.input_csv, schema="observed_only")
    if cfg.add_intercept:
        data = data.with_intercept()
    label = Path(cfg.input_csv).stem
    n_train = math.ceil(cfg.split_fraction * data.n)
    rows = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed + trial, _SPLIT_TAG]))
        perm = rng.permutation(data.n)
        train = data.subset(perm[:n_train])
        test = data.subset(perm[n_train:])
        rows.extend(
            _cell_rows(cfg, label, n_train, trial, None, train, test, None, cfg.true_lambda, "observed")
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
