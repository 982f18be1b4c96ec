"""Multi-trial experiment runner: simulation sweeps and repeated real-data splits.

Emits a long-format CSV (setting, n, trial, method, metric, value,
status) plus a summary CSV with per-cell means and standard errors.
Status is ok, not_converged (a PU-OMM fit that stopped at max_iter, or
whose projected-gradient line search found no admissible step, or a
two-part fit flagged not_converged; its metrics are written but left out
of the summary) or failed.
Every output byte is a deterministic function of the configuration.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .baselines import fit_observed_mixture, fit_oracle
from .dataio import from_json_object, ingest_csv, reject_unknown_keys, write_csv_rows
from .optimizer import FitConfig
from .selection import LambdaGrid, fit_at_lambda, fit_pu_omm, make_lambda_grid
from .metrics import evaluate_trial
from .model import is_real_in, store_integer_fields
from .simulate import SimConfig, make_datasets

# Every metric a cell reports; one that evaluate_trial leaves as None (the
# coefficient errors, without a truth to compare against) is not written.
METRICS = ("rmse_beta", "rmse_theta", "brier", "misclassification", "mad", "rmse_pred", "smape")

LONG_COLUMNS = ("setting", "n", "trial", "method", "metric", "value", "status")
SUMMARY_COLUMNS = ("setting", "n", "method", "metric", "mean", "se", "n_trials")

# The config keys that only one mode reads; a config of the other mode that sets one is an error.
_MODE_KEYS = {"simulation": ("settings", "n_values"), "real_data": ("input_csv", "split_fraction", "true_lambda")}

# Tag for the train/test partition substream, so real-data partitions never
# share draws with anything else derived from the trial seed.
_PARTITION_TAG = 90


def _pu_omm_true_lambda(train, grid, fit_cfg, true_lambda):
    if true_lambda is None:
        raise ValueError("no true detection rate available for this cell")
    return fit_at_lambda(train, true_lambda, fit_cfg)


# Every method the CLI and the experiment harness fit, as
# method(train, grid, fit_cfg, true_lambda) -> model, where grid is the
# LambdaGrid that pu_omm selects over and fit_cfg the FitConfig of every
# PU-OMM fit.  Only the LATENT_METHODS get the latent columns; every other
# method gets observed data (the CLI reads it under the observed-only schema,
# and each experiment cell passes one observed_only() Dataset of its training
# set to all of them, so their fits share the work that depends only on that
# Dataset).  The fitters are looked up as module globals at call time, so
# replacing experiment.fit_pu_omm replaces what the registry calls.
METHODS = {
    "oracle": lambda train, grid, fit_cfg, true_lambda: fit_oracle(train),
    "pu_omm": lambda train, grid, fit_cfg, true_lambda: fit_pu_omm(train, grid, fit_cfg),
    "pu_omm_true_lambda": _pu_omm_true_lambda,
    "logistic_gamma": lambda train, grid, fit_cfg, true_lambda: fit_observed_mixture(train, "gamma"),
    "logistic_lognormal": lambda train, grid, fit_cfg, true_lambda: fit_observed_mixture(train, "lognormal"),
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
    grid: LambdaGrid = field(default_factory=make_lambda_grid)
    fit: FitConfig = field(default_factory=FitConfig)
    add_intercept: bool | None = None  # default: on for real data, off for simulations

    def __post_init__(self):
        if self.mode not in ("simulation", "real_data"):
            raise ValueError(f"unknown mode {self.mode!r}")
        store_integer_fields(self, ("trials", "base_seed"))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.true_lambda is not None and not is_real_in(self.true_lambda, 0, math.inf):
            raise ValueError(f"true_lambda must be a finite positive real, got {self.true_lambda!r}")
        if not self.methods:
            raise ValueError(f"methods must name at least one of {tuple(METHODS)}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {tuple(METHODS)}")
        _reject_duplicates("methods", self.methods)
        if self.mode == "simulation":
            if not self.settings or not self.n_values:
                raise ValueError("simulation mode needs settings and n_values")
            if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1 for n in self.n_values):
                raise ValueError(f"n_values must be integers >= 1, got {self.n_values}")
            _reject_duplicates("settings", [s.setting.value for s in self.settings])
            _reject_duplicates("n_values", self.n_values)
        else:
            if self.input_csv is None:
                raise ValueError("real_data mode needs input_csv")
            if not is_real_in(self.split_fraction, 0, 1):
                raise ValueError(f"split_fraction must lie in (0, 1), got {self.split_fraction!r}")
            latent = [m for m in self.methods if m in LATENT_METHODS]
            if latent:
                raise ValueError(f"the {latent[0]} method requires simulation mode (latent labels)")
        if self.add_intercept is None:
            self.add_intercept = self.mode == "real_data"

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from parsed JSON; an unknown key at any level raises ValueError.

        So does a key that only the other mode reads (_MODE_KEYS), a
        config, grid, fit or settings entry that is not a JSON object, or
        methods, settings or n_values that is not an array.  The grid
        object is make_lambda_grid's arguments {size, lo, hi}, and the fit
        object FitConfig's fields {radius, max_iter, tol}; an error in
        either names "grid" or "fit" and the key.
        """
        reject_unknown_keys(d, [f.name for f in fields(cls)], "the experiment config")
        for key in ("methods", "settings", "n_values"):
            if key in d and not isinstance(d[key], list):
                raise ValueError(f"{key} must be a JSON array, got {d[key]!r}")
        d = dict(d)
        if "grid" in d:
            d["grid"] = from_json_object(make_lambda_grid, d["grid"], ("size", "lo", "hi"), "grid")
        if "fit" in d:
            d["fit"] = from_json_object(FitConfig, d["fit"], [f.name for f in fields(FitConfig)], "fit")
        if d.get("mode") == "simulation":
            sim_keys = [f.name for f in fields(SimConfig)]
            d["settings"] = [
                from_json_object(SimConfig, s, sim_keys, f"settings[{i}]", n=1)  # n_values supplies n
                for i, s in enumerate(d.get("settings", []))
            ]
        cfg = cls(**d)
        other = "real_data" if cfg.mode == "simulation" else "simulation"
        ignored = [key for key in _MODE_KEYS[other] if key in d]
        if ignored:
            raise ValueError(f"keys {ignored} are read only in {other} mode, not in a {cfg.mode} config")
        return cfg


def _fit_methods(cfg, train, true_lambda) -> dict:
    """Each configured method's model on train, or the status of its failed fit.

    Every method outside LATENT_METHODS gets one train.observed_only()
    Dataset, so their fits share the work that depends only on it (the
    row split, the logistic stage).  That work goes with it when this
    returns, before the test set is scored.
    """
    observed = train.observed_only()
    fitted = {}
    for method in cfg.methods:
        try:
            data = train if method in LATENT_METHODS else observed
            fitted[method] = METHODS[method](data, cfg.grid, cfg.fit, true_lambda)
        except Exception as exc:  # record and continue: one bad fit must not kill the sweep
            fitted[method] = f"failed: {exc}"
    return fitted


def _cell_rows(cfg, setting_label, n, trial, train, test, truth, true_lambda, mode):
    rows = []
    for method, model in _fit_methods(cfg, train, true_lambda).items():
        if isinstance(model, str):
            rows.append((setting_label, n, trial, method, "all", "", model))
            continue
        try:
            report = evaluate_trial(method, model, test, truth=truth, trial_id=trial, mode=mode)
            # a fit that did not converge is reported but kept out of the summary means
            status = "ok" if model.converged else "not_converged"
            for metric in METRICS:
                value = getattr(report, metric)
                if value is None:
                    continue
                rows.append((setting_label, n, trial, method, metric, float(value), status))
        except Exception as exc:  # record and continue: one bad evaluation must not kill the sweep
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
        rng = np.random.default_rng(np.random.SeedSequence([cfg.base_seed + trial, _PARTITION_TAG]))
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


def run_experiment(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Run every (setting, n, trial, method) cell and write long + summary CSVs."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _simulation_rows(cfg) if cfg.mode == "simulation" else _real_data_rows(cfg)
    long_path = out_dir / "results_long.csv"
    summary_path = out_dir / "results_summary.csv"
    write_csv_rows(long_path, LONG_COLUMNS, rows)
    write_csv_rows(summary_path, SUMMARY_COLUMNS, summarize(rows))
    return long_path, summary_path
