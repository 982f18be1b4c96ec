"""Command-line front end.

Subcommands:
  simulate    write train/test CSVs, their table sidecars and a JSON sidecar
              for one setting
  fit         fit one method on a dataset CSV and write the model JSON
  evaluate    score a fitted model JSON against a dataset CSV
  experiment  run a multi-trial sweep described by a JSON config

Exit codes: 0 success, 1 runtime failure (JSON error object on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataio
from .experiment import LATENT_METHODS, METHODS, ExperimentConfig, run_experiment
from .metrics import evaluate_trial
from .optimizer import FitConfig
from .selection import make_lambda_grid
from .simulate import SimConfig, Setting, make_datasets


def _given(args, group: str) -> dict:
    """The options of group ("grid" or "fit") given on the command line, keyed by their names there."""
    prefix = f"{group}."
    return {key[len(prefix):]: value for key, value in vars(args).items() if key.startswith(prefix)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="puomm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # an option left out is absent from the namespace, so SimConfig supplies its default
    p_sim = sub.add_parser("simulate", help="generate one synthetic train/test pair",
                           argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--setting", choices=[s.value for s in Setting], default="correct")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int)
    p_sim.add_argument("--n-test", type=int)
    p_sim.add_argument("--lambda-eps", type=float, dest="lambda_eps_true", metavar="LAMBDA_EPS",
                       help="true detection rate")
    p_sim.add_argument("--tau", type=float, help="threshold-setting cutoff")
    p_sim.add_argument("--rho", type=float)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", required=True, help="output directory")

    # likewise make_lambda_grid and FitConfig, whose arguments are the dests "grid.<name>" and "fit.<name>"
    p_fit = sub.add_parser("fit", help="fit one method on a dataset CSV", argument_default=argparse.SUPPRESS)
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--method", choices=METHODS, required=True)
    p_fit.add_argument("--lambda-eps", type=float, default=None,
                       help="detection rate for pu_omm_true_lambda")
    p_fit.add_argument("--out", required=True, help="model JSON path")
    p_fit.add_argument("--grid-size", type=int, dest="grid.size")
    p_fit.add_argument("--grid-lo", type=float, dest="grid.lo")
    p_fit.add_argument("--grid-hi", type=float, dest="grid.hi")
    p_fit.add_argument("--radius", type=float, dest="fit.radius", help="search-ball radius (default 5*sqrt(p))")
    p_fit.add_argument("--tol", type=float, dest="fit.tol")
    p_fit.add_argument("--max-iter", type=int, dest="fit.max_iter")
    p_fit.add_argument("--add-intercept", action="store_true", default=False, help="prepend a constant-1 feature")

    p_eval = sub.add_parser("evaluate", help="score a fitted model on a dataset CSV")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--truth", default=None, help="simulation sidecar JSON with beta0/theta0")
    p_eval.add_argument("--mode", choices=["auto", "simulation", "observed"], default="auto")
    p_eval.add_argument("--trial", type=int, default=0)
    p_eval.add_argument("--add-intercept", action="store_true")
    p_eval.add_argument("--out", required=True, help="metrics CSV path")

    p_exp = sub.add_parser("experiment", help="run a multi-trial sweep from a JSON config")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", default=None, help="override the config's output_dir")
    return parser


def cmd_simulate(args) -> int:
    given = vars(args)
    cfg = SimConfig(**{f.name: given[f.name] for f in dataclasses.fields(SimConfig) if f.name in given})
    sim = make_datasets(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for ds, name in ((sim.train, "train.csv"), (sim.test, "test.csv")):
        dataio.write_dataset_with_table(ds, out / name)
    dataio.write_sim_meta(sim, out / "meta.json")
    print(f"wrote train.csv, test.csv (each with a .table sidecar), meta.json to {out}")
    return 0


def cmd_fit(args) -> int:
    grid = make_lambda_grid(**_given(args, "grid"))
    fit_cfg = FitConfig(**_given(args, "fit"))
    schema = "simulated" if args.method in LATENT_METHODS else "observed_only"
    data = dataio.ingest_csv(args.data, schema=schema)
    if args.add_intercept:
        data = data.with_intercept()
    model = METHODS[args.method](data, grid, fit_cfg, args.lambda_eps)
    dataio.write_model_json(model, args.method, args.out)
    print(f"wrote model to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    model, method = dataio.read_model_json(args.model)
    schema = {"auto": "auto", "simulation": "simulated", "observed": "observed_only"}[args.mode]
    data = dataio.ingest_csv(args.data, schema=schema)
    if args.add_intercept:
        data = data.with_intercept()
    truth = None
    if args.truth:
        meta = dataio.read_sim_meta(args.truth)
        truth = (meta["beta0"], meta["theta0"])
    report = evaluate_trial(method, model, data, truth=truth, trial_id=args.trial, mode=args.mode)
    dataio.write_metrics_csv(report, args.out)
    print(f"wrote metrics to {args.out}")
    return 0


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if args.out is not None and isinstance(raw, dict):  # from_dict names any other top-level value
        raw["output_dir"] = args.out
    cfg = ExperimentConfig.from_dict(raw)
    long_path, summary_path = run_experiment(cfg)
    print(f"wrote {long_path} and {summary_path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit" and args.method == "pu_omm_true_lambda" and args.lambda_eps is None:
        parser.error("fit --method pu_omm_true_lambda needs --lambda-eps")
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
