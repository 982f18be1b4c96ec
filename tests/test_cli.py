import argparse
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from puomm import cli, dataio, experiment, simulate
from puomm.cli import build_parser, main
from puomm.dataio import read_model_json, write_dataset_csv, write_model_json
from puomm.experiment import LATENT_METHODS, METHODS, ExperimentConfig, run_experiment
from puomm.model import Dataset
from puomm.optimizer import FitConfig
from puomm.selection import make_lambda_grid
from puomm.simulate import SimConfig, make_datasets

pytestmark = pytest.mark.usefixtures("fork_hygiene")

ROOT = Path(__file__).resolve().parent.parent


def _write_standin_csv(path, n=400, p=3, seed=0, positive_frac=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    z = np.where(rng.random(n) < positive_frac, rng.exponential(1.0, n), 0.0)
    write_dataset_csv(Dataset(x=x, z=z), path)
    return path


def test_simulate_writes_files_and_is_deterministic(tmp_path):
    args = ["simulate", "--setting", "correct", "--n", "50", "--p", "3",
            "--n-test", "20", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("train.csv", "test.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    header = (tmp_path / "a" / "train.csv").read_text().splitlines()[0]
    assert header == "x_1,x_2,x_3,z,y,u,r"


def test_simulate_writes_byte_identical_table_sidecars(tmp_path):
    args = ["simulate", "--setting", "lognormal", "--n", "60", "--p", "3", "--n-test", "30", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    names = ["meta.json", "test.csv", "test.csv.table", "train.csv", "train.csv.table"]
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == names
    for name in ("train.csv.table", "test.csv.table"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("method", ["oracle", "logistic_gamma"])
def test_fit_and_evaluate_outputs_do_not_depend_on_the_sidecars(tmp_path, method):
    outputs = {}
    for sidecars in (True, False):
        d = tmp_path / str(sidecars)
        assert main(["simulate", "--setting", "threshold", "--n", "300", "--p", "3",
                     "--n-test", "200", "--seed", "9", "--out", str(d)]) == 0
        if not sidecars:
            for name in ("train.csv", "test.csv"):
                dataio.sidecar_path(d / name).unlink()
        assert main(["fit", "--data", str(d / "train.csv"), "--method", method,
                     "--out", str(d / f"{method}.json")]) == 0
        assert main(["evaluate", "--model", str(d / f"{method}.json"), "--data", str(d / "test.csv"),
                     "--truth", str(d / "meta.json"), "--mode", "simulation", "--out", str(d / "metrics.csv")]) == 0
        outputs[sidecars] = [(d / name).read_bytes() for name in (f"{method}.json", "metrics.csv")]
    assert outputs[True] == outputs[False]


def test_importing_puomm_does_not_import_hashlib():
    code = "import sys, puomm.cli; print(sorted({'hashlib', '_hashlib', 'orjson'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_fit_pu_omm_emits_full_selection_scores(tmp_path):
    main(["simulate", "--setting", "correct", "--n", "400", "--p", "3",
          "--n-test", "20", "--seed", "1", "--out", str(tmp_path)])
    out = tmp_path / "model.json"
    rc = main(["fit", "--data", str(tmp_path / "train.csv"), "--method", "pu_omm",
               "--tol", "1e-5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["selection_scores"]) == 20
    assert payload["kind"] == "pu_omm"


def test_fit_unknown_method_is_usage_error(tmp_path):
    data = _write_standin_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(data), "--method", "mystery", "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2


def test_fit_true_lambda_without_rate_is_usage_error(tmp_path, capsys):
    data = _write_standin_csv(tmp_path / "d.csv")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(data), "--method", "pu_omm_true_lambda", "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2
    assert "needs --lambda-eps" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_fit_twice_is_byte_identical(tmp_path):
    data = _write_standin_csv(tmp_path / "d.csv")
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    base = ["fit", "--data", str(data), "--method", "pu_omm_true_lambda",
            "--lambda-eps", "0.5", "--tol", "1e-6"]
    assert main(base + ["--out", str(m1)]) == 0
    assert main(base + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_fit_runtime_failure_exits_1_with_json_error(tmp_path, capsys):
    rng = np.random.default_rng(3)
    path = tmp_path / "allzero.csv"
    write_dataset_csv(Dataset(x=rng.standard_normal((30, 2)), z=np.zeros(30)), path)
    rc = main(["fit", "--data", str(path), "--method", "logistic_gamma",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "message" in err and "error" in err


def test_evaluate_produces_metrics_csv(tmp_path):
    main(["simulate", "--setting", "correct", "--n", "300", "--p", "3",
          "--n-test", "200", "--seed", "2", "--out", str(tmp_path)])
    model = tmp_path / "model.json"
    main(["fit", "--data", str(tmp_path / "train.csv"), "--method", "oracle", "--out", str(model)])
    out = tmp_path / "metrics.csv"
    rc = main(["evaluate", "--model", str(model), "--data", str(tmp_path / "test.csv"),
               "--truth", str(tmp_path / "meta.json"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,trial,rmse_beta")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "oracle"  # the method the model JSON records, not the file name
    assert float(cells[2]) >= 0.0  # rmse_beta present in simulation mode


def test_evaluate_labels_a_json_without_a_method_by_its_file_name(tmp_path):
    main(["simulate", "--setting", "correct", "--n", "300", "--p", "3",
          "--n-test", "200", "--seed", "2", "--out", str(tmp_path)])
    fitted = tmp_path / "fitted.json"
    assert main(["fit", "--data", str(tmp_path / "train.csv"), "--method", "logistic_gamma",
                 "--out", str(fitted)]) == 0
    entry = json.loads(fitted.read_text())
    del entry["method"]
    model = tmp_path / "handwritten.json"
    model.write_text(json.dumps(entry))
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--model", str(model), "--data", str(tmp_path / "test.csv"), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[0] == "handwritten"


def test_evaluate_rejects_an_empty_test_set(tmp_path, capsys):
    data = _write_standin_csv(tmp_path / "data.csv", n=40, p=2)
    model, out = tmp_path / "logistic_gamma.json", tmp_path / "metrics.csv"
    assert main(["fit", "--data", str(data), "--method", "logistic_gamma", "--out", str(model)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text(data.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--data", str(empty), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "empty" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "method, key, value",
    [
        ("pu_omm_true_lambda", "lambda_hat", math.nan),
        ("logistic_gamma", "occurrence_coef", [math.nan, 0.0, 0.0]),
        ("logistic_gamma", "aux", math.nan),
        ("logistic_lognormal", "aux", math.inf),
    ],
)
def test_evaluate_rejects_non_finite_model_json(tmp_path, capsys, method, key, value):
    # simulation-mode scoring never reads lambda_hat or a Gamma aux, so only the model reader can refuse them
    data = tmp_path / "d.csv"
    write_dataset_csv(make_datasets(SimConfig(setting="correct", n=400, p=3, seed=4, n_test=10)).train, data)
    model = tmp_path / "model.json"
    rate = ["--lambda-eps", "0.5", "--tol", "1e-5"] if method == "pu_omm_true_lambda" else []
    assert main(["fit", "--data", str(data), "--method", method, "--out", str(model)] + rate) == 0
    payload = json.loads(model.read_text())
    payload[key] = value
    model.write_text(json.dumps(payload))
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(data), "--mode", "simulation",
               "--out", str(tmp_path / "metrics.csv")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not (tmp_path / "metrics.csv").exists()


_PU_JSON = {"kind": "pu_omm", "beta": [0.1, 0.2], "theta": [0.3, -0.1], "lambda_hat": 0.5, "converged": True,
            "iterations": 3, "final_loss": 1.5, "selection_scores": [[0.5, 0.2], [2.0, math.inf]]}
_TWO_PART_JSON = {"kind": "two_part", "occurrence_coef": [0.3, -0.1], "magnitude_coef": [0.1, 0.2],
                  "family": "gamma", "aux": 2.0, "flags": ["separation"]}


@pytest.mark.parametrize(
    "model, key, value",
    [
        (_PU_JSON, "converged", "no"),
        (_PU_JSON, "iterations", 3.7),
        (_PU_JSON, "lambda_hat", "0.5"),
        (_PU_JSON, "lambda_hat", True),
        (_PU_JSON, "beta", ["0.1", 0.2]),
        (_PU_JSON, "theta", [True, 0.0]),
        (_PU_JSON, "final_loss", "1.5"),
        (_PU_JSON, "selection_scores", [["0.5", 0.2]]),
        (_TWO_PART_JSON, "occurrence_coef", [0.3, "x"]),
        (_TWO_PART_JSON, "magnitude_coef", [False, 0.2]),
        (_TWO_PART_JSON, "aux", "2.0"),
        (_TWO_PART_JSON, "flags", "ab"),
    ],
    ids=["converged", "iterations", "lambda_hat_text", "lambda_hat_bool", "beta_text", "theta_bool", "final_loss",
         "selection_scores", "occurrence_coef_text", "magnitude_coef_bool", "aux_text", "flags_text"],
)
def test_evaluate_names_the_model_json_key_whose_value_has_the_wrong_type(tmp_path, capsys, model, key, value):
    # reinterpreted, "no" would read as converged, 3.7 as 3 iterations and "ab" as the flags a and b
    data, path = _write_standin_csv(tmp_path / "d.csv", n=40, p=2), tmp_path / "model.json"
    for payload, rc in ((model, 0), ({**model, key: value}, 1)):
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["evaluate", "--model", str(path), "--data", str(data), "--out", str(tmp_path / "m.csv")]) == rc
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and err["message"].startswith(f"{key} must be "), err


def test_cli_method_choices_are_the_registry_keys():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["fit"]._actions if a.dest == "method")
    assert list(method.choices) == list(METHODS)


def test_cli_fit_and_experiment_fit_the_same_models(tmp_path, monkeypatch):
    # the experiment's first trial simulates with seed base_seed = 11; the CLI fits that same training set
    setting = SimConfig(setting="correct", n=300, p=3, lambda_eps_true=0.24, n_test=50, seed=11)
    write_dataset_csv(make_datasets(setting).train, tmp_path / "train.csv")
    fitted = {}
    evaluate_trial = experiment.evaluate_trial

    def capturing(name, model, *args, **kwargs):
        fitted[name] = model
        return evaluate_trial(name, model, *args, **kwargs)

    monkeypatch.setattr(experiment, "evaluate_trial", capturing)
    cfg = ExperimentConfig(mode="simulation", methods=list(METHODS), trials=1, base_seed=11,
                           output_dir=str(tmp_path / "exp"), settings=[setting], n_values=[300],
                           grid=make_lambda_grid(3), fit=FitConfig(tol=1e-6))
    run_experiment(cfg)
    assert sorted(fitted) == sorted(METHODS)
    for method, model in fitted.items():
        write_model_json(model, method, tmp_path / f"{method}.experiment.json")
        assert main(["fit", "--data", str(tmp_path / "train.csv"), "--method", method, "--grid-size", "3",
                     "--tol", "1e-6", "--lambda-eps", "0.24", "--out", str(tmp_path / f"{method}.json")]) == 0
        assert (tmp_path / f"{method}.json").read_bytes() == (tmp_path / f"{method}.experiment.json").read_bytes()
    assert fitted["pu_omm_true_lambda"].lambda_hat == 0.24


def test_experiment_rows_equal_fits_of_each_method_on_its_own_observed_copy(tmp_path, monkeypatch):
    # a cell hands one observed view to every non-latent method, so they share
    # its lambda-free work; the reference fits each on a Dataset of its own
    settings = [SimConfig(setting=s, n=300, p=3, tau=1.0, n_test=200) for s in ("correct", "lognormal", "threshold")]
    cfg = dict(mode="simulation", methods=list(METHODS), trials=2, base_seed=4, settings=settings,
               n_values=[300, 500], grid=make_lambda_grid(3), fit=FitConfig(max_iter=12))
    shared = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "shared"), **cfg))
    seen = []
    for method, fitter in METHODS.items():

        def alone(train, grid, fit_cfg, true_lambda, fitter=fitter, latent=method in LATENT_METHODS):
            seen.append(train)
            return fitter(train if latent else train.observed_only(), grid, fit_cfg, true_lambda)

        monkeypatch.setitem(METHODS, method, alone)
    reference = run_experiment(ExperimentConfig(output_dir=str(tmp_path / "alone"), **cfg))
    for got, expected in zip(shared, reference):
        assert got.read_bytes() == expected.read_bytes()
    # each cell passed one observed Dataset object to its four non-latent methods
    observed = [ds for ds in seen if not ds.has_latent]
    assert len(observed) == 4 * 12 and len({id(ds) for ds in observed[:4]}) == 1
    statuses = {line.rsplit(",", 1)[1] for line in shared[0].read_text().splitlines()[1:]}
    assert {"ok", "not_converged", "failed: no true detection rate available for this cell"} <= statuses


def test_a_cell_drops_its_observed_view_before_scoring_the_test_set(tmp_path, monkeypatch):
    # the view's row split and logistic stage would otherwise sit beside the scoring's temporaries
    views, alive_at_scoring = [], []
    for method in ("pu_omm", "logistic_gamma"):

        def recording(train, grid, fit_cfg, true_lambda, fitter=METHODS[method]):
            views.append(weakref.ref(train))
            return fitter(train, grid, fit_cfg, true_lambda)

        monkeypatch.setitem(METHODS, method, recording)
    evaluate_trial = experiment.evaluate_trial

    def scoring(*args, **kwargs):
        alive_at_scoring.append(sum(view() is not None for view in views))
        return evaluate_trial(*args, **kwargs)

    monkeypatch.setattr(experiment, "evaluate_trial", scoring)
    cfg = ExperimentConfig(mode="simulation", methods=["pu_omm", "logistic_gamma"], trials=2, base_seed=3,
                           output_dir=str(tmp_path), settings=[SimConfig(setting="correct", n=200, p=2, n_test=50)],
                           n_values=[200], grid=make_lambda_grid(2), fit=FitConfig(tol=1e-6))
    run_experiment(cfg)
    assert len(views) == 4 and alive_at_scoring == [0] * 4


def test_experiment_config_rejects_no_methods(tmp_path, capsys):
    # an empty list would simulate every cell and write header-only results
    raw = {**_SIM_CONFIG, "methods": [], "output_dir": str(tmp_path / "out")}
    message = f"methods must name at least one of {tuple(METHODS)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


def test_run_experiment_gets_fit_pu_omm_from_the_module_attribute(tmp_path, monkeypatch):
    # the benchmark checks each grid-selected model by replacing experiment.fit_pu_omm
    calls = []
    fit_pu_omm = experiment.fit_pu_omm

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_pu_omm(*args, **kwargs)

    monkeypatch.setattr(experiment, "fit_pu_omm", counting)
    cfg = ExperimentConfig(mode="simulation", methods=["pu_omm", "logistic_gamma"], trials=2, base_seed=3,
                           output_dir=str(tmp_path), settings=[SimConfig(setting="correct", n=200, p=2, n_test=50)],
                           n_values=[200], grid=make_lambda_grid(2), fit=FitConfig(tol=1e-6))
    long_path, _ = run_experiment(cfg)
    assert len(calls) == 2
    assert all(line.endswith(",ok") for line in long_path.read_text().splitlines()[1:])


def test_experiment_simulation_cardinality_and_determinism(tmp_path):
    cfg = {
        "mode": "simulation",
        "methods": ["oracle", "pu_omm_true_lambda", "logistic_gamma"],
        "n_values": [250],
        "trials": 2,
        "base_seed": 9,
        "output_dir": str(tmp_path / "run1"),
        "settings": [{"setting": "correct", "p": 3, "lambda_eps_true": 0.24, "n_test": 150}],
        "fit": {"tol": 1e-5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "run2")]) == 0

    for name in ("results_long.csv", "results_summary.csv"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2

    summary = (tmp_path / "run1" / "results_summary.csv").read_text().splitlines()
    # header + settings(1) x n(1) x methods(3) x metrics(7)
    assert len(summary) == 1 + 1 * 1 * 3 * 7

    long_lines = (tmp_path / "run1" / "results_long.csv").read_text().splitlines()
    assert long_lines[0] == "setting,n,trial,method,metric,value,status"
    assert all(line.endswith(",ok") for line in long_lines[1:])


class _NeverHits(dict):
    """A design lookup that finds nothing, so every cell draws its own designs."""

    def get(self, key, default=None):
        return default


@pytest.mark.parametrize(
    "n_values, designs",
    [
        # the settings of one n read one train design, as in the experiment_sweep workload
        ([200], [100, 200]),
        # every cell of the one trial reads one test design; consecutive cells differ in n
        ([200, 300], [100, 200, 200, 300, 300]),
    ],
    ids=["one-n", "two-n"],
)
def test_experiment_cells_in_a_row_share_designs_with_unchanged_results(tmp_path, monkeypatch, n_values, designs):
    draws = []
    gen_design = simulate.gen_design

    def counting_gen_design(n, p, rho, rng):
        draws.append(n)
        return gen_design(n, p, rho, rng)

    monkeypatch.setattr(simulate, "gen_design", counting_gen_design)
    cfg = {
        "mode": "simulation",
        "methods": ["logistic_gamma"],
        "settings": [{"setting": "correct", "p": 2, "n_test": 100}, {"setting": "lognormal", "p": 2, "n_test": 100}],
        "n_values": n_values,
        "trials": 1,
        "base_seed": 6,
    }
    shared_long, _ = run_experiment(ExperimentConfig.from_dict({**cfg, "output_dir": str(tmp_path / "shared")}))
    assert sorted(draws) == designs
    assert all(line.endswith(",ok") for line in shared_long.read_text().splitlines()[1:])

    draws.clear()
    monkeypatch.setattr(simulate, "_DESIGNS", _NeverHits())
    fresh_long, _ = run_experiment(ExperimentConfig.from_dict({**cfg, "output_dir": str(tmp_path / "fresh")}))
    assert len(draws) == 4 * len(n_values)
    assert fresh_long.read_bytes() == shared_long.read_bytes()


def test_experiment_summary_matches_recomputation(tmp_path):
    cfg = ExperimentConfig(
        mode="simulation",
        methods=["oracle", "logistic_lognormal"],
        trials=3,
        base_seed=4,
        output_dir=str(tmp_path),
        settings=[SimConfig(setting="correct", n=200, p=3, n_test=100)],
        n_values=[200],
        fit=FitConfig(tol=1e-5),
    )
    long_path, summary_path = run_experiment(cfg)
    longs = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    groups = {}
    for setting, n, _trial, method, metric, value, status in longs:
        assert status == "ok"
        groups.setdefault((setting, n, method, metric), []).append(float(value))
    summary = {tuple(r.split(",")[:4]): r.split(",")[4:] for r in summary_path.read_text().splitlines()[1:]}
    for key, values in groups.items():
        mean, se, count = summary[key]
        arr = np.asarray(values)
        assert float(mean) == pytest.approx(arr.mean(), rel=1e-12)
        assert float(se) == pytest.approx(arr.std(ddof=1) / np.sqrt(arr.size), rel=1e-12)
        assert int(count) == arr.size


def test_experiment_real_data_split_sizes(tmp_path):
    data = _write_standin_csv(tmp_path / "real.csv", n=333, p=2, seed=5)
    cfg = ExperimentConfig(
        mode="real_data",
        methods=["logistic_gamma", "logistic_lognormal"],
        trials=3,
        base_seed=10,
        output_dir=str(tmp_path / "out"),
        input_csv=str(data),
        split_fraction=0.9,
    )
    long_path, _ = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    n_train = math.ceil(0.9 * 333)
    assert all(int(r[1]) == n_train for r in rows)
    assert {r[3] for r in rows} == {"logistic_gamma", "logistic_lognormal"}
    assert all(r[6] == "ok" for r in rows)
    metrics = {r[4] for r in rows}
    assert "rmse_beta" not in metrics  # no truth on real data


def test_experiment_real_data_test_split_without_records_leaves_size_metrics_out(tmp_path):
    # 6 records in 60 rows (every 10th row): at base seed 0 the 6-row test
    # split holds 2 of them in trial 0 and none in trials 1 and 2
    rng = np.random.default_rng(3)
    z = np.zeros(60)
    z[::10] = rng.exponential(1.0, 6) + 0.1
    path = tmp_path / "sparse.csv"
    write_dataset_csv(Dataset(x=rng.standard_normal((60, 2)), z=z), path)
    cfg = ExperimentConfig(
        mode="real_data",
        methods=["logistic_gamma"],
        trials=3,
        base_seed=0,
        output_dir=str(tmp_path / "out"),
        input_csv=str(path),
        split_fraction=0.9,
    )
    long_path, summary_path = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    assert all(r[6] == "ok" and r[5] not in ("", "nan") for r in rows)
    assert {int(r[2]) for r in rows if r[4] == "brier"} == {0, 1, 2}
    assert {int(r[2]) for r in rows if r[4] in ("mad", "rmse_pred", "smape")} == {0}
    summary = {r[3]: r for r in (line.split(",") for line in summary_path.read_text().splitlines()[1:])}
    assert "nan" not in summary_path.read_text()
    assert summary["mad"][6] == "1" and summary["brier"][6] == "3"


@pytest.mark.parametrize("n", [9, 10])
def test_experiment_real_data_rejects_a_split_without_test_rows(tmp_path, monkeypatch, n):
    # ceil(0.9 * 9) = 9 leaves no test row; 10 rows leave one
    data = _write_standin_csv(tmp_path / "tiny.csv", n=n, p=2, seed=1)
    fits = []
    fit_observed_mixture = experiment.fit_observed_mixture
    monkeypatch.setattr(experiment, "fit_observed_mixture", lambda *a: fits.append(a) or fit_observed_mixture(*a))
    cfg = ExperimentConfig(
        mode="real_data",
        methods=["logistic_gamma"],
        trials=1,
        base_seed=0,
        output_dir=str(tmp_path / "out"),
        input_csv=str(data),
    )
    if n == 9:
        with pytest.raises(ValueError, match=r"split_fraction 0\.9 leaves no test rows from n=9"):
            run_experiment(cfg)
        assert fits == []
        return
    long_path, _ = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    assert rows and all(r[1] == "9" and r[6] == "ok" and r[5] not in ("", "nan") for r in rows)
    assert len(fits) == 1


def test_experiment_oracle_rejected_on_real_data(tmp_path):
    data = _write_standin_csv(tmp_path / "real.csv")
    with pytest.raises(ValueError, match="oracle"):
        ExperimentConfig(
            mode="real_data",
            methods=["oracle"],
            trials=1,
            base_seed=0,
            output_dir=str(tmp_path),
            input_csv=str(data),
        )


def test_experiment_partial_failure_recorded_not_fatal(tmp_path):
    # threshold setting has no true detection rate: pu_omm_true_lambda fails per-cell
    cfg = ExperimentConfig(
        mode="simulation",
        methods=["pu_omm_true_lambda", "oracle"],
        trials=1,
        base_seed=2,
        output_dir=str(tmp_path),
        settings=[SimConfig(setting="threshold", n=150, p=2, tau=1.0, n_test=80)],
        n_values=[150],
        fit=FitConfig(tol=1e-5),
    )
    long_path, _ = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    failed = [r for r in rows if r[3] == "pu_omm_true_lambda"]
    assert len(failed) == 1 and failed[0][6].startswith("failed")
    assert any(r[3] == "oracle" and r[6] == "ok" for r in rows)


def test_non_oracle_fit_ignores_latent_columns(tmp_path):
    # the same file fit through the observed-only schema cannot depend on y/u/r
    sim = make_datasets(SimConfig(setting="correct", n=300, p=3, seed=8, n_test=10))
    with_latent = tmp_path / "with.csv"
    write_dataset_csv(sim.train, with_latent)
    stripped = tmp_path / "without.csv"
    write_dataset_csv(sim.train.observed_only(), stripped)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    main(["fit", "--data", str(with_latent), "--method", "logistic_gamma", "--out", str(m1)])
    main(["fit", "--data", str(stripped), "--method", "logistic_gamma", "--out", str(m2)])
    (a, _), (b, _) = read_model_json(m1), read_model_json(m2)
    assert np.array_equal(a.occurrence_coef, b.occurrence_coef)
    assert np.array_equal(a.magnitude_coef, b.magnitude_coef)


def test_evaluate_auto_mode_rejects_corrupt_simulated_file(tmp_path, capsys):
    main(["simulate", "--setting", "correct", "--n", "200", "--p", "3",
          "--n-test", "100", "--seed", "3", "--out", str(tmp_path)])
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(tmp_path / "train.csv"), "--method", "logistic_gamma",
                 "--out", str(model)]) == 0
    test_csv = tmp_path / "test.csv"
    lines = test_csv.read_text().splitlines()
    cells = lines[41].split(",")
    cells[3] = repr(float(cells[3]) + 2.0)  # z column: z != y * r on file line 42
    lines[41] = ",".join(cells)
    test_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["evaluate", "--model", str(model), "--data", str(test_csv), "--mode", "auto",
               "--truth", str(tmp_path / "meta.json"), "--out", str(tmp_path / "metrics.csv")])
    assert rc == 1
    assert "line 42" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "metrics.csv").exists()


def test_evaluate_auto_mode_reads_observed_file_as_observed(tmp_path):
    data = _write_standin_csv(tmp_path / "d.csv")
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--method", "logistic_gamma", "--out", str(model)]) == 0
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert values["rmse_beta"] == ""  # no truth in observed mode


def test_experiment_non_converged_fit_is_not_ok(tmp_path):
    cfg = ExperimentConfig(
        mode="simulation",
        methods=["pu_omm", "pu_omm_true_lambda", "oracle"],
        trials=2,
        base_seed=5,
        output_dir=str(tmp_path),
        settings=[SimConfig(setting="correct", n=300, p=3, n_test=100)],
        n_values=[300],
        grid=make_lambda_grid(2),
        fit=FitConfig(tol=1e-12, max_iter=5),
    )
    long_path, summary_path = run_experiment(cfg)
    rows = [line.split(",") for line in long_path.read_text().splitlines()[1:]]
    status = {(r[3], r[6]) for r in rows}
    assert status == {("pu_omm", "not_converged"), ("pu_omm_true_lambda", "not_converged"), ("oracle", "ok")}
    assert all(r[5] != "" for r in rows)  # metrics are still written
    summary = [line.split(",") for line in summary_path.read_text().splitlines()[1:]]
    assert {r[2] for r in summary} == {"oracle"}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_latent_methods_alone_read_latent_columns_and_need_simulation_mode(tmp_path, monkeypatch, method):
    schemas = []

    def ingest(path, schema):
        schemas.append(schema)
        raise ValueError("stop after the read")

    monkeypatch.setattr(dataio, "ingest_csv", ingest)
    main(["fit", "--data", "d.csv", "--method", method, "--lambda-eps", "0.5", "--out", str(tmp_path / "m.json")])
    assert schemas == ["simulated" if method in LATENT_METHODS else "observed_only"]

    real = dict(mode="real_data", methods=[method], trials=1, base_seed=0,
                output_dir=str(tmp_path), input_csv="d.csv")
    if method in LATENT_METHODS:
        with pytest.raises(ValueError, match=f"the {method} method requires simulation mode"):
            ExperimentConfig(**real)
    else:
        ExperimentConfig(**real)


_SIM_CONFIG = {
    "mode": "simulation",
    "methods": ["logistic_gamma"],
    "settings": [{"setting": "correct", "p": 2, "n_test": 20}],
    "n_values": [50],
    "trials": 1,
    "base_seed": 0,
}


@pytest.mark.parametrize(
    "change, key",
    [
        ({"settings": [{"setting": "correct", "lamda_eps_true": 0.9, "n_tset": 7}]}, "lamda_eps_true"),
        ({"grid": {"points": 3}}, "points"),
        ({"fit": {"tolerance": 1e-3}}, "tolerance"),
        ({"n_value": [50]}, "n_value"),
        # each solver setting has one spelling, nested in grid or fit
        ({"grid_size": 3}, "grid_size"),
        ({"tol": 1e-3}, "tol"),
        ({"grid_size": 3, "grid": {"size": 7}, "tol": 1e-3, "fit": {"tol": 1e-5}}, "['grid_size', 'tol']"),
    ],
)
def test_experiment_config_unknown_key_is_an_error(tmp_path, capsys, change, key):
    raw = {**_SIM_CONFIG, "output_dir": str(tmp_path / "out"), **change}
    with pytest.raises(ValueError, match=re.escape(key)):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and key in err["message"]
    assert not (tmp_path / "out").exists()


def test_experiment_config_bad_setting_field_names_entry_and_field(tmp_path, capsys):
    raw = {**_SIM_CONFIG, "output_dir": str(tmp_path / "out"),
           "settings": [{"setting": "correct", "p": 2}, {"setting": "correct", "p": 10.0}]}
    with pytest.raises(ValueError, match=r"^settings\[1\]: p must be an integer, got 10.0$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert "settings[1]: p must be an integer" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value",
    [("trials", 1.5), ("base_seed", 7.0), ("base_seed", "7")],
)
def test_experiment_config_names_a_non_integer_field(tmp_path, capsys, field, value):
    raw = {**_SIM_CONFIG, "output_dir": str(tmp_path / "out"), field: value}
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"grid": {"size": 1}}, "grid: grid needs at least 2 points, got 1"),
        ({"grid": {"size": 2.5}}, "grid: size must be an integer, got 2.5"),
        ({"grid": {"lo": 0.5, "hi": 0.1}}, "grid: grid bounds must satisfy 0 < lo < hi < inf, got (0.5, 0.1)"),
        ({"grid": {"lo": 0.0}}, "grid: grid bounds must satisfy 0 < lo < hi < inf, got (0.0, 50.0)"),
        ({"grid": {"hi": math.inf}}, "grid: grid bounds must satisfy 0 < lo < hi < inf, got (0.02, inf)"),
        ({"grid": {"lo": "0.1"}}, "grid: grid bounds must satisfy 0 < lo < hi < inf, got ('0.1', 50.0)"),
        ({"fit": {"tol": math.nan}}, "fit: tol must be a finite positive real, got nan"),
        ({"fit": {"tol": math.inf}}, "fit: tol must be a finite positive real, got inf"),
        ({"fit": {"tol": "1e-3"}}, "fit: tol must be a finite positive real, got '1e-3'"),
        ({"fit": {"radius": -1}}, "fit: radius must be a finite positive real, got -1"),
        ({"fit": {"max_iter": 2.5}}, "fit: max_iter must be an integer, got 2.5"),
        ({"fit": {"max_iter": 0}}, "fit: max_iter must be >= 1, got 0"),
    ],
    ids=[
        "grid_size", "grid_size_float", "grid_reversed", "grid_lo_zero", "grid_hi_inf", "grid_lo_text",
        "tol_nan", "tol_inf", "tol_text", "radius_negative", "max_iter_float", "max_iter_zero",
    ],
)
def test_experiment_config_names_a_bad_grid_or_fit_field(tmp_path, capsys, change, message):
    # checked with the config, so no pu_omm cell is written as failed
    raw = {**_SIM_CONFIG, "methods": ["pu_omm"], "output_dir": str(tmp_path / "out"), **change}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [-1.0, 0, math.nan, math.inf, "0.24"])
def test_experiment_config_names_a_bad_true_lambda(tmp_path, capsys, value):
    # accepted, such a value would only show up as a failed pu_omm_true_lambda cell in every trial
    raw = {"mode": "real_data", "methods": ["pu_omm_true_lambda"], "trials": 1, "base_seed": 0,
           "input_csv": str(tmp_path / "d.csv"), "output_dir": str(tmp_path / "out"), "true_lambda": value}
    message = f"true_lambda must be a finite positive real, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grid", 5, "grid must be a JSON object, got 5"),
        ("grid", "abc", "grid must be a JSON object, got 'abc'"),
        ("grid", None, "grid must be a JSON object, got None"),
        ("fit", [1e-3], "fit must be a JSON object, got [0.001]"),
        ("settings", [{"setting": "correct"}, "lognormal"], "settings[1] must be a JSON object, got 'lognormal'"),
        ("settings", {"setting": "correct"}, "settings must be a JSON array, got {'setting': 'correct'}"),
        ("methods", "oracle", "methods must be a JSON array, got 'oracle'"),
        ("n_values", 50, "n_values must be a JSON array, got 50"),
    ],
    ids=["grid_int", "grid_text", "grid_null", "fit_array", "settings_entry", "settings_object", "methods", "n_values"],
)
def test_experiment_config_names_a_key_of_the_wrong_json_type(tmp_path, capsys, key, value, message):
    # a string or number is never iterated as if it were a list of keys or entries
    raw = {**_SIM_CONFIG, "output_dir": str(tmp_path / "out"), key: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", [[1, 2], "abc", 5, None], ids=["array", "text", "number", "null"])
def test_experiment_config_that_is_not_a_json_object_is_an_error(tmp_path, capsys, raw):
    # with or without --out, which sets a key of the config
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    message = f"the experiment config must be a JSON object, got {raw!r}"
    for out in ([], ["--out", str(tmp_path / "out")]):
        assert main(["experiment", "--config", str(path), *out]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (tmp_path / "out").exists()


_REAL, _SCALE = "must be a finite positive real, got", "must be positive and finite, got"
_REAL_DATA = {"mode": "real_data", "input_csv": "unused.csv"}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"trials": True}, "trials must be an integer, got True"),
        ({"base_seed": False}, "base_seed must be an integer, got False"),
        ({"grid": {"size": True}}, "grid: size must be an integer, got True"),
        ({"grid": {"lo": True}}, "grid: grid bounds must satisfy 0 < lo < hi < inf, got (True, 50.0)"),
        ({"grid": {"hi": True}}, "grid: grid bounds must satisfy 0 < lo < hi < inf, got (0.02, True)"),
        ({"fit": {"tol": True}}, f"fit: tol {_REAL} True"),
        ({"fit": {"radius": True}}, f"fit: radius {_REAL} True"),
        ({"fit": {"max_iter": True}}, "fit: max_iter must be an integer, got True"),
        ({"true_lambda": True}, f"true_lambda {_REAL} True"),
        ({"n_values": [True]}, "n_values must be integers >= 1, got [True]"),
        ({"settings": [{"setting": "correct", "n": True}]}, "settings[0]: n must be an integer, got True"),
        ({"settings": [{"setting": "correct", "p": True}]}, "settings[0]: p must be an integer, got True"),
        ({"settings": [{"setting": "correct", "seed": True}]}, "settings[0]: seed must be an integer, got True"),
        ({"settings": [{"setting": "correct", "n_test": True}]}, "settings[0]: n_test must be an integer, got True"),
        ({"settings": [{"setting": "correct", "rho": False}]}, "settings[0]: rho must lie in (-1, 1), got False"),
        ({"settings": [{"setting": "correct", "rho": "0.2"}]}, "settings[0]: rho must lie in (-1, 1), got '0.2'"),
        ({"settings": [{"setting": "correct", "lambda_eps_true": True}]}, f"settings[0]: lambda_eps_true {_REAL} True"),
        ({"settings": [{"setting": "threshold", "tau": True}]}, f"settings[0]: tau {_REAL} True"),
        ({"settings": [{"setting": "correct", "param_scale": True}]}, f"settings[0]: param_scale {_SCALE} True"),
        ({"settings": [{"setting": "correct", "param_scale": math.inf}]}, f"settings[0]: param_scale {_SCALE} inf"),
        ({**_REAL_DATA, "split_fraction": True}, "split_fraction must lie in (0, 1), got True"),
        ({**_REAL_DATA, "split_fraction": "0.9"}, "split_fraction must lie in (0, 1), got '0.9'"),
    ],
    ids=[
        "trials", "base_seed", "grid_size", "grid_lo", "grid_hi", "tol", "radius", "max_iter", "true_lambda",
        "n_values", "n", "p", "seed", "n_test", "rho", "rho_text", "lambda_eps_true", "tau", "param_scale",
        "param_scale_inf", "split_fraction", "split_fraction_text",
    ],
)
def test_experiment_config_rejects_a_bool_or_an_infinite_scale(change, message):
    # JSON true is not the number 1, nor false 0, wherever a count or a rate
    # is read, and neither is a string that spells a number
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict({**_SIM_CONFIG, "output_dir": "unused", **change})


_REAL_CONFIG = {**_REAL_DATA, "methods": ["logistic_gamma"], "trials": 1, "base_seed": 0}
_SIM_ONLY, _REAL_ONLY = "are read only in simulation mode", "are read only in real_data mode"


@pytest.mark.parametrize(
    "config, message",
    [
        ({**_SIM_CONFIG, "split_fraction": "abc", "input_csv": 5},
         f"keys ['input_csv', 'split_fraction'] {_REAL_ONLY}, not in a simulation config"),
        ({**_SIM_CONFIG, "true_lambda": 0.3}, f"keys ['true_lambda'] {_REAL_ONLY}, not in a simulation config"),
        ({**_REAL_CONFIG, "settings": [{"setting": "nope", "zzz": 1}]},
         f"keys ['settings'] {_SIM_ONLY}, not in a real_data config"),
        ({**_REAL_CONFIG, "n_values": ["q"]}, f"keys ['n_values'] {_SIM_ONLY}, not in a real_data config"),
    ],
    ids=["split_fraction_and_input_csv", "true_lambda", "settings", "n_values"],
)
def test_experiment_config_rejects_the_keys_of_the_other_mode(config, message):
    # such a key would be ignored and its value never checked, so it is rejected like an unknown key
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_dict({**config, "output_dir": "unused"})


@pytest.mark.parametrize("n_values", [[50.0], [50, 0], ["50"]])
def test_experiment_config_rejects_bad_n_values(n_values):
    # checked with the config, before run_experiment makes its output directory
    with pytest.raises(ValueError, match=r"^n_values must be integers >= 1"):
        ExperimentConfig.from_dict({**_SIM_CONFIG, "output_dir": "unused", "n_values": n_values})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"methods": ["logistic_gamma", "logistic_gamma"]}, r"methods\[0\] and methods\[1\] are both 'logistic_gamma'"),
        ({"n_values": [300, 50, 300]}, r"n_values\[0\] and n_values\[2\] are both 300"),
        (
            {"settings": [{"setting": "correct", "lambda_eps_true": 0.24}, {"setting": "correct", "lambda_eps_true": 2.0}]},
            r"settings\[0\] and settings\[1\] are both 'correct'",
        ),
    ],
    ids=["methods", "n_values", "settings"],
)
def test_experiment_config_rejects_duplicate_entries(tmp_path, capsys, change, message):
    # the summary pools rows by setting label, n and method, so a repeat would pass as extra trials
    raw = {**_SIM_CONFIG, "output_dir": str(tmp_path / "out"), **change}
    with pytest.raises(ValueError, match=f"^{message}"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(path)]) == 1
    assert re.match(message, json.loads(capsys.readouterr().err)["message"])
    assert not (tmp_path / "out").exists()


def test_experiment_config_nested_keys_fill_fields():
    cfg = ExperimentConfig.from_dict({
        **_SIM_CONFIG,
        "output_dir": "unused",
        "grid": {"size": 3, "lo": 0.1, "hi": 2.0},
        "fit": {"tol": 1e-3, "max_iter": 7, "radius": 4.0},
        "settings": [{"setting": "threshold", "tau": 2.0}],
    })
    assert np.array_equal(cfg.grid.values, make_lambda_grid(3, 0.1, 2.0).values)
    assert cfg.fit == FitConfig(tol=1e-3, max_iter=7, radius=4.0)
    assert cfg.settings == [SimConfig(setting="threshold", n=1, tau=2.0)]


def test_simulate_defaults_are_sim_config_defaults(tmp_path, monkeypatch):
    built = []

    def record(cfg):
        built.append(cfg)
        raise ValueError("stop after the config")

    monkeypatch.setattr(cli, "make_datasets", record)
    main(["simulate", "--n", "40", "--out", str(tmp_path)])
    assert built == [SimConfig(setting="correct", n=40, seed=0)]


def test_fit_options_left_out_take_the_defaults_of_make_lambda_grid_and_fit_config(tmp_path, monkeypatch):
    built = []

    def record(train, grid, fit_cfg, true_lambda):
        built.append((grid, fit_cfg))
        raise ValueError("stop after the settings")

    monkeypatch.setitem(METHODS, "pu_omm", record)
    data = _write_standin_csv(tmp_path / "d.csv", n=50)
    main(["fit", "--data", str(data), "--method", "pu_omm", "--out", str(tmp_path / "m.json")])
    main(["fit", "--data", str(data), "--method", "pu_omm", "--grid-size", "3", "--grid-hi", "2.0",
          "--radius", "4.0", "--max-iter", "7", "--out", str(tmp_path / "m.json")])
    (grid, fit_cfg), (grid_given, fit_given) = built
    assert np.array_equal(grid.values, make_lambda_grid().values) and fit_cfg == FitConfig()
    assert np.array_equal(grid_given.values, make_lambda_grid(3, hi=2.0).values)
    assert fit_given == FitConfig(radius=4.0, max_iter=7)


@pytest.mark.parametrize("method", ["pu_omm", "oracle"])
def test_fit_checks_its_grid_and_solver_options_before_reading_the_data(tmp_path, capsys, method):
    # the options are built into a LambdaGrid and a FitConfig for every method, so a bad one is never ignored
    missing = str(tmp_path / "missing.csv")
    for option, message in ((["--grid-size", "1"], "grid needs at least 2 points, got 1"),
                            (["--tol", "0"], "tol must be a finite positive real, got 0.0")):
        assert main(["fit", "--data", missing, "--method", method, *option, "--out", str(tmp_path / "m.json")]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}


def test_every_experiment_config_in_the_readme_is_valid(tmp_path):
    readme = (ROOT / "README.md").read_text()
    configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    configs = [c for c in configs if "mode" in c]
    assert configs
    for config in configs:
        ExperimentConfig.from_dict({**config, "output_dir": str(tmp_path)})
