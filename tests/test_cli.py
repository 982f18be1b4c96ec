import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from puomm import cli, dataio, experiment, simulate
from puomm.cli import build_parser, main
from puomm.dataio import read_model_json, write_dataset_csv, write_model_json
from puomm.experiment import LATENT_METHODS, METHODS, ExperimentConfig, run_experiment
from puomm.model import Dataset
from puomm.optimizer import FitConfig
from puomm.selection import default_radius
from puomm.simulate import SimConfig, make_datasets

pytestmark = pytest.mark.usefixtures("fork_hygiene")


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

    def capturing(models, *args, **kwargs):
        fitted.update(models)
        return evaluate_trial(models, *args, **kwargs)

    monkeypatch.setattr(experiment, "evaluate_trial", capturing)
    cfg = ExperimentConfig(mode="simulation", methods=list(METHODS), trials=1, base_seed=11,
                           output_dir=str(tmp_path / "exp"), settings=[setting], n_values=[300],
                           grid_size=3, tol=1e-6)
    run_experiment(cfg)
    assert sorted(fitted) == sorted(METHODS)
    for method, model in fitted.items():
        write_model_json(model, method, tmp_path / f"{method}.experiment.json")
        assert main(["fit", "--data", str(tmp_path / "train.csv"), "--method", method, "--grid-size", "3",
                     "--tol", "1e-6", "--lambda-eps", "0.24", "--out", str(tmp_path / f"{method}.json")]) == 0
        assert (tmp_path / f"{method}.json").read_bytes() == (tmp_path / f"{method}.experiment.json").read_bytes()
    assert fitted["pu_omm_true_lambda"].lambda_hat == 0.24


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
                           n_values=[200], grid_size=2, tol=1e-6)
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
        tol=1e-5,
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
        tol=1e-5,
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
    a, b = read_model_json(m1), read_model_json(m2)
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
        grid_size=2,
        tol=1e-12,
        max_iter=5,
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
    ],
)
def test_experiment_config_unknown_key_is_an_error(tmp_path, capsys, change, key):
    raw = {**_SIM_CONFIG, "output_dir": str(tmp_path / "out"), **change}
    with pytest.raises(ValueError, match=key):
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
    [("trials", 1.5), ("base_seed", 7.0), ("base_seed", "7"), ("grid_size", 2.5)],
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
        ({"grid": {"size": 1}}, "grid_size must be >= 2, got 1"),
        ({"grid": {"lo": 0.5, "hi": 0.1}}, "grid_lo and grid_hi must satisfy 0 < grid_lo < grid_hi < inf, got 0.5 and 0.1"),
        ({"grid": {"lo": 0.0}}, "grid_lo and grid_hi must satisfy 0 < grid_lo < grid_hi < inf, got 0.0 and 50.0"),
        ({"grid": {"hi": math.inf}}, "grid_lo and grid_hi must satisfy 0 < grid_lo < grid_hi < inf, got 0.02 and inf"),
        ({"grid": {"lo": "0.1"}}, "grid_lo and grid_hi must satisfy 0 < grid_lo < grid_hi < inf, got '0.1' and 50.0"),
        ({"fit": {"tol": math.nan}}, "tol must be a finite positive real, got nan"),
        ({"fit": {"tol": math.inf}}, "tol must be a finite positive real, got inf"),
        ({"fit": {"tol": "1e-3"}}, "tol must be a finite positive real, got '1e-3'"),
        ({"fit": {"radius": -1}}, "radius must be a finite positive real, got -1"),
        ({"fit": {"max_iter": 2.5}}, "max_iter must be an integer, got 2.5"),
        ({"fit": {"max_iter": 0}}, "max_iter must be >= 1, got 0"),
    ],
    ids=[
        "grid_size", "grid_reversed", "grid_lo_zero", "grid_hi_inf", "grid_lo_text",
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
    assert (cfg.grid_size, cfg.grid_lo, cfg.grid_hi) == (3, 0.1, 2.0)
    assert (cfg.tol, cfg.max_iter, cfg.radius) == (1e-3, 7, 4.0)
    assert cfg.settings == [SimConfig(setting="threshold", n=1, tau=2.0)]


def test_simulate_defaults_are_sim_config_defaults(tmp_path, monkeypatch):
    built = []

    def record(cfg):
        built.append(cfg)
        raise ValueError("stop after the config")

    monkeypatch.setattr(cli, "make_datasets", record)
    main(["simulate", "--n", "40", "--out", str(tmp_path)])
    assert built == [SimConfig(setting="correct", n=40, seed=0)]


def test_fit_defaults_are_fit_config_defaults():
    args = build_parser().parse_args(["fit", "--data", "d.csv", "--method", "pu_omm", "--out", "m.json"])
    assert experiment._fit_config(args, 7) == FitConfig(radius=default_radius(7))
