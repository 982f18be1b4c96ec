import json
import math

import numpy as np
import pytest

from puomm.cli import main
from puomm.dataio import read_model_json, write_dataset_csv
from puomm.experiment import ExperimentConfig, run_experiment
from puomm.model import Dataset
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
    assert cells[0] == "model"
    assert float(cells[2]) >= 0.0  # rmse_beta present in simulation mode


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
