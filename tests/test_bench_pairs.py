import contextlib
import tempfile
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402


def test_parse_seeds_ranges_and_lists():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("5") == [5]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("3-1")


def _summary(op_s, attempted, failed=0):
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {"op_s.mean_norm": {"value": op_s, "unit": "s"}, "beta_err": {"value": 0.5, "unit": "l2"}},
    }


def test_paired_summary_counts_wins_and_leaves_ties_to_neither_side():
    pairs = [
        {"before": _summary(b, 10), "after": _summary(a, 12, failed=f)}
        for b, a, f in [(0.20, 0.18, 0), (0.21, 0.22, 1), (0.19, 0.17, 0), (0.20, 0.20, 0), (0.22, 0.19, 0)]
    ]
    out = bench_pairs.paired_summary(pairs, {"op_s.mean_norm": "lower"})
    op = out["op_s.mean_norm"]
    assert op["unit"] == "s" and op["pairs"] == 5
    assert op["pairs_after_lower"] == 3
    assert op["before"]["values"] == [0.20, 0.21, 0.19, 0.20, 0.22]
    assert op["before"]["q1"] <= op["before"]["median"] <= op["before"]["q3"]
    assert op["before"]["median"] == 0.2
    assert out["beta_err"]["pairs_after_lower"] == 0  # identical estimates tie
    assert op["better"] == "lower" and op["gain"] is False  # 3 of 5 pairs
    assert out["beta_err"]["better"] is None and out["beta_err"]["gain"] is None  # no direction given
    assert out["ops"] == {
        "before": {"attempted": [10] * 5, "failed": 0},
        "after": {"attempted": [12] * 5, "failed": 1},
    }


_PARENT = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0, 1.0]  # quartiles 0.975 and 1.0125


@pytest.mark.parametrize(
    "after, holds",
    [
        ([v - 0.2 for v in _PARENT], True),
        ([v - 0.2 for v in _PARENT[:9]] + [1.2], True),  # 9 of 10 pairs
        ([v - 0.2 for v in _PARENT[:8]] + [1.2, 1.2], False),  # 8 of 10 pairs
        ([v - 0.03 for v in _PARENT], False),  # every pair, but the median gap is inside the parent's spread
        ([v - 0.2 for v in _PARENT[:8]] + _PARENT[8:], False),  # two ties, which are not wins: 8 of 10
    ],
)
def test_gain_rule_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_spread(after, holds):
    assert bench_pairs.gain_holds(_PARENT, after, "lower") is holds
    # the same runs of a metric where higher is better, mirrored
    assert bench_pairs.gain_holds([-v for v in _PARENT], [-v for v in after], "higher") is holds


@pytest.mark.parametrize(
    "after, worse",
    [
        ([v + 0.2 for v in _PARENT], True),
        ([v + 0.2 for v in _PARENT[:9]] + [0.8], True),  # 9 of 10 pairs
        ([v + 0.2 for v in _PARENT[:8]] + [0.8, 0.8], False),  # 8 of 10 pairs
        ([v + 0.03 for v in _PARENT], False),  # every pair, but the median gap is inside the parent's spread
        ([v + 0.2 for v in _PARENT[:8]] + _PARENT[8:], False),  # two ties, which are not losses: 8 of 10
        ([v - 0.2 for v in _PARENT], False),  # a gain
    ],
)
def test_regression_rule_mirrors_the_gain_rule(after, worse):
    assert bench_pairs.regressed(_PARENT, after, "lower") is worse
    assert bench_pairs.regressed([-v for v in _PARENT], [-v for v in after], "higher") is worse
    # a regression where lower is better is a gain where higher is
    assert bench_pairs.gain_holds(_PARENT, after, "higher") is worse


def test_paired_summary_and_the_printout_name_the_metrics_that_regressed():
    pairs = [{"before": _summary(b, 10), "after": _summary(b + 0.2, 10)} for b in _PARENT]
    out = bench_pairs.paired_summary(pairs, {"op_s.mean_norm": "lower", "beta_err": "lower"})
    assert out["op_s.mean_norm"]["regressed"] is True and out["op_s.mean_norm"]["gain"] is False
    assert out["beta_err"]["regressed"] is False  # identical in every pair
    assert bench_pairs.paired_summary(pairs, {})["op_s.mean_norm"]["regressed"] is None
    same = bench_pairs.paired_summary([{"before": _summary(b, 10), "after": _summary(b, 10)} for b in _PARENT],
                                      {"op_s.mean_norm": "lower"})
    assert bench_pairs.regressions_line({"cli_io": same, "experiment_sweep": out}) == (
        "regressed: experiment_sweep op_s.mean_norm"
    )
    assert bench_pairs.regressions_line({"cli_io": same}) == "regressed: none"


def test_exported_tree_is_removed_when_the_body_or_the_export_fails(tmp_path, monkeypatch):
    made = tmp_path / "tree"
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", lambda prefix: str(made.mkdir() or made))
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: type("Done", (), {"stdout": b""})())
    with pytest.raises(RuntimeError):
        with bench_pairs.exported_tree("HEAD") as tree:
            assert tree == made and tree.is_dir()
            raise RuntimeError("run failed")
    assert not made.exists()

    def failing_run(*args, **kwargs):
        raise bench_pairs.subprocess.CalledProcessError(128, args[0])

    monkeypatch.setattr(bench_pairs.subprocess, "run", failing_run)
    with pytest.raises(bench_pairs.subprocess.CalledProcessError):
        with bench_pairs.exported_tree("no-such-commit"):
            pass
    assert not made.exists()


def test_main_alternates_sides_over_every_benchmark_workload(tmp_path, monkeypatch, capsys):
    runs = []

    def fake_run_once(tree, workload, seed, seconds):
        side = "before" if tree == tmp_path else "after"
        runs.append((seed, workload, side, seconds))
        result = tmp_path / f"{side}-{workload}-{seed}.json"
        result.write_text('{"environment": {"nproc": 2}}')
        return {"summary": _summary(0.2 if side == "before" else 0.1, 10), "result_file": result}

    monkeypatch.setattr(bench_pairs, "exported_tree", lambda commit: contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda signum, handler: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "compare_runs", lambda a, b: {"identical": True})
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path / "checkout")
    (tmp_path / "checkout").mkdir()
    (tmp_path / "checkout" / "BENCHMARK.json").write_text(
        '{"run_seconds": 50, "workloads": [{"name": "cli_io"}, {"name": "experiment_sweep"}],'
        ' "end_to_end": [{"name": "op_s.mean_norm", "better": "lower"}, {"name": "beta_err", "better": "lower"}]}'
    )
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: type("Done", (), {"stdout": "abc1234\n"})())
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD", "--seeds", "1-2", "--out", str(out), "--change", "c"]) == 0
    assert [r[2] for r in runs] == ["before", "after"] * 2 + ["after", "before"] * 2
    assert {r[3] for r in runs} == {50}
    summary = bench_pairs.json.loads(out.read_text())
    assert summary["before"] == "abc1234" and summary["seeds"] == [1, 2]
    assert summary["environment"] == {"nproc": 2}
    printed = capsys.readouterr().out
    for wl in ("cli_io", "experiment_sweep"):
        op = summary["end_to_end"][wl]["op_s.mean_norm"]
        assert op["pairs_after_lower"] == 2 and op["better"] == "lower" and op["gain"] is True
        assert summary["end_to_end"][wl]["beta_err"]["gain"] is False  # identical in every pair
        assert [c["seed"] for c in summary["compare"][wl]] == [1, 2]
        assert f"{wl} op_s.mean_norm: median 0.2 -> 0.1 s" in printed
        assert f"{wl} beta_err: median 0.5 -> 0.5 l2" in printed
    assert printed.count("gain rule holds") == 2 and printed.count("gain rule fails") == 2
    assert "regressed: none\n" in printed


def test_a_failed_run_names_its_tree_workload_and_seed_and_ends_with_its_stderr(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        "sys.exit('ValueError: the workload failed')\n"
    )
    with pytest.raises(RuntimeError) as exc:
        bench_pairs.run_once(tmp_path, "cli_io", 7, 1)
    message = str(exc.value)
    assert f"in {tmp_path} failed on workload cli_io, seed 7 (exit status 1)" in message
    assert message.endswith("line 29\nValueError: the workload failed")
    assert "line 0\n" not in message


def test_neither_side_runs_in_the_checkout_and_both_trees_are_removed(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text('{"run_seconds": 50, "workloads": [{"name": "cli_io"}]}')
    (checkout / "src" / "mod.py").write_text("edited = True\n")
    (checkout / "src" / "__pycache__").mkdir()
    (checkout / "src" / "__pycache__" / "mod.pyc").write_text("stale")
    monkeypatch.setattr(bench_pairs, "ROOT", checkout)
    mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", lambda prefix: mkdtemp(prefix=prefix, dir=tmp_path))

    def fake_git(cmd, **kwargs):
        listing = {"rev-parse": "abc1234\n", "ls-files": "BENCHMARK.json\0src/mod.py\0gone.py\0", "archive": b""}
        return type("Done", (), {"stdout": next((v for k, v in listing.items() if k in cmd), b"")})()

    trees = {}

    def fake_run_once(tree, workload, seed, seconds):
        side = "before" if tree.name.startswith("bench-parent-") else "after"
        trees.setdefault(side, set()).add(tree)
        assert tree.resolve() != checkout.resolve() and not tree.resolve().is_relative_to(checkout.resolve())
        if side == "after":  # the working tree's files, with no cache carried over
            assert (tree / "src" / "mod.py").read_text() == "edited = True\n"
            assert not (tree / "src" / "__pycache__").exists() and not (tree / "gone.py").exists()
        result = tmp_path / f"{side}-{seed}.json"
        result.write_text('{"environment": {}}')
        return {"summary": _summary(0.2, 10), "result_file": result}

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_git)
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda signum, handler: None)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "compare_runs", lambda a, b: {"identical": True})
    out = tmp_path / "BENCH_x.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--seeds", "1-2", "--out", str(out), "--change", "c"]) == 0
    assert {side: len(t) for side, t in trees.items()} == {"before": 1, "after": 1}
    assert not any(t.exists() for side in trees.values() for t in side)
