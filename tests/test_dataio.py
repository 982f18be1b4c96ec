import csv
import io
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from puomm import dataio
from puomm.baselines import TwoPartModel
from puomm.dataio import (
    ingest_csv,
    model_from_dict,
    model_to_dict,
    read_model_json,
    read_sim_meta,
    write_dataset_csv,
    write_model_json,
    write_sim_meta,
)
from puomm.model import Dataset, ParamPair
from puomm.optimizer import FitResult
from puomm.selection import PuOmmModel
from puomm.simulate import SimConfig, make_datasets

pytestmark = pytest.mark.usefixtures("fork_hygiene")


def test_dataset_csv_roundtrip_bit_exact(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=200, p=3, seed=1, n_test=10))
    path = tmp_path / "train.csv"
    write_dataset_csv(sim.train, path)
    back = ingest_csv(path, schema="simulated")
    assert np.array_equal(back.x, sim.train.x)
    assert np.array_equal(back.z, sim.train.z)
    assert np.array_equal(back.y, sim.train.y)
    assert np.array_equal(back.u, sim.train.u)
    assert np.array_equal(back.r, sim.train.r)


def test_dataset_csv_byte_identical_across_writes(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=100, p=2, seed=2, n_test=10))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset_csv(sim.train, p1)
    write_dataset_csv(sim.train, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_csv_schema_columns(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=20, p=10, seed=3, n_test=10))
    path = tmp_path / "d.csv"
    write_dataset_csv(sim.train, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == [f"x_{j}" for j in range(1, 11)] + ["z", "y", "u", "r"]


def test_ingest_observed_only_ignores_latent(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=50, p=2, seed=4, n_test=10))
    path = tmp_path / "d.csv"
    write_dataset_csv(sim.train, path)
    ds = ingest_csv(path, schema="observed_only")
    assert ds.y is None and ds.u is None and ds.r is None
    assert not ds.has_latent


def test_ingest_reports_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["x_1,z"] + [f"{i * 0.1},1.0" for i in range(20)]
    rows[17] = "0.3,oops"  # file line 18
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 18"):
        ingest_csv(path)


def test_ingest_rejects_negative_z_with_line(tmp_path):
    path = tmp_path / "neg.csv"
    rows = ["x_1,z"] + ["0.5,1.0"] * 20
    rows[16] = "0.5,-2.0"  # file line 17
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 17"):
        ingest_csv(path)


def test_ingest_requires_columns(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("x_1,x_3,z\n0.1,0.2,0.0\n")
    with pytest.raises(ValueError, match="no gaps"):
        ingest_csv(path)
    path.write_text("x_1,x_2\n0.1,0.2\n")
    with pytest.raises(ValueError, match="missing required column z"):
        ingest_csv(path)
    path.write_text("x_1,z\n0.1,0.0\n")
    with pytest.raises(ValueError, match="simulated schema missing"):
        ingest_csv(path, schema="simulated")


def test_ingest_indicator_counts(tmp_path):
    path = tmp_path / "d.csv"
    lines = ["x_1,z"] + ["1.0,0.0"] * 7 + ["1.0,2.5"] * 13
    path.write_text("\n".join(lines) + "\n")
    ds = ingest_csv(path)
    assert int((ds.z > 0).sum()) == 13
    assert ds.n == 20


def test_wildfire_scale_stand_in_loads(tmp_path):
    # same shape as the motivating application: 15846 rows, 43 features
    rng = np.random.default_rng(5)
    n, p = 15846, 43
    x = rng.standard_normal((n, p))
    z = np.where(rng.random(n) < 0.5, rng.exponential(1.0, n), 0.0)
    path = tmp_path / "standin.csv"
    write_dataset_csv(Dataset(x=x, z=z), path)
    ds = ingest_csv(path)
    assert (ds.n, ds.p) == (n, p)


def _csv_writer_bytes(ds):
    """The file as a csv.writer of repr'd cells writes it: the format's reference."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    cols = [ds.x, ds.z[:, None]] + ([ds.y[:, None], ds.u[:, None], ds.r[:, None]] if ds.has_latent else [])
    writer.writerow([f"x_{j + 1}" for j in range(ds.p)] + ["z"] + (["y", "u", "r"] if ds.has_latent else []))
    writer.writerows([[repr(float(v)) for v in row] for row in np.hstack(cols)])
    return buf.getvalue().encode()


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308, 0.1])
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**53), 2**53).map(float),
    _EDGE_FLOATS,
)
_NONNEG = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**53).map(float),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7e308]),
)


@st.composite
def _datasets(draw):
    n = draw(st.integers(0, 200))
    p = draw(st.integers(1, 6))
    x = draw(arrays(np.float64, (n, p), elements=_FINITE))
    z = draw(arrays(np.float64, (n,), elements=_NONNEG))
    return Dataset(x=x, z=z)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_datasets())
def test_dataset_csv_roundtrip_property(ds):
    with tempfile.TemporaryDirectory() as d:
        p1, p2 = Path(d) / "a.csv", Path(d) / "b.csv"
        write_dataset_csv(ds, p1)
        write_dataset_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes() == _csv_writer_bytes(ds)
        back = ingest_csv(p1)
    assert back.x.shape == ds.x.shape and back.x.flags.c_contiguous
    assert np.array_equal(_bits(back.x), _bits(ds.x))
    assert np.array_equal(_bits(back.z), _bits(ds.z))


def test_dataset_csv_writer_matches_reference_with_latent(tmp_path):
    sim = make_datasets(SimConfig(setting="lognormal", n=5000, p=3, seed=11, n_test=10))
    path = tmp_path / "d.csv"
    write_dataset_csv(sim.train, path)  # more than one block of rows
    assert path.read_bytes() == _csv_writer_bytes(sim.train)


_GOOD = ["x_1,z"] + [f"{i * 0.25},{i * 0.5}" for i in range(12)]


def _with_line(line_no, text):
    lines = list(_GOOD)
    lines[line_no - 1] = text
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param("\n".join(_GOOD[:6] + [""] + _GOOD[6:]) + "\n", "line 7: expected 2 cells, got 0", id="blank"),
        pytest.param("x_1,z\n\n", "line 2: expected 2 cells, got 0", id="blank-only"),
        pytest.param(_with_line(5, "0.5"), "line 5: expected 2 cells, got 1", id="short"),
        pytest.param(_with_line(9, "0.5,1.0,2.0"), "line 9: expected 2 cells, got 3", id="long"),
        pytest.param(_with_line(4, "0.5,"), "line 4: non-numeric cell", id="empty-cell"),
        pytest.param(_with_line(11, "abc,1.0"), "line 11: non-numeric cell", id="non-numeric"),
        pytest.param(_with_line(6, "0.5,-1.5"), "line 6: z must be nonnegative, got -1.5", id="negative-z"),
        pytest.param(_with_line(3, "0.5,nan"), "line 3: non-finite cell", id="nan"),
        pytest.param(_with_line(8, "inf,1.0"), "line 8: non-finite cell", id="inf"),
        pytest.param(_with_line(13, "0.5,1e400"), "line 13: non-finite cell", id="overflow"),
        # line 6 is "1.0,2.0": a negative z there is reported before the bad cell on line 10
        pytest.param(_with_line(10, "abc,1.0").replace("1.0,2.0", "1.0,-2.0"), "line 6: z must be nonnegative",
                     id="earlier-negative-z-wins"),
    ],
)
def test_ingest_bad_file_names_first_bad_line(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(ValueError, match=message):
        ingest_csv(path)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param('x_1,z\n"0.5",1.0\n1_0,"2.0"\n', id="quoted-and-underscore"),
        pytest.param("x_1,z\r\n0.5,1.0\r\n10.0,2.0\r\n", id="crlf"),
        pytest.param("x_1,z\r0.5,1.0\r10.0,2.0\r", id="cr"),
        pytest.param("x_1,z\n0.5,1.0\n10.0,2.0", id="no-final-newline"),
    ],
)
def test_ingest_accepts_files_read_as_before(tmp_path, content):
    path = tmp_path / "ok.csv"
    path.write_text(content, newline="")
    ds = ingest_csv(path)
    assert np.array_equal(ds.x, [[0.5], [10.0]])
    assert np.array_equal(ds.z, [1.0, 2.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([b"1", b",", b"\n", b"\r", b"\r\n"]), max_size=30), st.integers(1, 4))
def test_line_count_matches_splitlines_across_chunks(parts, chunk):
    content = b"".join(parts)
    with tempfile.TemporaryDirectory() as d, mock.patch.object(dataio, "_CHUNK_BYTES", chunk):
        path = Path(d) / "f.csv"
        path.write_bytes(content)
        assert dataio._count_lines(path) == len(content.splitlines())


def test_ingest_header_only_gives_empty_dataset(tmp_path):
    for content in ("x_1,x_2,z\n", "x_1,x_2,z"):
        path = tmp_path / "empty.csv"
        path.write_text(content)
        ds = ingest_csv(path)  # loadtxt's no-data warning would fail the suite
        assert ds.x.shape == (0, 2) and ds.z.shape == (0,)


def test_ingest_ignores_non_finite_latent_under_observed_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_1,z,y,u,r\n0.5,1.0,nan,1.0,1.0\n0.25,0.0,0.0,0.0,1.0\n")
    ds = ingest_csv(path, schema="observed_only")
    assert np.array_equal(ds.z, [1.0, 0.0])
    with pytest.raises(ValueError, match="line 2: non-finite cell"):
        ingest_csv(path, schema="simulated")


def test_ingest_simulated_names_first_latent_mismatch(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=40, p=2, seed=12, n_test=10))
    path = tmp_path / "d.csv"
    write_dataset_csv(sim.train, path)
    lines = path.read_text().splitlines()
    cells = lines[23].split(",")
    cells[2] = repr(float(cells[2]) + 1.0)  # z no longer equals y * r
    lines[23] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 24: z must equal y \\* r"):
        ingest_csv(path, schema="simulated")
    with pytest.raises(ValueError, match="line 24"):
        ingest_csv(path, schema="auto")
    assert ingest_csv(path, schema="observed_only").n == 40


def _split_at(rows):
    return mock.patch.object(dataio, "_SPLIT_MIN_ROWS", rows)


def _serial():
    return mock.patch.object(dataio, "_can_split", return_value=False)


def _counting_fork():
    return mock.patch.object(os, "fork", wraps=os.fork)


def _same_dataset(a, b):
    return all(
        (getattr(a, k) is None and getattr(b, k) is None) or np.array_equal(_bits(getattr(a, k)), _bits(getattr(b, k)))
        for k in ("x", "z", "y", "u", "r")
    )


def test_split_write_and_ingest_match_serial(tmp_path):
    sim = make_datasets(SimConfig(setting="lognormal", n=301, p=3, seed=13, n_test=10))
    split, serial = tmp_path / "split.csv", tmp_path / "serial.csv"
    with _split_at(100), _counting_fork() as fork:
        write_dataset_csv(sim.train, split)
        assert fork.call_count == 1
        read = {schema: ingest_csv(split, schema) for schema in ("observed_only", "simulated", "auto")}
        assert fork.call_count == 4
        records, n_cells = 301, 7
        table = dataio._load_split(split, records, n_cells)  # the split itself succeeded
    with _serial():
        write_dataset_csv(sim.train, serial)
        for schema, ds in read.items():
            assert _same_dataset(ds, ingest_csv(serial, schema))
    assert split.read_bytes() == serial.read_bytes() == _csv_writer_bytes(sim.train)
    assert table is not None and np.array_equal(_bits(table), _bits(np.loadtxt(serial, delimiter=",", skiprows=1)))


@pytest.mark.parametrize("end", ["\n", ""], ids=["final-newline", "no-final-newline"])
def test_split_paths_succeed(tmp_path, end):
    table = np.arange(60.0).reshape(30, 2)
    path = tmp_path / "d.csv"
    assert dataio._write_split(path, "x_1,z\n", table)
    with _serial():
        write_dataset_csv(Dataset(x=table[:, :1], z=table[:, 1]), tmp_path / "serial.csv")
    assert path.read_bytes() == (tmp_path / "serial.csv").read_bytes()
    path.write_text(path.read_text()[:-1] + end)
    assert np.array_equal(dataio._load_split(path, 30, 2), table)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_datasets())
def test_split_roundtrip_property(ds):
    with tempfile.TemporaryDirectory() as d, _split_at(2):
        path = Path(d) / "a.csv"
        write_dataset_csv(ds, path)
        assert path.read_bytes() == _csv_writer_bytes(ds)
        back = ingest_csv(path)
        assert os.listdir(d) == ["a.csv"]
    assert np.array_equal(_bits(back.x), _bits(ds.x))
    assert np.array_equal(_bits(back.z), _bits(ds.z))


_BAD_LINES = {
    "short": "0.5",
    "long": "0.5,1.0,2.0",
    "empty-cell": "0.5,",
    "non-numeric": "abc,1.0",
    "negative-z": "0.5,-1.5",
    "nan": "0.5,nan",
    "inf": "inf,1.0",
    "overflow": "0.5,1e400",
    "blank": "",
}


def _error(path):
    with pytest.raises(ValueError) as exc:
        ingest_csv(path)
    return str(exc.value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(20, 60), st.sampled_from(sorted(_BAD_LINES)), st.floats(0.0, 1.0), st.booleans())
@example(rows=40, kind="blank", where=0.1, insert=True)  # a blank line in the head: loadtxt skips it
@example(rows=40, kind="blank", where=0.9, insert=True)
def test_split_ingest_names_the_serial_error(rows, kind, where, insert):
    lines = ["x_1,z"] + [f"{i * 0.25},{i * 0.5}" for i in range(rows)]
    at = 1 + min(int(where * rows), rows - 1)  # 0-based index of a data line, in either half
    lines[at : at + (not insert)] = [_BAD_LINES[kind]]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with _serial():
            expected = _error(path)
        with _split_at(20), _counting_fork() as fork:
            assert _error(path) == expected
            assert fork.call_count == 1
    assert f"line {at + 1}:" in expected


def test_split_ingest_blank_line_in_head_is_located(tmp_path):
    # 20,000 rows and one blank line: the head must not read a row past the cut to make up for it
    path = tmp_path / "blank.csv"
    lines = ["x_1,z"] + ["0.5,1.0"] * 20_000
    lines.insert(100, "")
    path.write_text("\n".join(lines) + "\n")
    with _counting_fork() as fork, pytest.raises(ValueError, match="line 101: expected 2 cells, got 0"):
        ingest_csv(path)
    assert fork.call_count == 1


@pytest.mark.parametrize(
    "content",
    [
        pytest.param("x_1,z\r\n" + "0.5,1.0\r\n" * 30, id="crlf"),
        pytest.param("x_1,z\n" + "0.5,1.0\n" * 10 + "0.5,1.0\r" + "0.5,1.0\n" * 20, id="lone-cr-in-head"),
        pytest.param("x_1,z\n" + "0.5,1.0\n" * 20 + "0.5,1.0\r" + "0.5,1.0\n" * 10, id="lone-cr-in-tail"),
        pytest.param('x_1,z,"a\nb"\n' + "0.5,1.0,2.0\n" * 30, id="header-spans-two-lines"),
        pytest.param("x_1,z\n" + "0.5,1.0\n" * 30 + "\n", id="blank-last-line"),
    ],
)
def test_split_ingest_falls_back_to_serial(tmp_path, content):
    path = tmp_path / "d.csv"
    path.write_text(content, newline="")
    with _serial():
        try:
            expected = ingest_csv(path)
        except ValueError as exc:
            expected = str(exc)
    with _split_at(10), _counting_fork() as fork:
        try:
            got = ingest_csv(path)
        except ValueError as exc:
            got = str(exc)
        assert fork.call_count == 1
    assert got == expected if isinstance(expected, str) else _same_dataset(got, expected)


def _failing_in_child(fn, fail):
    parent = os.getpid()

    def wrapper(*args):
        if os.getpid() != parent:
            fail()
        return fn(*args)

    return wrapper


def _raise():
    raise RuntimeError("child failed")


@pytest.mark.parametrize("fail", [lambda: os._exit(3), _raise], ids=["exit", "raise"])
def test_failed_child_gives_serial_result(tmp_path, fail):
    sim = make_datasets(SimConfig(setting="correct", n=300, p=2, seed=14, n_test=10))
    path = tmp_path / "d.csv"
    with _split_at(100), _counting_fork() as fork:
        with mock.patch.object(dataio, "_write_table", _failing_in_child(dataio._write_table, fail)):
            write_dataset_csv(sim.train, path)
        assert path.read_bytes() == _csv_writer_bytes(sim.train)
        with mock.patch.object(dataio, "_newlines", _failing_in_child(dataio._newlines, fail)):
            ds = ingest_csv(path, schema="simulated")
        assert fork.call_count == 2
    assert _same_dataset(ds, sim.train)


def test_parent_half_error_reaps_child_and_removes_temp(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=300, p=2, seed=15, n_test=10))
    write_table = dataio._write_table

    def parent_fails(path, header, table):
        if header:  # the parent's half; the child's has no header
            raise OSError("disk full")
        write_table(path, header, table)

    with _split_at(100), mock.patch.object(dataio, "_write_table", parent_fails):
        with pytest.raises(OSError, match="disk full"):
            write_dataset_csv(sim.train, tmp_path / "d.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == []  # the output was never opened


def test_no_fork_while_another_thread_runs(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=300, p=2, seed=16, n_test=10))
    path = tmp_path / "d.csv"
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with _split_at(100), _counting_fork() as fork:
            write_dataset_csv(sim.train, path)
            ds = ingest_csv(path, schema="simulated")
        assert fork.call_count == 0
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert path.read_bytes() == _csv_writer_bytes(sim.train)
    assert _same_dataset(ds, sim.train)


def test_serial_path_without_fork_or_second_cpu(tmp_path, monkeypatch):
    sim = make_datasets(SimConfig(setting="correct", n=300, p=2, seed=17, n_test=10))
    path = tmp_path / "d.csv"
    with _split_at(100):
        with _counting_fork() as fork, mock.patch.object(os, "sched_getaffinity", return_value={0}):
            write_dataset_csv(sim.train, path)
            assert _same_dataset(ingest_csv(path, schema="simulated"), sim.train)
        assert fork.call_count == 0
        with mock.patch.object(os, "fork", side_effect=BlockingIOError("no process")):
            write_dataset_csv(sim.train, path)
            assert _same_dataset(ingest_csv(path, schema="simulated"), sim.train)
        assert path.read_bytes() == _csv_writer_bytes(sim.train)
        monkeypatch.delattr(os, "fork")
        write_dataset_csv(sim.train, path)
        assert _same_dataset(ingest_csv(path, schema="simulated"), sim.train)
    assert path.read_bytes() == _csv_writer_bytes(sim.train)


def test_sim_meta_roundtrip(tmp_path):
    sim = make_datasets(SimConfig(setting="lognormal", n=30, p=4, seed=6, n_test=10))
    path = tmp_path / "meta.json"
    write_sim_meta(sim, path)
    meta = read_sim_meta(path)
    assert np.array_equal(meta["beta0"], sim.beta0)
    assert np.array_equal(meta["theta0"], sim.theta0)
    assert meta["config"]["setting"] == "lognormal"
    assert meta["config"]["seed"] == 6


def test_pu_omm_model_json_roundtrip(tmp_path):
    omega = ParamPair(np.array([0.1, -0.2]), np.array([0.3, 0.4]))
    res = FitResult(omega_hat=omega, converged=True, iterations=17, final_loss=0.5)
    model = PuOmmModel(omega_hat=omega, lambda_hat=0.24, fit=res, selection_scores=[(0.24, 0.1), (1.0, 0.2)])
    path = tmp_path / "m.json"
    write_model_json(model, "pu_omm", path)
    back = read_model_json(path)
    assert isinstance(back, PuOmmModel)
    assert np.array_equal(back.beta, model.beta)
    assert back.lambda_hat == 0.24
    assert back.selection_scores == model.selection_scores


def test_two_part_model_json_roundtrip(tmp_path):
    model = TwoPartModel(np.array([1.0]), np.array([2.0]), "lognormal", aux=0.3, flags=("separation",))
    path = tmp_path / "m.json"
    write_model_json(model, "logistic_lognormal", path)
    back = read_model_json(path)
    assert isinstance(back, TwoPartModel)
    assert back.magnitude_family == "lognormal"
    assert back.aux == 0.3
    assert back.flags == ("separation",)


def test_model_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "mystery"})
    with pytest.raises(TypeError):
        model_to_dict(object(), "m")
