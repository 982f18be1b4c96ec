import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import re
import stat
import tempfile
import tracemalloc
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
from puomm.model import Dataset, ParamPair, RowError
from puomm.optimizer import FitResult
from puomm.selection import PuOmmModel
from puomm.simulate import SimConfig, make_datasets

from conftest import assert_read_only, reference_row_error, tables_with_bad_cells

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


def _wildfire_stand_in(tmp_path):
    """A sidecar-less CSV of the motivating application's shape: 15846 rows, 43 features."""
    rng = np.random.default_rng(5)
    n, p = 15846, 43
    x = rng.standard_normal((n, p))
    z = np.where(rng.random(n) < 0.5, rng.exponential(1.0, n), 0.0)
    path = tmp_path / "standin.csv"
    write_dataset_csv(Dataset(x=x, z=z), path)
    return path, n, p


def test_wildfire_scale_stand_in_loads(tmp_path):
    path, n, p = _wildfire_stand_in(tmp_path)
    ds = ingest_csv(path)
    assert (ds.n, ds.p) == (n, p)


def test_ingest_parses_a_large_file_without_forking(tmp_path):
    path, n, p = _wildfire_stand_in(tmp_path)
    assert n * (p + 1) >= 50_000
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        ds = ingest_csv(path)
    assert fork.call_count == 0
    assert (ds.n, ds.p) == (n, p)


def _csv_writer_bytes(ds):
    """The file as a csv.writer of repr'd cells writes it: the format's reference."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    cols = [ds.x, ds.z[:, None]] + ([ds.y[:, None], ds.u[:, None], ds.r[:, None]] if ds.has_latent else [])
    writer.writerow([f"x_{j + 1}" for j in range(ds.p)] + ["z"] + (["y", "u", "r"] if ds.has_latent else []))
    writer.writerows([[repr(float(v)) for v in row] for row in np.hstack(cols)])
    return buf.getvalue().encode()


# repr writes |v| < 1e-4 and |v| >= 1e16 in exponent form: values on both sides of each switch
_EDGE_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308, 0.1,
    1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, -1e-5, 2.0**53,
])
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
        digest = write_dataset_csv(ds, p1)
        write_dataset_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes() == _csv_writer_bytes(ds)
        assert digest == hashlib.sha256(p1.read_bytes()).digest()
        back = ingest_csv(p1)
    assert back.x.shape == ds.x.shape and back.x.flags.c_contiguous
    assert np.array_equal(_bits(back.x), _bits(ds.x))
    assert np.array_equal(_bits(back.z), _bits(ds.z))


def test_dataset_csv_writer_matches_reference_with_latent(tmp_path):
    sim = make_datasets(SimConfig(setting="lognormal", n=5000, p=3, seed=11, n_test=10))
    path = tmp_path / "d.csv"
    write_dataset_csv(sim.train, path)  # more than one block of rows
    assert path.read_bytes() == _csv_writer_bytes(sim.train)


_B = dataio._BLOCK_ROWS
_N = 2 * _B + 7  # two full blocks and a partial one
# (case, n, rows given a cell repr writes as 1.2e-05, rows given one it writes as 1.2e+17)
_EXPONENT_CASES = [
    ("scattered", _N, range(0, _N, 5), range(0, _N, 7)),
    ("first-row-of-each-block", _N, [0, 2 * _B], [_B]),
    ("last-row-of-each-block", _N, [_B - 1, _N - 1], [2 * _B - 1]),
    ("adjacent-rows", _N, [5, 6, _B - 1], [_B, _B + 1, _B + 2]),
    ("every-row", _N, range(0, _N, 2), range(1, _N, 2)),
    ("one-row-last-block", 2 * _B + 1, [2 * _B], []),
    ("one-row-last-block-all-positional", 2 * _B + 1, [], []),
]


def test_dataset_csv_mixes_exponent_and_positional_cells_across_blocks(tmp_path):
    for case, n, small_rows, large_rows in _EXPONENT_CASES:
        rng = np.random.default_rng(8)
        x = rng.uniform(0.5, 2.0, (n, 3)) * rng.choice([-1.0, 1.0], (n, 3))  # every cell positional, until:
        x[small_rows, 0] *= 1e-5  # repr writes |v| < 1e-4 as 1.2e-05 ...
        x[large_rows, 2] *= 1e17  # ... and |v| >= 1e16 as 1.2e+17, in rows whose other cells are positional
        z = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 2.0, n), 0.0)
        ds = Dataset(x=x, z=z)
        path = tmp_path / f"{case}.csv"
        digest = write_dataset_csv(ds, path)
        data = path.read_bytes()
        assert data == _csv_writer_bytes(ds), case
        assert digest == hashlib.sha256(data).digest(), case
        lines = data.split(b"\n")[1:-1]
        assert len(lines) == n, case
        assert [i for i, line in enumerate(lines) if b"e-" in line] == sorted(small_rows), case
        assert [i for i, line in enumerate(lines) if b"e+" in line] == sorted(large_rows), case
        back = ingest_csv(path)
        assert np.array_equal(_bits(back.x), _bits(x)) and np.array_equal(_bits(back.z), _bits(z)), case


_GOOD = ["x_1,z"] + [f"{i * 0.25},{i * 0.5}" for i in range(12)]


def _with_line(line_no, text):
    lines = list(_GOOD)
    lines[line_no - 1] = text
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "content, message",
    [
        pytest.param("\n".join(_GOOD[:6] + [""] + _GOOD[6:]) + "\n", "line 7: expected 2 cells, got 0", id="blank"),
        pytest.param("\n".join(_GOOD) + "\n\n", "line 14: expected 2 cells, got 0", id="blank-last-line"),
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


def _blocks_after_cells_spanning_lines(bad_z: str) -> str:
    """Three blocks of rows: cells spanning two and three lines, then z = bad_z on line 2105, in the third block."""
    rows = [f"{i * 0.25},{i * 0.5}" for i in range(3 * dataio._BLOCK_ROWS)]
    rows[5] = '"0.5\n",1.0'
    rows[1500] = '1.0,"\n\n2.0"'
    rows[2100] = f"0.75,{bad_z}"
    return "\n".join(["x_1,z"] + rows) + "\n"


@pytest.mark.parametrize(
    "content, schema, message",
    [
        pytest.param('x_1,z\n"0.5\n",1.0\nabc,2.0\n', "observed_only", "line 4: non-numeric cell",
                     id="after-a-cell-spanning-lines"),
        pytest.param('x_1,z,"a\nb"\n0.5,1.0,2\nabc,2.0,3\n', "observed_only", "line 4: non-numeric cell",
                     id="after-a-header-spanning-lines"),
        pytest.param('x_1,z\n"0.5\n",1.0\n1.0,-2.0\n', "observed_only", "line 4: z must be nonnegative, got -2.0",
                     id="negative-z"),
        pytest.param('x_1,z\n"0.5\n",1.0\n1.0,nan\n', "observed_only", "line 4: non-finite cell", id="non-finite"),
        pytest.param('x_1,z,y,u,r\n"0.5\n",1.0,1.0,1.0,1.0\n0.5,1.0,2.0,1.0,1.0\n', "simulated",
                     r"line 4: z must equal y \* r", id="latent-rule"),
        pytest.param(_blocks_after_cells_spanning_lines("-1.5"), "observed_only",
                     "line 2105: z must be nonnegative, got -1.5", id="negative-z-blocks-later"),
        pytest.param(_blocks_after_cells_spanning_lines("nan"), "observed_only", "line 2105: non-finite cell",
                     id="non-finite-blocks-later"),
    ],
)
def test_the_row_loop_names_the_line_a_row_ends_on(tmp_path, content, schema, message):
    # a quoted cell spanning lines puts every later row below line index + 2
    path = tmp_path / "bad.csv"
    path.write_text(content, newline="")
    with pytest.raises(ValueError, match=f": {message}$"):
        ingest_csv(path, schema=schema)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param('x_1,z\n"0.5",1.0\n1_0,"2.0"\n', id="quoted-and-underscore"),
        pytest.param("x_1,z\r\n0.5,1.0\r\n10.0,2.0\r\n", id="crlf"),
        pytest.param("x_1,z\r0.5,1.0\r10.0,2.0\r", id="cr"),
        pytest.param("x_1,z\n0.5,1.0\r10.0,2.0\n", id="lone-cr"),
        pytest.param('x_1,z,"a\nb"\n0.5,1.0,2.0\n10.0,2.0,3.0\n', id="header-spans-two-lines"),
        pytest.param('x_1,z\n"0.5\n",1.0\n10.0,"\r\n2.0"\n', id="cells-span-two-lines"),
        pytest.param("x_1,z\n0.5,1.0\n10.0,2.0", id="no-final-newline"),
    ],
)
def test_ingest_accepts_files_read_as_before(tmp_path, content):
    path = tmp_path / "ok.csv"
    path.write_text(content, newline="")
    ds = ingest_csv(path)
    assert np.array_equal(ds.x, [[0.5], [10.0]])
    assert np.array_equal(ds.z, [1.0, 2.0])


@pytest.mark.parametrize(
    "content",
    [
        pytest.param("x_1,z\r\n" + "0.5,1.0\r\n" * 30, id="crlf"),
        pytest.param("x_1,z\n" + "0.5,1.0\n" * 10 + "0.5,1.0\r" + "0.5,1.0\n" * 20, id="lone-cr-in-head"),
        pytest.param("x_1,z\n" + "0.5,1.0\n" * 20 + "0.5,1.0\r" + "0.5,1.0\n" * 10, id="lone-cr-in-tail"),
    ],
)
def test_split_ingest_falls_back_to_serial(tmp_path, content):
    # line endings that once made the reader give up its two-core split: the one parse reads every row
    path = tmp_path / "d.csv"
    path.write_text(content, newline="")
    ds = ingest_csv(path)
    rows = len(content.splitlines()) - 1
    assert np.array_equal(ds.x, np.full((rows, 1), 0.5))
    assert np.array_equal(ds.z, np.ones(rows))


@settings(max_examples=100, deadline=None)
@given(tables_with_bad_cells())
def test_ingest_names_the_first_bad_line(table):
    # the reader names line i + 2 exactly where Dataset names row i, with the same rule
    x, cols = table
    row, rule = reference_row_error(x, cols)
    with pytest.raises(RowError, match=f"^{re.escape(f'row {row}: {rule}')}$"):
        Dataset(x=x, **cols)
    lines = [",".join([f"x_{j + 1}" for j in range(x.shape[1])] + list(cols))]
    lines += [",".join(repr(float(v)) for v in cells) for cells in zip(*x.T, *cols.values())]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f": line {row + 2}: {re.escape(rule)}$"):
            ingest_csv(path, schema="auto")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from([b"1", b",", b"\n", b"\r", b"\r\n"]), max_size=30),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_line_count_matches_splitlines_across_chunks(parts, chunk, mask):
    # line ends straddle chunk boundaries and, within a chunk, the boundaries of the counting mask
    content = b"".join(parts)
    with (
        tempfile.TemporaryDirectory() as d,
        mock.patch.object(dataio, "_CHUNK_BYTES", chunk),
        mock.patch.object(dataio, "_MASK_BYTES", mask),
    ):
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


def _same_dataset(a, b):
    return all(
        (getattr(a, k) is None and getattr(b, k) is None) or np.array_equal(_bits(getattr(a, k)), _bits(getattr(b, k)))
        for k in ("x", "z", "y", "u", "r")
    )


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(20, 60), st.sampled_from(sorted(_BAD_LINES)), st.floats(0.0, 1.0), st.booleans())
@example(rows=40, kind="blank", where=0.1, insert=True)  # a blank line, which loadtxt skips
@example(rows=40, kind="blank", where=0.9, insert=True)
def test_ingest_names_the_bad_line_at_any_position(rows, kind, where, insert):
    lines = ["x_1,z"] + [f"{i * 0.25},{i * 0.5}" for i in range(rows)]
    at = 1 + min(int(where * rows), rows - 1)  # 0-based index of a data line
    lines[at : at + (not insert)] = [_BAD_LINES[kind]]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f": line {at + 1}: "):
            ingest_csv(path)


def test_ingest_locates_a_blank_line_in_a_large_file(tmp_path):
    path = tmp_path / "blank.csv"
    lines = ["x_1,z"] + ["0.5,1.0"] * 20_000
    lines.insert(100, "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 101: expected 2 cells, got 0"):
        ingest_csv(path)


def test_sim_meta_roundtrip(tmp_path):
    sim = make_datasets(SimConfig(setting="lognormal", n=30, p=4, seed=6, n_test=10))
    path = tmp_path / "meta.json"
    write_sim_meta(sim, path)
    meta = read_sim_meta(path)
    assert np.array_equal(meta["beta0"], sim.beta0)
    assert np.array_equal(meta["theta0"], sim.theta0)
    assert meta["config"]["setting"] == "lognormal"
    assert meta["config"]["seed"] == 6


def test_sim_meta_config_holds_every_sim_config_field(tmp_path):
    cfg = SimConfig(setting="threshold", n=20, p=3, tau=1.5, param_scale=0.5, seed=2, n_test=10)
    path = tmp_path / "meta.json"
    write_sim_meta(make_datasets(cfg), path)
    config = read_sim_meta(path)["config"]
    assert list(config) == sorted(f.name for f in dataclasses.fields(SimConfig))
    assert SimConfig(**config) == cfg


@pytest.mark.parametrize("header", ["x_1,z,z", "x_1,x_1,z", "x_1,z,y,u,r,r", "x_1,z,note,note"])
def test_ingest_rejects_a_repeated_column_name(tmp_path, header):
    path = tmp_path / "dup.csv"
    names = header.split(",")
    row = {"x_1": "0.5", "z": "1.0", "y": "1.0", "u": "1.0", "r": "1.0", "note": "2.0"}
    cells = [row[name] for name in names]
    cells[-1] = "-3.0"  # the second copy would be rejected if read, and must not be skipped silently
    path.write_text(header + "\n" + ",".join(cells) + "\n")
    repeated = next(name for i, name in enumerate(names) if name in names[:i])
    for schema in _SCHEMAS:
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: column '{repeated}' appears more than once"):
            ingest_csv(path, schema)


_SCHEMAS = ("observed_only", "simulated", "auto")


def _simulated_csv(tmp_path, setting="correct", seed=21, n=300, p=3):
    """A simulated training CSV of n rows with its table sidecar, and the dataset it was written from."""
    sim = make_datasets(SimConfig(setting=setting, n=max(n, 1), p=p, seed=seed, n_test=10))
    train = sim.train.subset(np.arange(n))
    path = tmp_path / "train.csv"
    dataio.write_dataset_with_table(train, path)
    return path, train


@contextlib.contextmanager
def _no_parse():
    """Fail every parse of CSV text, so a read that succeeds came from the sidecar."""
    with contextlib.ExitStack() as stack:
        for name in ("_load_rows", "_parse_rows"):
            stack.enter_context(mock.patch.object(dataio, name, side_effect=AssertionError(f"{name} ran")))
        yield


@pytest.mark.parametrize("setting", ["correct", "lognormal", "threshold"])
def test_sidecar_read_is_bit_identical_to_the_parse(tmp_path, setting):
    # one block, two full blocks and a partial one, and no rows at all
    for n in (300, 2 * dataio._BLOCK_ROWS + 5, 0):
        (tmp_path / str(n)).mkdir()
        path, train = _simulated_csv(tmp_path / str(n), setting, n=n)
        with _no_parse():
            via_sidecar = {schema: ingest_csv(path, schema) for schema in _SCHEMAS}
        dataio.sidecar_path(path).unlink()
        for schema, ds in via_sidecar.items():
            assert ds.n == n and ds.x.flags.c_contiguous
            parsed = ingest_csv(path, schema)
            assert _same_dataset(ds, parsed)
            assert_read_only(ds)
            assert_read_only(parsed)
        assert _same_dataset(via_sidecar["simulated"], train)
        assert via_sidecar["observed_only"].y is None and via_sidecar["auto"].has_latent


def _npy(table):
    buf = io.BytesIO()
    np.save(buf, table, allow_pickle=False)
    return buf.getvalue()


_BAD_SIDECARS = {
    "truncated": lambda data, table: data[:-9],
    # the payload ends where the last, partial block of rows begins
    "truncated_last_block": lambda data, table: data[: len(data) - len(table) % dataio._BLOCK_ROWS * table.shape[1] * 8],
    "fortran_order": lambda data, table: data[:32] + _npy(np.asfortranarray(table)),
    "truncated_header": lambda data, table: data[:40],
    "garbage": lambda data, table: bytes(range(256)) * 8,
    "wrong_digest": lambda data, table: bytes([data[0] ^ 1]) + data[1:],
    "wrong_shape": lambda data, table: data[:32] + _npy(table[:-1]),
    "wrong_dtype": lambda data, table: data[:32] + _npy(table.astype(np.float32)),
}


@pytest.mark.parametrize("bad", sorted(_BAD_SIDECARS))
def test_a_bad_sidecar_falls_back_to_the_parse(tmp_path, bad):
    path, train = _simulated_csv(tmp_path, n=2 * dataio._BLOCK_ROWS + 5)
    sidecar = dataio.sidecar_path(path)
    table = np.load(io.BytesIO(sidecar.read_bytes()[32:]))
    sidecar.write_bytes(_BAD_SIDECARS[bad](sidecar.read_bytes(), table))
    with mock.patch.object(dataio, "_load_rows", wraps=dataio._load_rows) as parse:
        read = {schema: ingest_csv(path, schema) for schema in _SCHEMAS}
    assert parse.call_count == len(_SCHEMAS)
    assert _same_dataset(read["simulated"], train)
    sidecar.unlink()
    for schema, ds in read.items():
        assert _same_dataset(ds, ingest_csv(path, schema))


def test_an_edited_csv_is_parsed_again(tmp_path):
    path, train = _simulated_csv(tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[0] = "1.25"  # x_1 of data row 4
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    ds = ingest_csv(path, schema="simulated")
    assert ds.x[4, 0] == 1.25
    assert np.array_equal(np.delete(ds.x, 4, axis=0), np.delete(train.x, 4, axis=0))


def test_ingest_leaves_the_directory_listing_unchanged(tmp_path):
    path, _ = _simulated_csv(tmp_path)
    (tmp_path / "plain.csv").write_text("x_1,z\n0.5,1.0\n")
    sidecar = dataio.sidecar_path(path)
    for data in (sidecar.read_bytes(), b"garbage"):
        sidecar.write_bytes(data)
        before = sorted(os.listdir(tmp_path))
        for schema in _SCHEMAS:
            ingest_csv(path, schema)
        ingest_csv(tmp_path / "plain.csv")
        assert sorted(os.listdir(tmp_path)) == before
        assert sidecar.read_bytes() == data
    sidecar.unlink()
    ingest_csv(path)
    assert sorted(os.listdir(tmp_path)) == ["plain.csv", "train.csv"]


def test_sidecar_holds_the_csv_digest_and_the_written_table(tmp_path):
    path, train = _simulated_csv(tmp_path, n=20)
    data = dataio.sidecar_path(path).read_bytes()
    assert data[:32] == hashlib.sha256(path.read_bytes()).digest()
    table = np.load(io.BytesIO(data[32:]), allow_pickle=False)
    assert table.dtype == np.float64 and table.shape == (20, 7)
    assert np.array_equal(_bits(table), _bits(np.loadtxt(path, delimiter=",", skiprows=1)))
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []  # no temporary file left


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077], ids=oct)
def test_the_sidecar_has_its_csv_permission_bits(tmp_path, umask):
    # a sidecar its CSV's readers cannot open would send them to the parse
    old = os.umask(umask)
    try:
        path, _ = _simulated_csv(tmp_path)
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(f.stat().st_mode) for f in (path, dataio.sidecar_path(path))]
    assert modes == [0o666 & ~umask] * 2


def _traced_peak(fn, *args):
    """fn(*args) and the most bytes tracemalloc saw allocated during the call beyond those live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        return fn(*args), tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


_STREAM_ROWS = 20_000  # p=10 with latent columns: a 2.24 MB table, 20 blocks of rows


def test_the_sidecar_writer_holds_no_whole_table(tmp_path):
    sim = make_datasets(SimConfig(setting="correct", n=_STREAM_ROWS, p=10, seed=5, n_test=10))
    table_bytes = _STREAM_ROWS * 14 * 8
    _, peak = _traced_peak(dataio.write_dataset_with_table, sim.train, tmp_path / "train.csv")
    assert peak < table_bytes


def test_ingest_holds_its_result_and_one_block_of_rows(tmp_path):
    path, _ = _simulated_csv(tmp_path, n=_STREAM_ROWS, p=10)
    block_bytes = dataio._BLOCK_ROWS * 14 * 8
    for schema in _SCHEMAS:
        ds, peak = _traced_peak(ingest_csv, path, schema)
        result_bytes = sum(a.nbytes for a in (ds.x, ds.z, ds.y, ds.u, ds.r) if a is not None)
        # beyond one block of rows: Dataset's finiteness scan of x, one byte per cell, and
        # 64 KiB for the open files, the header and per-block temporaries
        assert peak < result_bytes + block_bytes + ds.x.size + 64 * 1024, schema


def test_the_row_loop_holds_its_table_and_no_list_of_rows(tmp_path):
    # quoted cells, which loadtxt does not read, send every row through the csv.reader loop
    path, _ = _simulated_csv(tmp_path, n=_STREAM_ROWS, p=10)
    dataio.sidecar_path(path).unlink()
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + ['"' + row.replace(",", '","') + '"' for row in rows]) + "\n")
    for schema in _SCHEMAS:
        with mock.patch.object(dataio, "_parse_rows", wraps=dataio._parse_rows) as parse:
            ds, peak = _traced_peak(ingest_csv, path, schema)
        assert parse.call_count == 1 and ds.n == _STREAM_ROWS
        result_bytes = sum(a.nbytes for a in (ds.x, ds.z, ds.y, ds.u, ds.r) if a is not None)
        # the row loop's table of the read columns is as large as the result; beyond both:
        # Dataset's finiteness scan of x and 64 KiB for the open files, the header and one row
        assert peak < 2 * result_bytes + ds.x.size + 64 * 1024, schema


def test_pu_omm_model_json_roundtrip(tmp_path):
    omega = ParamPair(np.array([0.1, -0.2]), np.array([0.3, 0.4]))
    res = FitResult(omega_hat=omega, converged=True, iterations=17, final_loss=0.5)
    model = PuOmmModel(lambda_hat=0.24, fit=res, selection_scores=[(0.24, 0.1), (1.0, 0.2)])
    path = tmp_path / "m.json"
    write_model_json(model, "pu_omm", path)
    back, method = read_model_json(path)
    assert method == "pu_omm"
    assert isinstance(back, PuOmmModel)
    assert back.omega_hat is back.fit.omega_hat
    assert np.array_equal(back.beta, model.beta) and np.array_equal(back.theta, model.theta)
    assert (back.fit.converged, back.fit.iterations, back.fit.final_loss) == (True, 17, 0.5)
    assert back.lambda_hat == 0.24
    assert back.selection_scores == model.selection_scores


def test_two_part_model_json_roundtrip(tmp_path):
    model = TwoPartModel(np.array([1.0]), np.array([2.0]), "lognormal", aux=0.3, flags=("separation",))
    path = tmp_path / "m.json"
    write_model_json(model, "logistic_lognormal", path)
    back, method = read_model_json(path)
    assert method == "logistic_lognormal"
    assert isinstance(back, TwoPartModel)
    assert back.magnitude_family == "lognormal"
    assert back.aux == 0.3
    assert back.flags == ("separation",)


def test_model_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "mystery"})
    # a document that is not an object, or lacks a key, names the key read
    for d, message in (([1, 2], "expected a JSON object holding 'kind', got [1, 2]"),
                       ({"method": "pu_omm"}, "missing key 'kind'"),
                       ({"kind": "pu_omm", "beta": [0.1], "theta": [0.2]}, "missing key 'converged'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_dict(d)
    with pytest.raises(TypeError):
        model_to_dict(object(), "m")
