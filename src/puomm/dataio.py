"""File formats: dataset CSVs, simulation sidecars, model and metrics files.

All writers are byte-deterministic: floats are serialized with repr
(shortest round-trip form), JSON keys are sorted, and line endings are
fixed to "\\n".  Dataset CSVs are written a block of rows at a time, so
the text held in memory stays small.

Dataset CSVs are parsed by one ``np.loadtxt`` call over every column.
Its row count is checked against a count of the file's lines, because
loadtxt skips blank lines.  When that parse fails or miscounts, a
csv.reader row loop reads the file again: it accepts what float()
accepts and loadtxt does not (quoted cells, "1_0"), and otherwise names
the first bad line.  Rejected, each with its 1-based line number: blank
lines and rows whose cell count differs from the header's; non-numeric,
NaN or infinite cells in a column the schema reads; negative z; and,
under the simulated schema, rows breaking u = 1{y > 0} or z = y*r.

Neither repr nor loadtxt releases the interpreter lock, so a file of at
least _SPLIT_MIN_ROWS rows is formatted or parsed on two cores: the
rows are cut in two at a line boundary, and one forked child takes the
second half while the process does the first.  That happens only where
os.fork exists, a second CPU is usable and no other Python thread runs
(a thread could hold a lock the child then waits on forever).  The
writer's child formats its rows into a temporary file beside the
output, which the parent appends to its own half, so the bytes are
those of the serial writer.  The reader's child parses its byte range
into a shared anonymous mmap that holds the whole table, and the parent
parses the lines before the cut into the rest.  Any other outcome (the
child fails, either half fails to parse or parses to fewer rows than
its range has lines, a "\\r" in the file) runs the serial code from
the start, so accepted files, error messages and line numbers are those
of the serial path.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import itertools
import json
import mmap
import os
import shutil
import signal
import tempfile
import threading
import warnings
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .baselines import TwoPartModel
from .metrics import CSV_COLUMNS, MetricsReport
from .model import Dataset, ParamPair
from .optimizer import FitResult
from .selection import PuOmmModel
from .simulate import SimConfig, SimOutput

LATENT_COLUMNS = ("y", "u", "r")

_BLOCK_ROWS = 4096  # rows formatted per write: bounds the text held in memory
_CHUNK_BYTES = 1 << 20
# Fewest rows a file needs before a forked child takes half of them.  A fork
# plus reap costs ~3 ms, and the split ~3 ms more.  At 5,000 rows of 11 cells
# (2-core VM) a write went from 74 to 44 ms and a parse from 31 to 24 ms; at
# 2 cells a row, from 18 to 16 ms and from 7 to 10 ms.
_SPLIT_MIN_ROWS = 5000


def _can_split(rows: int) -> bool:
    """Whether a forked child may take half of a file's rows."""
    if rows < _SPLIT_MIN_ROWS or not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


@contextlib.contextmanager
def _forked(work: Callable[[], None]) -> Iterator[Callable[[], bool]]:
    """Run work() in a forked child; yield a join() that waits for it and says whether it succeeded.

    The child leaves through os._exit on every path, so it never unwinds
    into the caller or flushes stdio buffers it inherited.  It runs no
    garbage collection, which could finalize objects the parent still
    owns.  A child not joined when the block is left, because the parent's
    own half raised or failed, is killed; either way it is reaped here.
    When no process can be had, join() reports a failed child.
    """
    try:
        pid = os.fork()
    except OSError:  # EAGAIN or ENOMEM: the caller's serial rerun does every row
        yield lambda: False
        return
    if pid == 0:
        code = 1
        try:
            gc.disable()
            work()
            code = 0
        finally:
            os._exit(code)
    reaped = False

    def join() -> bool:
        nonlocal reaped
        status = os.waitpid(pid, 0)[1]
        reaped = True
        return os.waitstatus_to_exitcode(status) == 0

    try:
        yield join
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_table(path: Path, header: str, table: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header)
        # a repr'd float never holds a comma, quote or newline, so no cell needs csv quoting
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block))


def _write_split(path: Path, header: str, table: np.ndarray) -> bool:
    """Write the first half of the rows while a forked child formats the rest; False if the child failed.

    The child writes to a temporary file beside the output, which is then
    appended in chunks, so the parent never holds the child's text.
    """
    mid = len(table) // 2
    fd, part = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".part")
    os.close(fd)
    try:
        with _forked(lambda: _write_table(Path(part), "", table[mid:])) as join:
            _write_table(path, header, table[:mid])
            if not join():
                return False
        with open(part, "rb") as src, open(path, "ab") as dst:
            shutil.copyfileobj(src, dst, _CHUNK_BYTES)
        return True
    finally:
        os.unlink(part)


def write_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """Columns x_1..x_p, z and, when latent fields exist, y, u, r."""
    path = Path(path)
    header = [f"x_{j + 1}" for j in range(ds.p)] + ["z"]
    cols = [ds.x, ds.z[:, None]]
    if ds.has_latent and ds.r is not None:
        header += list(LATENT_COLUMNS)
        cols += [ds.y[:, None], ds.u[:, None], ds.r[:, None]]
    table = np.hstack(cols)
    header = ",".join(header) + "\n"
    if not (_can_split(ds.n) and _write_split(path, header, table)):
        _write_table(path, header, table)


def _count_lines(path: Path) -> int:
    """Lines in the file, blank ones and a last one lacking its line end included.

    "\\n", "\\r\\n" and a lone "\\r" each end a line, for csv.reader and
    np.loadtxt alike.
    """
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK_BYTES):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= last == b"\r" and chunk[:1] == b"\n"  # a CRLF split across two chunks
            last = chunk[-1:]
    return lines + (last not in (b"\n", b"\r"))


def _newlines(path: Path, start: int, stop: int) -> int | None:
    """Count of b"\\n" in bytes [start, stop) of the file; None if a b"\\r" is there."""
    count = 0
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop and (chunk := fh.read(min(_CHUNK_BYTES, stop - start))):
            if b"\r" in chunk:
                return None
            count += chunk.count(b"\n")
            start += len(chunk)
    return count


def _load_rows(lines, rows: int, n_cells: int) -> np.ndarray | None:
    """The table loadtxt reads from lines, or None unless it reads exactly one row per line.

    loadtxt skips blank lines and warns when it reads no row at all; either
    way the shape differs, and the row loop names the first blank line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    return table if table.shape == (rows, n_cells) else None


def _load_split(path: Path, records: int, n_cells: int) -> np.ndarray | None:
    """The records x n_cells table, parsed in two byte ranges cut at a line; None if any check fails.

    A forked child parses the lines from the cut to the end into the tail
    of a shared anonymous mmap; the parent parses the lines before it into
    the head.  Each side counts the lines of its own range and needs one
    row per line, so a blank line, which loadtxt skips, fails the split
    instead of shifting rows.  With no "\\r" in the file the two counts
    add up to records.
    """
    size = path.stat().st_size
    with open(path, "rb") as fh:
        start = len(fh.readline())  # the header's line; a quoted newline in it fails the head's parse
        fh.seek((start + size) // 2)
        cut = fh.tell() + len(fh.readline())
        fh.seek(-1, os.SEEK_END)
        open_end = fh.read(1) != b"\n"  # the last line has no line end to count
    if cut >= size:
        return None
    table = np.frombuffer(mmap.mmap(-1, records * n_cells * 8), dtype=float).reshape(records, n_cells)

    def child() -> None:
        tail_rows = _newlines(path, cut, size)
        if tail_rows is None:
            raise ValueError("\\r line end")
        tail_rows += open_end
        with open(path, newline="") as fh:
            fh.seek(cut)
            tail = _load_rows(fh, tail_rows, n_cells)
        if tail is None:
            raise ValueError("tail does not parse to one row per line")
        table[records - tail_rows :] = tail

    with _forked(child) as join:
        head_rows = _newlines(path, 0, cut)
        if head_rows is None:
            return None
        head_rows -= 1  # the header line
        with open(path, newline="") as fh:
            fh.seek(start)
            head = _load_rows(itertools.islice(fh, head_rows), head_rows, n_cells)
        if head is None:
            return None
        table[:head_rows] = head
        if not join():
            return None
    return table


def _schema_columns(path: Path, header: list[str], schema: str) -> tuple[int, bool]:
    """Validate the header; return p and whether the latent columns are read."""
    if schema == "auto":
        schema = "simulated" if all(c in header for c in LATENT_COLUMNS) else "observed_only"
    x_names = [h for h in header if h.startswith("x_")]
    try:
        order = sorted(range(len(x_names)), key=lambda i: int(x_names[i][2:]))
    except ValueError:
        raise ValueError(f"{path}: feature columns must be named x_1..x_p") from None
    x_names = [x_names[i] for i in order]
    p = len(x_names)
    if p == 0:
        raise ValueError(f"{path}: no feature columns x_* found")
    expected = [f"x_{j + 1}" for j in range(p)]
    if x_names != expected:
        raise ValueError(f"{path}: feature columns must be x_1..x_{p} with no gaps")
    if "z" not in header:
        raise ValueError(f"{path}: missing required column z")
    if schema == "simulated":
        missing = [c for c in LATENT_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: simulated schema missing columns {missing}")
    return p, schema == "simulated"


def _check_values(path: Path, table: np.ndarray, z_col: int) -> None:
    """Raise at the first row holding NaN, +-inf, or a negative z."""
    finite = np.isfinite(table).all(axis=1)
    bad = np.flatnonzero(~finite | (table[:, z_col] < 0))
    if bad.size:
        i = int(bad[0])
        line = i + 2  # header occupies line 1
        if not finite[i]:
            raise ValueError(f"{path}: line {line}: non-finite cell")
        raise ValueError(f"{path}: line {line}: z must be nonnegative, got {table[i, z_col]}")


def _parse_rows(path: Path, n_cells: int, idx: list[int], z_col: int) -> np.ndarray:
    """Row-by-row parse of columns idx; raises at the first bad line.

    Used when the single-call parse fails or miscounts rows.  It accepts
    whatever float() does (quoted cells, "1_0") and otherwise names the
    first malformed line, unless an earlier line holds a bad value.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = list(reader)
    table = np.empty((len(rows), len(idx)))
    for i, row in enumerate(rows):
        if len(row) != n_cells:
            err = f"expected {n_cells} cells, got {len(row)}"
        else:
            try:
                table[i] = [float(row[j]) for j in idx]
                continue
            except ValueError:
                err = "non-numeric cell"
        _check_values(path, table[:i], z_col)
        raise ValueError(f"{path}: line {i + 2}: {err}")
    return table


def ingest_csv(path: str | Path, schema: str = "observed_only") -> Dataset:
    """Load a dataset CSV, validating cells and reporting bad lines.

    The observed_only schema needs the feature columns x_1..x_p and z and
    ignores any latent columns present; the simulated schema additionally
    requires y, u, r; auto reads the file as simulated exactly when its
    header names y, u and r.  Malformed or non-finite cells, negative z
    and, under the simulated schema, rows breaking u = 1{y > 0} or
    z = y*r raise with the offending 1-based line number.
    """
    if schema not in ("observed_only", "simulated", "auto"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    records = _count_lines(path) - 1
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        p, simulated = _schema_columns(path, header, schema)
        table = _load_split(path, records, len(header)) if _can_split(records) else None
        if table is None:
            table = _load_rows(fh, records, len(header))
    needed = [f"x_{j + 1}" for j in range(p)] + ["z"] + (list(LATENT_COLUMNS) if simulated else [])
    idx = [header.index(name) for name in needed]
    if table is not None:
        table = table[:, idx]
    else:  # blank lines, ragged rows, cells loadtxt cannot read: locate or accept row by row
        table = _parse_rows(path, len(header), idx, z_col=p)
    _check_values(path, table, z_col=p)

    x = np.ascontiguousarray(table[:, :p])
    cols = {name: table[:, p + k].copy() for k, name in enumerate(needed[p:])}
    ds = Dataset(x=x, **cols)
    if simulated:
        bad = ds.latent_mismatch()
        if bad is not None:
            row, rule = bad
            raise ValueError(f"{path}: line {row + 2}: {rule}")
    return ds


def _json_dump(obj, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sim_meta(sim: SimOutput, path: str | Path) -> None:
    """JSON sidecar: generation settings plus the true coefficient vectors."""
    cfg = sim.config
    meta = {
        "config": None
        if cfg is None
        else {
            "setting": cfg.setting.value,
            "n": cfg.n,
            "p": cfg.p,
            "lambda_eps_true": cfg.lambda_eps_true,
            "tau": cfg.tau,
            "rho": cfg.rho,
            "param_scale": cfg.param_scale,
            "seed": cfg.seed,
            "n_test": cfg.n_test,
        },
        "beta0": [float(v) for v in sim.beta0],
        "theta0": [float(v) for v in sim.theta0],
    }
    _json_dump(meta, path)


def read_sim_meta(path: str | Path) -> dict:
    with open(path) as fh:
        meta = json.load(fh)
    meta["beta0"] = np.asarray(meta["beta0"], dtype=float)
    meta["theta0"] = np.asarray(meta["theta0"], dtype=float)
    return meta


def sim_config_from_dict(d: dict) -> SimConfig:
    # n may be omitted in experiment configs, where n_values supplies it
    return SimConfig(
        setting=d["setting"],
        n=int(d.get("n", 1)),
        p=int(d.get("p", 10)),
        lambda_eps_true=float(d.get("lambda_eps_true", 0.24)),
        tau=float(d.get("tau", 3.0)),
        rho=float(d.get("rho", 0.2)),
        param_scale=d.get("param_scale"),
        seed=int(d.get("seed", 0)),
        n_test=int(d.get("n_test", 50000)),
    )


def model_to_dict(model, method: str) -> dict:
    if isinstance(model, PuOmmModel):
        return {
            "method": method,
            "kind": "pu_omm",
            "beta": [float(v) for v in model.beta],
            "theta": [float(v) for v in model.theta],
            "lambda_hat": model.lambda_hat,
            "selection_scores": [[lam, score] for lam, score in model.selection_scores],
            "converged": model.fit.converged,
            "iterations": model.fit.iterations,
            "final_loss": model.fit.final_loss,
        }
    if isinstance(model, TwoPartModel):
        return {
            "method": method,
            "kind": "two_part",
            "occurrence_coef": [float(v) for v in model.occurrence_coef],
            "magnitude_coef": [float(v) for v in model.magnitude_coef],
            "family": model.magnitude_family,
            "aux": None if model.aux is None else float(model.aux),
            "flags": list(model.flags),
        }
    raise TypeError(f"unsupported model type {type(model).__name__}")


def model_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "pu_omm":
        omega = ParamPair(beta=np.asarray(d["beta"]), theta=np.asarray(d["theta"]))
        res = FitResult(
            omega_hat=omega,
            converged=bool(d["converged"]),
            iterations=int(d["iterations"]),
            final_loss=float(d["final_loss"]),
        )
        return PuOmmModel(
            omega_hat=omega,
            lambda_hat=float(d["lambda_hat"]),
            fit=res,
            selection_scores=[(float(a), float(b)) for a, b in d["selection_scores"]],
        )
    if kind == "two_part":
        aux = d.get("aux")
        return TwoPartModel(
            occurrence_coef=np.asarray(d["occurrence_coef"], dtype=float),
            magnitude_coef=np.asarray(d["magnitude_coef"], dtype=float),
            magnitude_family=d["family"],
            aux=None if aux is None else float(aux),
            flags=tuple(d.get("flags", ())),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def write_model_json(model, method: str, path: str | Path) -> None:
    _json_dump(model_to_dict(model, method), path)


def read_model_json(path: str | Path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def write_metrics_csv(reports: list[MetricsReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            writer.writerow(rep.to_csv_row())
