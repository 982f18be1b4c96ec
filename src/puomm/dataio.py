"""File formats: dataset CSVs, simulation sidecars, model and metrics files.

All writers are byte-deterministic: floats are serialized with repr
(shortest round-trip form), JSON keys are sorted, and line endings are
fixed to "\\n".  Dataset CSVs are written a block of rows at a time, so
the text held in memory stays small.  Their cells are formatted by
orjson's Ryu, whose digits are repr's and whose text is repr's wherever
repr writes a float positionally: a block is serialised as one flat
array, and rows are cut from that text by turning the comma after each
row's last cell into a line end.  The rows holding a cell repr writes
in exponent form are formatted with repr itself and spliced in at their
line ends.

Dataset CSVs are parsed by one ``np.loadtxt`` call over every column.
Its row count is checked against a count of the file's lines, because
loadtxt skips blank lines; numpy counts the "\\n" bytes of each chunk
of the file through a small reused mask.  When that parse fails or
miscounts, a csv.reader row loop reads the file again a row at a time,
into a table preallocated from the line count: it accepts what float()
accepts and loadtxt does not (quoted cells, "1_0"), and otherwise names
the first malformed line: a blank line, a row whose cell count differs
from the header's, or a non-numeric cell in a column the schema reads.
The values are checked only by the Dataset built from the columns read
(see model.Dataset), whose RowError "row i: rule" ingest_csv reports as
"path: line L: rule", L the 1-based line the row ends on.  The row loop
builds that Dataset from the rows before a malformed line, so the first
bad line in the file is the one named.

``puomm simulate`` also writes a table sidecar beside each dataset CSV
(``train.csv`` -> ``train.csv.table``), with the CSV's permission bits:
the SHA-256 of the CSV's bytes, then the bytes ``np.save`` writes for
the float64 table the CSV was written from, every header column in
header order.  ingest_csv hashes the CSV in the pass that counts its
lines, and reads the sidecar instead of parsing only when the digest
matches and the payload is a C-order little-endian float64 array of one
row per data line and one column per header cell.  Any other sidecar,
or none, means the CSV is parsed, so an edited CSV is parsed again and
deleting a sidecar is always safe.  The same Dataset checks the values
either way, and ingest_csv never writes a file.

Tables move ``_BLOCK_ROWS`` rows at a time in both directions, so no
whole-table copy is held beside the dataset being written or read.  The
sidecar writer writes the array header and then each block's bytes.
The sidecar reader reads the payload a block at a time into one buffer
and copies each block's read columns into a C-contiguous x and one
vector per other column; the parse paths copy their one parsed table
the same way, as a single block.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .baselines import TwoPartModel
from .metrics import CSV_COLUMNS, MetricsReport
from .model import LATENT_COLUMNS, Dataset, ParamPair, RowError, is_real_in, store_integer_fields
from .optimizer import FitResult
from .selection import PuOmmModel
from .simulate import SimOutput

# Rows formatted per write: bounds the text held in memory.  Larger blocks write
# no faster, and the peak RSS of a process writing many files grows less steady:
# on the cli_io benchmark (2-core VM), 1,024 rows read 59.4 MB in two runs, and
# 4,096 rows 58.8 and 62.6 MB.
_BLOCK_ROWS = 1024
_CHUNK_BYTES = 1 << 20
# Bytes of a chunk compared per np.equal call when counting line ends: the size of the
# reused bool mask, so that counting adds no chunk-sized array.
_MASK_BYTES = 1 << 16
# The dtype of a sidecar's table, as np.save writes a float64 array on a little-endian host.
_TABLE_DTYPE = np.dtype("<f8")


def _format_rows(block: np.ndarray) -> bytes:
    """The CSV lines of block's rows, every cell written as repr writes it.

    orjson's Ryu digits are repr's shortest round-trip digits, written the
    same way for 0 and every 1e-4 <= |v| < 1e16.  The block's cells are
    serialised as one flat array, "[c,c,...,c]"; in a uint8 copy of that
    text every cols-th comma and the closing bracket become line ends, and
    the opening bracket is dropped.  Outside that range repr switches to
    exponent form ("1e-05", "1e+16") and orjson does not, so each row
    holding such a cell, or a NaN or infinity, is formatted with repr and
    spliced in between its line's start and end.  A repr'd float never
    holds a comma, quote or newline, so no cell needs csv quoting.
    """
    import orjson  # here, not at module level: importing puomm need not pay for it

    cols = block.shape[1]
    text = np.frombuffer(orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY), np.uint8).copy()
    ends = np.append(np.flatnonzero(text == ord(","))[cols - 1 :: cols], len(text) - 1)  # each row's line end
    text[ends] = ord("\n")
    a = np.abs(block)
    pieces, at = [], 1
    for i in np.flatnonzero(~((a == 0) | ((a >= 1e-4) & (a < 1e16))).all(axis=1)).tolist():
        start = ends[i - 1] + 1 if i else 1
        pieces += [text[at:start], ",".join(map(repr, block[i].tolist())).encode()]
        at = ends[i]
    pieces.append(text[at:])
    return b"".join(pieces)


def _dataset_columns(ds: Dataset) -> tuple[list[str], list[np.ndarray]]:
    """The column names and 2-d column blocks of a dataset CSV: x_1..x_p, z and, when latent fields exist, y, u, r."""
    header = [f"x_{j + 1}" for j in range(ds.p)] + ["z"]
    cols = [ds.x, ds.z[:, None]]
    if ds.has_latent:
        header += list(LATENT_COLUMNS)
        cols += [ds.y[:, None], ds.u[:, None], ds.r[:, None]]
    return header, cols


def _row_blocks(cols: list[np.ndarray], rows: int):
    """The table whose columns are cols, _BLOCK_ROWS rows at a time."""
    for start in range(0, rows, _BLOCK_ROWS):
        yield np.hstack([c[start : start + _BLOCK_ROWS] for c in cols])


def write_dataset_csv(ds: Dataset, path: str | Path) -> bytes:
    """Columns x_1..x_p, z and, when latent fields exist, y, u, r; returns the SHA-256 of the bytes written."""
    header, cols = _dataset_columns(ds)
    digest = _sha256()
    with open(path, "wb") as fh:
        chunks = itertools.chain([(",".join(header) + "\n").encode()], map(_format_rows, _row_blocks(cols, ds.n)))
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.digest()


def _sha256():
    import hashlib  # here, not at module level: importing puomm need not pay for it

    return hashlib.sha256()


def sidecar_path(path: str | Path) -> Path:
    """Where the table sidecar of the dataset CSV at path lives: its name plus ".table"."""
    path = Path(path)
    return path.with_name(path.name + ".table")


def write_dataset_with_table(ds: Dataset, path: str | Path) -> None:
    """write_dataset_csv(ds, path), then the CSV's table sidecar.

    The sidecar holds the SHA-256 of the CSV's bytes as written, then the
    bytes np.save writes for ds's table: a version 1.0 header (C order,
    little-endian float64) and the rows, written a block at a time so that
    no whole-table copy is made.  Nothing in them varies between runs, so
    the same dataset gives the same bytes.  The sidecar is written to a
    temporary file, given the CSV's permission bits and renamed into place,
    so a reader never sees a partial one, and whoever can read the CSV can
    read its sidecar.
    """
    digest = write_dataset_csv(ds, path)
    header, cols = _dataset_columns(ds)
    target = sidecar_path(path)
    fmt = np.lib.format
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(digest)
            fmt.write_array_header_1_0(
                fh, {"descr": fmt.dtype_to_descr(_TABLE_DTYPE), "fortran_order": False, "shape": (ds.n, len(header))}
            )
            for block in _row_blocks(cols, ds.n):
                fh.write(block.astype(_TABLE_DTYPE, copy=False))
        os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_sidecar(path: Path, digest: bytes, shape: tuple[int, int], idx: list[int], p: int):
    """_split_columns of the table in path's sidecar; None unless it holds digest and a C-order float64 table of shape.

    The digest and the array header are checked before any data is read;
    a missing, unreadable or truncated sidecar gives None too.  The payload
    is read a block of rows at a time into one reused buffer.
    """
    fmt = np.lib.format
    rows, cells = shape
    try:
        fh = open(sidecar_path(path), "rb")
    except OSError:
        return None
    with fh:
        try:
            if fh.read(len(digest)) != digest or fmt.read_magic(fh) != (1, 0):
                return None
            stored_shape, fortran_order, dtype = fmt.read_array_header_1_0(fh)
        except (OSError, ValueError, EOFError):
            return None
        if stored_shape != shape or fortran_order or dtype != _TABLE_DTYPE:
            return None
        buf = np.empty((min(rows, _BLOCK_ROWS), cells), dtype)

        def blocks():
            for start in range(0, rows, _BLOCK_ROWS):
                block = buf[: rows - start]
                if fh.readinto(block) != block.nbytes:
                    raise EOFError("truncated sidecar")
                yield block

        try:
            return _split_columns(blocks(), rows, idx, p)
        except (OSError, EOFError):
            return None


def _count_lines(path: Path, digest=None) -> int:
    """Lines in the file, blank ones and a last one lacking its line end included.

    "\\n", "\\r\\n" and a lone "\\r" each end a line, for csv.reader and
    np.loadtxt alike.  The file is read a chunk at a time into one reused
    buffer; its "\\n" bytes are counted by np.count_nonzero over a uint8
    view, compared _MASK_BYTES at a time into one reused mask.  A chunk
    holding a "\\r" adds its "\\r" count less its "\\r\\n" count.  A
    hashlib object passed as digest is fed the file's bytes in the same pass.
    """
    lines, last = 0, b"\n"
    buf = bytearray(_CHUNK_BYTES)  # one buffer for every chunk, so two chunks are never held at once
    view = np.frombuffer(buf, np.uint8)
    mask = np.empty(_MASK_BYTES, bool)
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            if digest is not None:
                digest.update(memoryview(buf)[:size])
            for start in range(0, size, _MASK_BYTES):
                part = view[start : min(start + _MASK_BYTES, size)]
                lines += int(np.count_nonzero(np.equal(part, ord("\n"), out=mask[: len(part)])))
            if buf.find(b"\r", 0, size) >= 0:
                lines += buf.count(b"\r", 0, size) - buf.count(b"\r\n", 0, size)
            lines -= last == b"\r" and buf[:1] == b"\n"  # a CRLF split across two chunks
            last = bytes(buf[size - 1 : size])
    return lines + (last not in (b"\n", b"\r"))


def _load_rows(lines, rows: int, n_cells: int) -> np.ndarray | None:
    """The table loadtxt reads from lines, or None unless it reads exactly one row per line.

    loadtxt skips blank lines and warns when it reads no row at all; either
    way the shape differs, and the row loop names the first blank line.
    Only that warning is silenced.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return None
    return table if table.shape == (rows, n_cells) else None


def _schema_columns(path: Path, header: list[str], schema: str) -> tuple[int, bool]:
    """Validate the header; return p and whether the latent columns are read."""
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise ValueError(f"{path}: column {repeated!r} appears more than once in the header")
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


def _line(row: int) -> int:
    return row + 2  # the line of a table row when the header and every row take one line each


def _split_columns(blocks, rows: int, idx: list[int], p: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """C-contiguous x from columns idx[:p] and one vector per column of idx[p:], z first.

    blocks yields the table's rows in order, rows in all, a block at a
    time.  Each block is copied into the result, so no whole-table copy
    is made beside it.
    """
    x = np.empty((rows, p))
    cols = [np.empty(rows) for _ in idx[p:]]
    start = 0
    for block in blocks:
        stop = start + len(block)
        np.take(block, idx[:p], axis=1, out=x[start:stop], mode="clip")  # not "raise", which buffers out
        for col, j in zip(cols, idx[p:]):
            col[start:stop] = block[:, j]
        start = stop
    return x, cols


def _dataset(path: Path, x: np.ndarray, cols, names: list[str], line) -> Dataset:
    """The Dataset of x and cols, named names; a row breaking its row rule raises naming line(row) of path."""
    try:
        return Dataset(x=x, **dict(zip(names, cols)))
    except RowError as exc:
        raise ValueError(f"{path}: line {line(exc.row)}: {exc.rule}") from None


def _parse_rows(path: Path, records: int, n_cells: int, idx: list[int], names: list[str]):
    """Row-by-row parse of columns idx, and the map from its rows to their lines; raises at the first bad line.

    Used when the single-call parse fails or miscounts rows.  It accepts
    whatever float() does (quoted cells, "1_0") and otherwise names the
    first malformed line, unless a row before it breaks the Dataset row
    rule over the columns names (the last len(names) of idx).  The
    rows are read one at a time into a table of records rows, the count
    of lines after the header: csv.reader gives at most one row per line,
    and fewer when a quoted cell spans lines, so the table is trimmed to
    the rows read.  A row's line is the one csv.reader ends it on.
    """
    table = np.empty((records, len(idx)))
    p = len(idx) - len(names)
    rows = 0
    shifts = [(0, 2)]  # (k, s): from row k on, up to the next pair's k, each row ends on line row + s

    def line(row: int) -> int:
        return row + max(s for k, s in shifts if k <= row)

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if reader.line_num != rows + shifts[-1][1]:
                shifts.append((rows, reader.line_num - rows))
            if len(row) != n_cells:
                err = f"expected {n_cells} cells, got {len(row)}"
            else:
                try:
                    table[rows] = [float(row[j]) for j in idx]
                    rows += 1
                    continue
                except ValueError:
                    err = "non-numeric cell"
            _dataset(path, table[:rows, :p], table[:rows, p:].T, names, line)
            raise ValueError(f"{path}: line {reader.line_num}: {err}")
    return table[:rows], line


def ingest_csv(path: str | Path, schema: str = "observed_only") -> Dataset:
    """Load a dataset CSV, validating cells and reporting bad lines.

    The observed_only schema needs the feature columns x_1..x_p and z and
    ignores any latent columns present; the simulated schema additionally
    requires y, u, r; auto reads the file as simulated exactly when its
    header names y, u and r.  The first malformed line, or row breaking
    the Dataset row rule over the columns read, raises ValueError
    "path: line L: ..." with its 1-based line.  A header that names a
    column twice raises too.  The cells come from the CSV's table
    sidecar when its digest matches the file (see the module docstring).
    """
    if schema not in ("observed_only", "simulated", "auto"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        p, simulated = _schema_columns(path, header, schema)
        needed = [f"x_{j + 1}" for j in range(p)] + ["z"] + (list(LATENT_COLUMNS) if simulated else [])
        idx = [header.index(name) for name in needed]
        digest = _sha256() if sidecar_path(path).exists() else None
        records = _count_lines(path, digest) - 1
        columns = None if digest is None else _read_sidecar(path, digest.digest(), (records, len(header)), idx, p)
        table = None if columns is not None else _load_rows(fh, records, len(header))
    line = _line
    if columns is None:
        if table is None:  # blank lines, ragged rows, cells loadtxt cannot read: locate or accept row by row
            (table, line), idx = _parse_rows(path, records, len(header), idx, needed[p:]), list(range(len(idx)))
        columns = _split_columns([table], len(table), idx, p)
        del table  # not needed beside the dataset built from columns
    x, cols = columns
    return _dataset(path, x, cols, needed[p:], line)


def _json_dump(obj, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sim_meta(sim: SimOutput, path: str | Path) -> None:
    """JSON sidecar: generation settings plus the true coefficient vectors."""
    meta = {
        "config": dataclasses.asdict(sim.config),
        "beta0": [float(v) for v in sim.beta0],
        "theta0": [float(v) for v in sim.theta0],
    }
    _json_dump(meta, path)


def read_sim_meta(path: str | Path) -> dict:
    """The write_sim_meta object, beta0 and theta0 read by the model JSON's rules for keys and coefficients."""
    with open(path) as fh:
        meta = json.load(fh)
    meta["beta0"], meta["theta0"] = _coefficients(meta, "beta0"), _coefficients(meta, "theta0")
    return meta


def reject_unknown_keys(d: dict, allowed, where: str) -> None:
    """Raise ValueError if d is not a JSON object, or naming every key of d that allowed lacks."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {where}; expected some of {sorted(allowed)}")


def from_json_object(make, d: dict, allowed, where: str, **defaults):
    """make(**d) for the config's JSON object d called where, with defaults for the keys d leaves out.

    A key outside allowed, or a value that make rejects, is a ValueError
    that names where (and make's message names the key).
    """
    reject_unknown_keys(d, allowed, where)
    try:
        return make(**{**defaults, **d})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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


_REQUIRED = object()


def _key(d, key: str, ok=lambda value: True, what: str = "", default=_REQUIRED):
    """d[key] when ok accepts it, or default when d lacks key; any other document is a ValueError naming key."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object holding {key!r}, got {d!r}")
    if key not in d:
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    value = d[key]
    if not ok(value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _finite(value) -> bool:
    return is_real_in(value, -math.inf, math.inf)


def _is_score(pair) -> bool:
    """Whether pair is a selection_scores entry [lambda, brier]: a finite positive lambda, a brier +inf or finite."""
    return isinstance(pair, list) and len(pair) == 2 and is_real_in(pair[0], 0, math.inf) and (
        pair[1] == math.inf or _finite(pair[1])
    )


def _array_of(ok):
    """A check that its value is a JSON array whose every entry ok accepts."""
    return lambda value: isinstance(value, list) and all(map(ok, value))


def _coefficients(d: dict, key: str) -> np.ndarray:
    return np.asarray(_key(d, key, _array_of(_finite), "an array of finite numbers"), dtype=float)


def model_from_dict(d: dict):
    """The model that a model_to_dict object describes.

    A document that is not a JSON object, a missing key or a value of
    the wrong JSON type is a ValueError naming the key, never converted:
    numbers must be JSON numbers (not strings or booleans), converged a
    boolean, iterations an integer and flags an array of strings.  A
    grid point's Brier score and a Gamma aux may be +inf.
    """
    kind = _key(d, "kind")
    if kind == "pu_omm":
        res = FitResult(
            omega_hat=ParamPair(beta=_coefficients(d, "beta"), theta=_coefficients(d, "theta")),
            converged=_key(d, "converged", lambda v: isinstance(v, bool), "true or false"),
            iterations=_key(d, "iterations"),
            final_loss=float(_key(d, "final_loss", _finite, "a finite number")),
        )
        store_integer_fields(res, ("iterations",))
        lam = _key(d, "lambda_hat", lambda v: is_real_in(v, 0, math.inf), "a finite positive number")
        scores = _key(d, "selection_scores", _array_of(_is_score), "an array of [lambda, brier] pairs")
        return PuOmmModel(
            lambda_hat=float(lam),
            fit=res,
            selection_scores=[(float(a), float(b)) for a, b in scores],
        )
    if kind == "two_part":
        aux = _key(d, "aux", lambda v: v is None or v == math.inf or _finite(v), "a number or null", None)
        flags = _key(d, "flags", _array_of(lambda f: isinstance(f, str)), "an array of strings", [])
        return TwoPartModel(
            occurrence_coef=_coefficients(d, "occurrence_coef"),
            magnitude_coef=_coefficients(d, "magnitude_coef"),
            magnitude_family=_key(d, "family"),
            aux=None if aux is None else float(aux),
            flags=tuple(flags),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def write_model_json(model, method: str, path: str | Path) -> None:
    _json_dump(model_to_dict(model, method), path)


def read_model_json(path: str | Path):
    """(model, method) from a model JSON; method is the file's stem for a hand-written JSON without one."""
    with open(path) as fh:
        d = json.load(fh)
    return model_from_dict(d), str(_key(d, "method", default=Path(path).stem))


def csv_cell(value) -> str:
    """The text of one CSV cell: None as empty, a float by repr (which reads back exactly), anything else by str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv_rows(path: str | Path, header, rows) -> None:
    """A CSV file of the header and then rows, each row's cells written by csv_cell, with "\\n" line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([csv_cell(v) for v in row])


def write_metrics_csv(report: MetricsReport, path: str | Path) -> None:
    """The CSV_COLUMNS header and report's one row, a column per MetricsReport field."""
    write_csv_rows(path, CSV_COLUMNS, [dataclasses.astuple(report)])
