"""Versioned on-disk formats for every pipeline artifact.

Text artifacts start with a `# graph2ts-<kind> v1 ...` header line. The body
is numeric CSV rows (windows, graphs, boundaries, embeddings, curves), labelled
CSV rows under a column line (loss log, ablation table), or `key=value` lines
(metrics, tail stats, gradient check report). Floats are written with repr so
re-reading is exact and runs with identical seeds produce byte-identical
files. Numeric bodies are read by numpy's C reader (``np.loadtxt``), which
rounds correctly like ``float()``. A field is a decimal float in ASCII digits,
optionally signed and with an exponent, with spaces or tabs around it allowed.
An empty line is skipped, but a line of only whitespace is a malformed row, and
``1_0`` or non-ASCII digits, which ``float()`` takes, are malformed too.

The checkpoint is a little-endian binary container of named 2-D float64
arrays preceded by a JSON echo of the training config, the best epoch and the
quantile boundaries. Every writer goes through ``atomic_open``, so an artifact
is either the old file or the complete new one, never a half-written mix.
"""

from __future__ import annotations

import io
import json
import os
import re
import stat
import struct
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields
from typing import NoReturn

import numpy as np

from .autodiff import GRADCHECK_STEP, GRADCHECK_TOLERANCE
from .dataset import all_finite
from .metrics import MetricsReport, TailStats
from .model import Graph2TS, LossBreakdown, TrainConfig, param_shapes
from .quantile_graph import QuantileBoundaries

__all__ = [
    "atomic_open",
    "write_windows",
    "read_windows",
    "write_graphs",
    "read_graphs",
    "write_boundaries",
    "read_boundaries",
    "write_loss_log",
    "write_metrics_report",
    "write_tail_stats",
    "write_curve",
    "write_embeddings",
    "write_ablation",
    "write_gradcheck_report",
    "save_model",
    "load_model",
]

WINDOWS_MAGIC = "# graph2ts-windows v1"
GRAPHS_MAGIC = "# graph2ts-graphs v1"
BOUNDS_MAGIC = "# graph2ts-boundaries v1"
LOSSLOG_MAGIC = "# graph2ts-losslog v1"
METRICS_MAGIC = "# graph2ts-metrics v1"
TAILSTATS_MAGIC = "# graph2ts-tailstats v1"
CURVE_MAGIC = "# graph2ts-curve v1"
EMBED_MAGIC = "# graph2ts-embeddings v1"
ABLATION_MAGIC = "# graph2ts-ablation v1"
GRADCHECK_MAGIC = "# graph2ts-gradcheck v1"
CKPT_MAGIC = b"g2ts-ckpt v1\n"


def _fmt(v: float) -> str:
    return repr(float(v))


@contextmanager
def atomic_open(path, binary: bool = False):
    """Write through a temporary file in the target directory, moved over ``path``
    with ``os.replace`` once the block succeeds. On error the temporary file is
    removed and any old file at ``path`` is left untouched. A ``path`` that
    exists but is not a regular file (a FIFO, a device, a symlink) is refused
    before anything is created, since the move would replace it."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        pass
    else:
        if not stat.S_ISREG(mode):
            raise ValueError(f"{os.fspath(path)}: exists and is not a regular file; "
                             f"refusing to replace it")
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        # exclusive create: a fresh file with the permissions a plain open() gives
        fh = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8")
    except OSError as exc:
        exc.filename = os.fspath(path)  # report the artifact, not its temporary name
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_matrix_file(path, magic: str, rows: np.ndarray) -> None:
    with atomic_open(path) as fh:
        fh.write(magic + "\n")
        for row in rows:  # one row's floats at a time, not the whole matrix's
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def _write_table(path, magic: str, columns: list[str], rows) -> None:
    """A column line, then one ``label,value,...`` line per (label, values) row."""
    with atomic_open(path) as fh:
        fh.write(magic + "\n")
        fh.write(",".join(columns) + "\n")
        for label, values in rows:
            fh.write(",".join([str(label)] + [_fmt(v) for v in values]) + "\n")


def _write_kv(path, magic: str, items) -> None:
    """One ``key=value`` line per item; floats via ``_fmt``, other values as they are."""
    with atomic_open(path) as fh:
        fh.write(magic + "\n")
        for key, value in items:
            fh.write(f"{key}={_fmt(value) if isinstance(value, float) else value}\n")


def _parse(lines) -> np.ndarray:
    """numpy's C reader: comma-separated float64 fields, empty lines skipped."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _read_matrix(path, magic: str, key: str, width_of) -> tuple[int, np.ndarray]:
    """The header's ``key=`` value ``n``, then the body: finite floats,
    ``width_of(n)`` per row. Errors name the file and the row (its line number,
    the header being row 1)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header.startswith(magic):
                raise ValueError(f"{path}: expected header '{magic} ...', got '{header}'")
            n = _header_int(header, key, path)
            width = width_of(n)
            body = fh if fh.seekable() else io.StringIO(fh.read())  # a pipe reads once
            start = body.tell()
            line = body.readline()
            while line == "\n":
                line = body.readline()
            if not line:
                raise ValueError(f"{path}: no data rows")
            body.seek(start)
            try:
                rows = _parse(body)
            except ValueError:
                rows = None
            if rows is None or rows.shape[1] != width or not all_finite(rows):
                body.seek(start)
                _raise_first_fault(path, body, width)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return n, rows


def _raise_first_fault(path, body, width: int) -> NoReturn:
    """Parse the body again one non-empty line at a time, so the row named is
    the first one the bulk parse could not accept."""
    for i, line in enumerate(body, start=2):
        if line == "\n":
            continue
        try:
            row = _parse([line])
        except ValueError as exc:
            # numpy counts within the one-line input: keep only its column
            msg = re.sub(r" at row \d+, column (\d+)\.$", r" in column \1", str(exc))
            raise ValueError(f"{path}: row {i}: {msg}") from None
        if row.shape[1] != width:
            raise ValueError(f"{path}: row {i} has {row.shape[1]} values, expected {width}")
        if not all_finite(row):
            raise ValueError(f"{path}: row {i} holds a non-finite value")
    raise ValueError(f"{path}: rows do not parse as a whole")


def _header_int(header: str, key: str, path) -> int:
    for tok in header.split():
        if tok.startswith(key + "="):
            raw = tok.split("=", 1)[1]
            if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
                raise ValueError(f"{path}: header {tok} is not a positive integer")
            return int(raw)
    raise ValueError(f"{path}: header missing {key}=")


def write_windows(path, windows: np.ndarray) -> None:
    w = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    _write_matrix_file(path, f"{WINDOWS_MAGIC} T={w.shape[1]}", w)


def read_windows(path) -> np.ndarray:
    return _read_matrix(path, WINDOWS_MAGIC, "T", lambda t: t)[1]


def write_graphs(path, flat_graphs: np.ndarray, n_states: int) -> None:
    g = np.atleast_2d(np.asarray(flat_graphs, dtype=np.float64))
    if g.shape[1] != n_states * n_states:
        raise ValueError("flattened graph width does not match n_states")
    _write_matrix_file(path, f"{GRAPHS_MAGIC} Q={n_states}", g)


def read_graphs(path) -> tuple[np.ndarray, int]:
    q, rows = _read_matrix(path, GRAPHS_MAGIC, "Q", lambda q: q * q)
    return rows, q


def write_boundaries(path, bounds: QuantileBoundaries) -> None:
    _write_matrix_file(
        path, f"{BOUNDS_MAGIC} Q={bounds.n_states}", bounds.edges.reshape(1, -1)
    )


def read_boundaries(path) -> QuantileBoundaries:
    edges = _read_matrix(path, BOUNDS_MAGIC, "Q", lambda q: q + 1)[1]
    if edges.shape[0] != 1:
        raise ValueError(f"{path}: {edges.shape[0]} rows of edges, expected 1")
    try:
        return QuantileBoundaries(edges[0])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_loss_log(path, log: list[LossBreakdown]) -> None:
    columns = ["epoch"] + [f.name for f in fields(LossBreakdown)]
    _write_table(path, LOSSLOG_MAGIC, columns, enumerate(map(astuple, log)))


def write_metrics_report(path, report: MetricsReport) -> None:
    _write_kv(path, METRICS_MAGIC, report.as_items())


def write_tail_stats(path, x_stats: TailStats, dx_stats: TailStats) -> None:
    _write_kv(path, TAILSTATS_MAGIC, x_stats.as_items("x") + dx_stats.as_items("dx"))


def write_curve(path, name: str, values: np.ndarray) -> None:
    """One plot-ready value per row (lag or frequency-bin index implied)."""
    v = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    _write_matrix_file(path, f"{CURVE_MAGIC} name={name} N={v.shape[0]}", v)


def write_embeddings(path, embeddings: np.ndarray) -> None:
    """Raw embedding rows for external projection tools (t-SNE and friends)."""
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    _write_matrix_file(path, f"{EMBED_MAGIC} D={e.shape[1]}", e)


def write_ablation(path, results: list[tuple[str, MetricsReport]]) -> None:
    """One row of scores per ablation config, labelled by the config's name."""
    columns = ["config"] + [key for key, _ in results[0][1].score_items()]
    _write_table(path, ABLATION_MAGIC, columns,
                 ((label, [v for _, v in report.score_items()]) for label, report in results))


def write_gradcheck_report(path, batch: int, coordinates: int, max_rel_err: float,
                           status: str) -> None:
    """The fixed protocol (batch, step, bound) beside the result and PASS or FAIL."""
    _write_kv(path, GRADCHECK_MAGIC, [("batch", batch), ("h", GRADCHECK_STEP),
                                      ("coordinates", coordinates), ("max_rel_err", max_rel_err),
                                      ("tolerance", GRADCHECK_TOLERANCE), ("status", status)])


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def save_model(path, model: Graph2TS) -> None:
    """Binary checkpoint: magic, JSON meta (config echo, boundaries), named arrays."""
    meta = {
        "config": asdict(model.config),
        "best_epoch": model.best_epoch,
        "boundaries": list(map(float, model.boundaries.edges)),
    }
    with atomic_open(path, binary=True) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            arr = np.ascontiguousarray(model.params[name], dtype="<f8")
            if arr.ndim != 2:
                raise ValueError(f"parameter '{name}' is not 2-D")
            blob = name.encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes(order="C"))


def _check_param_schema(path, params: dict[str, np.ndarray], config: TrainConfig) -> None:
    """Names and shapes as ``param_shapes`` gives them for ``config``; values finite."""
    expected = param_shapes(config)
    missing = sorted(expected.keys() - params.keys())
    if missing:
        raise ValueError(f"{path}: parameter '{missing[0]}' missing for this config")
    extra = sorted(params.keys() - expected.keys())
    if extra:
        raise ValueError(f"{path}: unexpected parameter '{extra[0]}' for this config")
    for name in sorted(expected):
        if params[name].shape != expected[name]:
            raise ValueError(f"{path}: parameter '{name}' has shape {params[name].shape}, "
                             f"expected {expected[name]}")
        if not all_finite(params[name]):
            raise ValueError(f"{path}: parameter '{name}' holds a non-finite value")


def load_model(path) -> Graph2TS:
    """Inverse of save_model; a bad JSON header (config, best epoch or
    boundaries), truncation, trailing bytes, or parameters that do not match
    the config or hold NaN/Inf raise ValueError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if not buf.startswith(CKPT_MAGIC):
        raise ValueError(f"{path}: not a g2ts-ckpt v1 checkpoint")
    pos = len(CKPT_MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise ValueError(f"{path}: truncated at byte {len(buf)} while reading {what}")
        pos += n
        return buf[pos - n:pos]

    end = buf.find(b"\n", pos)
    if end < 0:
        raise ValueError(f"{path}: truncated inside the JSON header")
    try:
        meta = json.loads(buf[pos:end].decode("utf-8"))
        config = TrainConfig(**meta["config"])
        best_epoch = meta["best_epoch"]
        if not isinstance(best_epoch, int) or isinstance(best_epoch, bool):
            raise TypeError(f"best_epoch must be of type int, got {best_epoch!r}")
        edges = np.asarray(meta["boundaries"], dtype=np.float64)
        if edges.shape != (config.n_states + 1,):
            raise ValueError("boundaries need exactly n_states + 1 edges")
        bounds = QuantileBoundaries(edges)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad checkpoint JSON header: {exc!r}") from None
    pos = end + 1
    (count,) = struct.unpack("<I", take(4, "the array count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "an array name length"))
        try:
            name = take(name_len, "an array name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: array name at byte {pos - name_len + exc.start} "
                             f"is not UTF-8 ({exc.reason})") from None
        rows, cols = struct.unpack("<II", take(8, f"the shape of '{name}'"))
        data = np.frombuffer(take(rows * cols * 8, f"array '{name}'"), dtype="<f8")
        params[name] = data.reshape(rows, cols).astype(np.float64)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing byte(s) after the last array")
    _check_param_schema(path, params, config)
    return Graph2TS(config=config, params=params, boundaries=bounds, best_epoch=best_epoch)
