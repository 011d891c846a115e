"""Versioned on-disk formats for every pipeline artifact.

Text artifacts start with a `# graph2ts-<kind> v1 ...` header line and hold
comma-separated values; floats are written with repr so re-reading is exact
and runs with identical seeds produce byte-identical files. The checkpoint is
a little-endian binary container of named 2-D float64 arrays preceded by a
JSON echo of the training config. Every writer goes through ``atomic_open``,
so an artifact is either the old file or the complete new one, never a
half-written mix.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .metrics import MetricsReport, TailStats
from .model import Graph2TS, LossBreakdown, TrainConfig, init_params
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
CKPT_MAGIC = b"g2ts-ckpt v1\n"


def _fmt(v: float) -> str:
    return repr(float(v))


@contextmanager
def atomic_open(path, binary: bool = False):
    """Write through a temporary file in the target directory, moved over ``path``
    with ``os.replace`` once the block succeeds. On error the temporary file is
    removed and any old file at ``path`` is left untouched."""
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
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _read_header(path, expected: str) -> tuple[str, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith(expected):
            raise ValueError(f"{path}: expected header '{expected} ...', got '{header}'")
        return header, fh.read().splitlines()


def _parse_rows(path, lines: list[str], width: int) -> np.ndarray:
    """Comma-separated finite floats, ``width`` per row; errors name the file and
    the row (its line number, the header being row 1)."""
    rows = []
    row_nos = []
    for i, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            vals = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
        if len(vals) != width:
            raise ValueError(f"{path}: row {i} has {len(vals)} values, expected {width}")
        rows.append(vals)
        row_nos.append(i)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    out = np.array(rows)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        bad = row_nos[int(np.argmin(finite))]
        raise ValueError(f"{path}: row {bad} holds a non-finite value")
    return out


def _header_int(header: str, key: str, path) -> int:
    for tok in header.split():
        if tok.startswith(key + "="):
            return int(tok.split("=", 1)[1])
    raise ValueError(f"{path}: header missing {key}=")


def write_windows(path, windows: np.ndarray) -> None:
    w = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    _write_matrix_file(path, f"{WINDOWS_MAGIC} T={w.shape[1]}", w)


def read_windows(path) -> np.ndarray:
    header, lines = _read_header(path, WINDOWS_MAGIC)
    return _parse_rows(path, lines, _header_int(header, "T", path))


def write_graphs(path, flat_graphs: np.ndarray, n_states: int) -> None:
    g = np.atleast_2d(np.asarray(flat_graphs, dtype=np.float64))
    if g.shape[1] != n_states * n_states:
        raise ValueError("flattened graph width does not match n_states")
    _write_matrix_file(path, f"{GRAPHS_MAGIC} Q={n_states}", g)


def read_graphs(path) -> tuple[np.ndarray, int]:
    header, lines = _read_header(path, GRAPHS_MAGIC)
    q = _header_int(header, "Q", path)
    return _parse_rows(path, lines, q * q), q


def write_boundaries(path, bounds: QuantileBoundaries) -> None:
    _write_matrix_file(
        path, f"{BOUNDS_MAGIC} Q={bounds.n_states}", bounds.edges.reshape(1, -1)
    )


def read_boundaries(path) -> QuantileBoundaries:
    header, lines = _read_header(path, BOUNDS_MAGIC)
    q = _header_int(header, "Q", path)
    edges = _parse_rows(path, lines, q + 1)
    return QuantileBoundaries(edges=edges[0], n_states=q)


def write_loss_log(path, log: list[LossBreakdown]) -> None:
    with atomic_open(path) as fh:
        fh.write(LOSSLOG_MAGIC + "\n")
        fh.write("epoch,align,recon,dist,kl,beta,total\n")
        for epoch, e in enumerate(log):
            fh.write(
                f"{epoch},{_fmt(e.align)},{_fmt(e.recon)},{_fmt(e.dist)},"
                f"{_fmt(e.kl)},{_fmt(e.beta)},{_fmt(e.total)}\n"
            )


def _write_kv(path, magic: str, items) -> None:
    with atomic_open(path) as fh:
        fh.write(magic + "\n")
        for key, value in items:
            fh.write(f"{key}={_fmt(value)}\n")


def write_metrics_report(path, report: MetricsReport) -> None:
    _write_kv(path, METRICS_MAGIC, report.as_items())


def write_tail_stats(path, x_stats: TailStats, dx_stats: TailStats) -> None:
    _write_kv(path, TAILSTATS_MAGIC, x_stats.as_items("x") + dx_stats.as_items("dx"))


def write_curve(path, name: str, values: np.ndarray) -> None:
    """One plot-ready value per row (lag or frequency-bin index implied)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    with atomic_open(path) as fh:
        fh.write(f"{CURVE_MAGIC} name={name} N={v.size}\n")
        for x in v:
            fh.write(_fmt(x) + "\n")


def write_embeddings(path, embeddings: np.ndarray) -> None:
    """Raw embedding rows for external projection tools (t-SNE and friends)."""
    e = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    _write_matrix_file(path, f"{EMBED_MAGIC} D={e.shape[1]}", e)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def save_model(path, model: Graph2TS) -> None:
    """Binary checkpoint: magic, JSON meta (config echo, boundaries), named arrays."""
    meta = {
        "config": asdict(model.config),
        "best_epoch": model.best_epoch,
        "boundaries": None
        if model.boundaries is None
        else list(map(float, model.boundaries.edges)),
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
    """Names and shapes as ``init_params`` makes them for ``config``; values finite."""
    expected = init_params(config, np.random.default_rng(0))
    missing = sorted(expected.keys() - params.keys())
    if missing:
        raise ValueError(f"{path}: parameter '{missing[0]}' missing for this config")
    extra = sorted(params.keys() - expected.keys())
    if extra:
        raise ValueError(f"{path}: unexpected parameter '{extra[0]}' for this config")
    for name in sorted(expected):
        if params[name].shape != expected[name].shape:
            raise ValueError(
                f"{path}: parameter '{name}' has shape {params[name].shape}, "
                f"expected {expected[name].shape}"
            )
        if not np.isfinite(params[name]).all():
            raise ValueError(f"{path}: parameter '{name}' holds a non-finite value")


def load_model(path) -> Graph2TS:
    """Inverse of save_model; truncation, trailing bytes, or parameters that do
    not match the config or hold NaN/Inf raise ValueError."""
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
        best_epoch, edges = meta["best_epoch"], meta["boundaries"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad checkpoint JSON header: {exc!r}") from None
    pos = end + 1
    (count,) = struct.unpack("<I", take(4, "the array count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "an array name length"))
        name = take(name_len, "an array name").decode("utf-8")
        rows, cols = struct.unpack("<II", take(8, f"the shape of '{name}'"))
        data = np.frombuffer(take(rows * cols * 8, f"array '{name}'"), dtype="<f8")
        params[name] = data.reshape(rows, cols).astype(np.float64)
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing byte(s) after the last array")
    _check_param_schema(path, params, config)
    bounds = None
    if edges is not None:
        bounds = QuantileBoundaries(edges=np.array(edges), n_states=config.n_states)
    return Graph2TS(config=config, params=params, boundaries=bounds, best_epoch=best_epoch)
