"""One rule for a set of rows, held by every function that takes one.

Windows, graphs and embeddings enter the package as sets of rows. Each
function below meets the same four inputs: a 3-D set, a set holding a NaN, a
set of the wrong width (where the function fixes the width), and a 1-D set,
which must act as the one-row 2-D set. Each bad set is a ValueError with one
exact message that names the set, and a writer leaves no file behind.
"""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from graph2ts import fileio
from graph2ts.dataset import DatasetSplit, NormStats, split, synth_generate, zscore_fit_apply
from graph2ts.metrics import evaluate, mean_curves, tail_stats
from graph2ts.model import Graph2TS, TrainConfig, init_params, train
from graph2ts.quantile_graph import fit_boundaries, windows_to_graphs

SRC = Path(__file__).resolve().parents[1] / "src" / "graph2ts"

T, Q = 8, 3
CONFIG = TrainConfig(window_length=T, n_states=Q, embed_dim=4, latent_dim=2, epochs=1,
                     batch_size=8, seed=1)
WINDOWS = synth_generate("sine_mix", 12, T, seed=3)
BOUNDS = fit_boundaries(WINDOWS.ravel(), Q)
GRAPHS = windows_to_graphs(WINDOWS, BOUNDS)
MODEL = Graph2TS(CONFIG, init_params(CONFIG, np.random.default_rng(1)), BOUNDS)


def _written(write, out_dir, rows):
    path = out_dir / "out.txt"
    write(path, rows)
    return path.read_bytes()


# caller: (the set's name in errors, the width it fixes or None, a good set, call)
CALLERS = {
    "generate": ("graph set", Q * Q, GRAPHS,
                 lambda x, d: MODEL.generate(x, n_per_graph=2, seed=0)),
    "ts_embeddings": ("window set", T, WINDOWS, lambda x, d: MODEL.ts_embeddings(x)),
    "train": ("training split", T, WINDOWS,
              lambda x, d: train(CONFIG, DatasetSplit(x, WINDOWS, NormStats(0.0, 1.0)))[0].params),
    "evaluate": ("real set", None, WINDOWS, lambda x, d: evaluate(x, WINDOWS[::-1])),
    "mean_curves": ("real set", None, WINDOWS, lambda x, d: mean_curves(x, WINDOWS[::-1])),
    "tail_stats": ("windows set", None, WINDOWS, lambda x, d: tail_stats(x)),
    "windows_to_graphs": ("window set", None, WINDOWS, lambda x, d: windows_to_graphs(x, BOUNDS)),
    "split": ("window set", None, WINDOWS, lambda x, d: split(x, 0.25, seed=0)),
    "zscore_fit_apply": ("window set", None, WINDOWS, lambda x, d: zscore_fit_apply(x)),
    "write_windows": ("window set", None, WINDOWS,
                      lambda x, d: _written(fileio.write_windows, d, x)),
    "write_graphs": ("graph set", Q * Q, GRAPHS,
                     lambda x, d: _written(lambda p, g: fileio.write_graphs(p, g, Q), d, x)),
    "write_embeddings": ("embedding set", None, WINDOWS,
                         lambda x, d: _written(fileio.write_embeddings, d, x)),
    "write_curve": ("acf_real curve", None, WINDOWS,
                    lambda x, d: _written(lambda p, c: fileio.write_curve(p, "acf_real", c), d, x)),
}
WIDTH_CALLERS = [name for name, case in CALLERS.items() if case[1] is not None]


def _rejects(caller, rows, out_dir, message):
    what, _, _, call = CALLERS[caller]
    with pytest.raises(ValueError, match=f"^{re.escape(what + message)}$"):
        call(rows, out_dir)
    assert not any(out_dir.iterdir())


@pytest.mark.parametrize("caller", CALLERS)
def test_3d_set(caller, tmp_path):
    cube = CALLERS[caller][2][None]
    _rejects(caller, cube, tmp_path, f" must be 1-D or 2-D, got shape {cube.shape}")


@pytest.mark.parametrize("caller", CALLERS)
def test_nan(caller, tmp_path):
    rows = CALLERS[caller][2].copy()
    rows[1, 2] = np.nan
    _rejects(caller, rows, tmp_path, " holds a non-finite value (nan) at row 1, column 2")


@pytest.mark.parametrize("caller", WIDTH_CALLERS)
def test_wrong_width(caller, tmp_path):
    _, width, rows, _ = CALLERS[caller]
    _rejects(caller, rows[:, 1:], tmp_path,
             f" has shape {(rows.shape[0], width - 1)}; expected rows of width {width}")


def _key(value):
    """A comparable form of a result: arrays by shape and bytes, containers by item."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return _key(dataclasses.astuple(value))
    if isinstance(value, dict):
        return tuple((k, _key(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(_key, value))
    return value


def _outcome(call, rows, out_dir):
    out_dir.mkdir()
    try:
        return _key(call(rows, out_dir))
    except ValueError as err:
        return "ValueError", str(err)


@pytest.mark.parametrize("caller", CALLERS)
def test_1d_set_is_one_row(caller, tmp_path):
    _, _, rows, call = CALLERS[caller]
    assert (_outcome(call, rows[0], tmp_path / "flat")
            == _outcome(call, rows[:1], tmp_path / "row"))


def test_atleast_2d_only_in_as_rows():
    # as_rows is the one place that turns a 1-D input into a row
    tree = ast.parse((SRC / "dataset.py").read_text(encoding="utf-8"))
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "as_rows"]
    allowed = {("dataset.py", n) for n in range(fn.lineno, fn.end_lineno + 1)}
    hits = {(path.name, n)
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if "np.atleast_2d(" in line}
    assert hits and hits <= allowed, sorted(hits - allowed)
