"""Print the sha256 of every artifact of a fixed-seed CLI chain.

The chain runs through ``graph2ts.cli.main`` in a temporary directory, once per
corpus (a sine_mix and a heavy_tail series made from fixed seeds):

    ingest -> graph -> eval (all 3000 windows against themselves)
           -> train (full, deterministic, no_graph)
           -> generate (--n-per-graph 1, 7 and 40) -> stats -> eval
              (with curves and embeddings, on the 7-per-graph windows)
           -> eval (all 3000 windows against the 40-per-graph windows)
           -> ablate (the seven-configuration grid at the TRAIN settings, and
              again at the SMALL widths)

The 900 eval graphs decode in 1, 2 and 9 blocks at the three ``--n-per-graph``
values, so the digests cover one block, a few blocks and many blocks. The
eval on the 7-per-graph windows scores 900 rows, which fit in one distance
chunk; the two evals of all 3000 windows split into 5, so the digests cover the
chunked distance passes as well. Scored against themselves, every window's
nearest synthetic neighbour is itself, at exactly 0.0, so the digests cover the
exact-zero path at chunked scale too. This is followed by ``gradcheck`` for
each variant at small widths and for ``full`` at the default widths. The
default-width ``gradcheck`` (about 30 s) runs in one ``spawn`` worker and
everything else in another, each with one OpenBLAS thread; one thread gives
the same bytes as two, and on one CPU both shares run in turn in one worker.
The output starts with a header line that names the environment (python,
numpy, the BLAS build, the OpenBLAS core it runs on and numpy's SIMD dispatch
targets on this CPU), then each artifact
gives one ``sha256  path`` line, with the path relative to the run directory.
Two source trees produce the same bytes exactly when the outputs are equal:

    python scripts/chain_digests.py > after.txt
    diff before.txt after.txt

``--check FILE`` compares the run with a recorded output instead, such as the
committed ``scripts/digests.sha256``. It exits 0 when every digest matches and
1 after naming each artifact that differs, is missing or is new. It exits 2
without running anything when the file's header names another environment,
since the bytes of another BLAS build, BLAS core or SIMD target set are not
comparable.

Each corpus is also trained once more with the ``TRAIN`` settings read from a
``--config`` file instead of flags. The script exits non-zero unless that run's
artifacts equal the flag-driven ``full`` run's byte for byte, which shows that
file and flags resolve to the same settings. The twin is removed before the
digests are taken.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from graph2ts import cli, dataset  # noqa: E402

VARIANTS = ("full", "deterministic", "no_graph")
CORPORA = (("sine_mix", 3), ("heavy_tail", 4))
N_WINDOWS = 3000
WINDOW = 32
TRAIN = ("--epochs", "4", "--batch-size", "256", "--eval-fraction", "0.3", "--seed", "7")
SMALL = ("--embed-dim", "6", "--latent-dim", "2")
PER_GRAPH = (1, 7, 40)
HEADER = "# graph2ts chain digests"


class ChainError(Exception):
    """A command of the chain failed; raised in a worker, re-raised by the pool."""


def _run(*argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise ChainError(f"exit {rc} from: graph2ts {' '.join(argv)}")


def _chain(root: Path, kind: str, seed: int) -> None:
    windows = dataset.synth_generate(kind, N_WINDOWS, WINDOW, seed)
    series = root / "series.txt"
    series.write_text("value\n" + "\n".join(map(repr, windows.ravel().tolist())) + "\n")
    _run("ingest", "--input", series, "--out", root / "windows.txt",
         "--window-length", WINDOW)
    _run("graph", "--windows", root / "windows.txt", "--out", root / "graphs.txt")
    _run("eval", "--real", root / "windows.txt", "--synth", root / "windows.txt",
         "--out", root / "metrics_self.txt")
    for variant in VARIANTS:
        run = root / variant
        _run("train", "--windows", root / "windows.txt", "--outdir", run,
             "--variant", variant, *TRAIN)
        ckpt = run / "checkpoint.g2ts"
        for k in PER_GRAPH:
            _run("generate", "--checkpoint", ckpt, "--graphs", run / "eval_graphs.txt",
                 "--out", run / f"synth_n{k}.txt", "--n-per-graph", k, "--seed", "7")
        _run("stats", "--windows", run / "synth_n7.txt", "--out", run / "tails.txt")
        _run("eval", "--real", run / "eval_windows.txt", "--synth", run / "synth_n7.txt",
             "--out", run / "metrics.txt", "--curves-dir", run / "curves",
             "--embeddings-dir", run / "embeddings", "--checkpoint", ckpt)
        _run("eval", "--real", root / "windows.txt", "--synth", run / "synth_n40.txt",
             "--out", run / "metrics_n40.txt")
    _run("ablate", "--windows", root / "windows.txt", "--out", root / "ablation.csv", *TRAIN)
    _run("ablate", "--windows", root / "windows.txt", "--out", root / "ablation_small.csv",
         *TRAIN, *SMALL)
    _check_config_twin(root)


def _check_config_twin(root: Path) -> None:
    """Train ``full`` from a config file holding TRAIN and compare with the flag run."""
    cfg = root / "train.cfg"
    cfg.write_text("".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                           for flag, value in zip(TRAIN[::2], TRAIN[1::2])))
    twin = root / "full_config"
    _run("train", "--windows", root / "windows.txt", "--outdir", twin, "--config", cfg)
    for path in sorted(twin.iterdir()):
        if path.read_bytes() != (root / "full" / path.name).read_bytes():
            raise ChainError(f"{path.name} from --config {cfg} differs "
                             f"from the flag-driven full run")
    shutil.rmtree(twin)
    cfg.unlink()


def _openblas_core() -> str:
    """The core type the loaded OpenBLAS picked at run time, or ``none``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "none"


def environment_header() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    # numpy's dispatched loops (exp, log, sin and cos, which reach the artifacts
    # through the model, the losses and the synthetic series) round by target
    simd = ",".join(config["SIMD Extensions"]["found"]) or "none"
    return (f"{HEADER} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} openblas_core={_openblas_core()} "
            f"simd={simd}")


def _default_gradcheck(top: Path) -> None:
    _run("gradcheck", "--seed", "11", "--out", top / "gradcheck_default_full.txt")


def _chains_and_small_gradchecks(top: Path) -> None:
    for kind, seed in CORPORA:
        (top / kind).mkdir()
        _chain(top / kind, kind, seed)
    for variant in VARIANTS:
        _run("gradcheck", "--variant", variant, *SMALL, "--seed", "2",
             "--out", top / f"gradcheck_small_{variant}.txt")


def digests() -> dict[str, str]:
    """Run every chain in a temporary directory; artifact path -> sha256."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        top = Path(tmp)
        # spawned workers read the thread count when they import numpy
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            with multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1)) as pool:
                shares = [pool.apply_async(job, (top,))
                          for job in (_default_gradcheck, _chains_and_small_gradchecks)]
                for share in shares:
                    share.get()
        except ChainError as err:
            raise SystemExit(f"chain_digests: {err}") from None
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            out[path.relative_to(top).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check(record: Path) -> int:
    lines = record.read_text(encoding="utf-8").splitlines()
    header = environment_header()
    if not lines or lines[0] != header:
        print(f"chain_digests: {record} was recorded in another environment; nothing compared\n"
              f"  recorded: {lines[0] if lines else '(empty file)'}\n  running:  {header}",
              file=sys.stderr)
        return 2
    want = {path: digest for digest, path in (ln.split("  ", 1) for ln in lines[1:])}
    got = digests()
    differ = sorted(p for p in want.keys() | got.keys() if want.get(p) != got.get(p))
    for path in differ:
        what = "missing" if path not in got else "new" if path not in want else "differs"
        print(f"chain_digests: {path}: {what}", file=sys.stderr)
    print(f"chain_digests: {len(got) - len(differ)} of {len(want.keys() | got.keys())} "
          f"artifacts match {record}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print or check the digests of a "
                                                 "fixed-seed CLI chain.")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="compare with a recorded output instead of printing")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    print(environment_header())
    for path, digest in digests().items():
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
