"""Print the sha256 of every artifact of a fixed-seed CLI chain.

The chain runs through ``graph2ts.cli.main`` in a temporary directory, once per
corpus (a sine_mix and a heavy_tail series made from fixed seeds):

    ingest -> graph -> eval (all 3000 windows against themselves)
           -> train (full, deterministic, no_graph)
           -> generate (--n-per-graph 1, 7 and 40) -> stats -> eval
              (with curves and embeddings, on the 7-per-graph windows)
           -> eval (all 3000 windows against the 40-per-graph windows)
           -> ablate (the seven-configuration grid at the TRAIN settings)

The 900 eval graphs decode in 1, 2 and 9 blocks at the three ``--n-per-graph``
values, so the digests cover one block, a few blocks and many blocks. The
eval on the 7-per-graph windows scores 900 rows, which fit in one distance
chunk; the two evals of all 3000 windows split into 5, so the digests cover the
chunked distance passes as well. Scored against themselves, every window's
nearest synthetic neighbour is itself, at exactly 0.0, so the digests cover the
exact-zero path at chunked scale too. This is followed by ``gradcheck`` for
each variant at small widths and for ``full`` at the default widths (the last
takes about a minute). Each artifact gives one ``sha256  path`` line, with the
path relative to the run directory. Two source trees produce the same bytes
exactly when the outputs are equal:

    python scripts/chain_digests.py > after.txt
    diff before.txt after.txt

Each corpus is also trained once more with the ``TRAIN`` settings read from a
``--config`` file instead of flags. The script exits non-zero unless that run's
artifacts equal the flag-driven ``full`` run's byte for byte, which shows that
file and flags resolve to the same settings. The twin is removed before the
digests are taken.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graph2ts import cli, dataset  # noqa: E402

VARIANTS = ("full", "deterministic", "no_graph")
CORPORA = (("sine_mix", 3), ("heavy_tail", 4))
N_WINDOWS = 3000
WINDOW = 32
TRAIN = ("--epochs", "4", "--batch-size", "256", "--eval-fraction", "0.3", "--seed", "7")
SMALL = ("--embed-dim", "6", "--latent-dim", "2")
PER_GRAPH = (1, 7, 40)


def _run(*argv) -> None:
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"chain_digests: exit {rc} from: graph2ts {' '.join(argv)}")


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
            raise SystemExit(f"chain_digests: {path.name} from --config {cfg} differs "
                             f"from the flag-driven full run")
    shutil.rmtree(twin)
    cfg.unlink()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        top = Path(tmp)
        for kind, seed in CORPORA:
            (top / kind).mkdir()
            _chain(top / kind, kind, seed)
        for variant in VARIANTS:
            _run("gradcheck", "--variant", variant, *SMALL, "--seed", "2",
                 "--out", top / f"gradcheck_small_{variant}.txt")
        _run("gradcheck", "--seed", "11", "--out", top / "gradcheck_default_full.txt")
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(top).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
