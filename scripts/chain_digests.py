"""Print the sha256 of every artifact of a fixed-seed CLI chain.

The chain runs through ``graph2ts.cli.main`` in a temporary directory, once per
corpus (a sine_mix and a heavy_tail series made from fixed seeds):

    ingest -> graph -> train (full, deterministic, no_graph)
           -> generate -> stats -> eval (with curves and embeddings)

followed by ``gradcheck`` for each variant at small widths and for ``full`` at
the default widths (the last takes about a minute). Each artifact gives one
``sha256  path`` line, with the path relative to the run directory. Two
source trees produce the same bytes exactly when the outputs are equal:

    python scripts/chain_digests.py > after.txt
    diff before.txt after.txt

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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
    for variant in VARIANTS:
        run = root / variant
        _run("train", "--windows", root / "windows.txt", "--outdir", run,
             "--variant", variant, *TRAIN)
        ckpt = run / "checkpoint.g2ts"
        _run("generate", "--checkpoint", ckpt, "--graphs", run / "eval_graphs.txt",
             "--out", run / "synth.txt", "--n-per-graph", "7", "--seed", "7")
        _run("stats", "--windows", run / "synth.txt", "--out", run / "tails.txt")
        _run("eval", "--real", run / "eval_windows.txt", "--synth", run / "synth.txt",
             "--out", run / "metrics.txt", "--curves-dir", run / "curves",
             "--embeddings-dir", run / "embeddings", "--checkpoint", ckpt)


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
