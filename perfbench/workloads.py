"""The benchmark's two workloads: inputs made from a seed, a timed pass, checks.

Every workload exposes ``setup()`` (inputs, checkpoint, warm-up),
``run_once(k, repeats)`` (one timed pass of its pipeline, returning one value
per metric and lists of per-call seconds) and ``check(k)`` (correctness checks on that pass's outputs, run
untimed and untraced). With ``repeats`` a pass also re-runs some calls so that
their rates cover more of the pass; a rate is then the work of all those calls
over their summed time. Where a shared machine's speed switches between a fast
and a slow state every second or so, the median of a few calls lands on either
state, while the pooled rate averages them. Traced runs pass ``repeats``
false, so every traced pass, and the untraced passes its overhead is measured
against, hold the pipeline's own mix of work.
Input sizes are class constants; an instance may override them. The
program is always reached through module attributes (``model.train``, not a
name imported here), so the trace wrappers see every call.

Why these two (see also BENCHMARK.json):

- ``score_n4000``: graphs, forward-only generation of 10 windows per graph and
  ``evaluate`` at N=4000, whose seven exact O(N^2) distance passes put nearly
  all time in _accel. No tape recording, no backward in its timed pipeline.
  Its checkpoint is ``train()`` at the acceptance protocol (sine_mix N=2000,
  T=32, 10 % eval, B=256, variant ``full``, 5 epochs), the loop that dominates
  the Tier-1 suite; untraced passes re-train it for ``train_windows_per_s``.
- ``cli_artifacts``: the six-command CLI chain over a 10k-window heavy-tailed
  corpus, so text formatting/parsing (fileio), dataset windowing and
  quantile_graph dominate and every artifact kind is written and read back.
  The chain takes ~3-4 s, so a run times many chains and pools them; it
  makes no repeats. Its ``train`` command puts autodiff, model
  and optim spans into the traced run.

There is no separate training workload: its train rate is the one
``score_n4000`` re-measures, and its layers are traced on ``cli_artifacts``.
Two workloads leave each run long enough to average a shared host's speed
drift, which moves interpreter-bound work (the CLI chain) most.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path
from time import perf_counter as _clock

import numpy as np

from graph2ts import _accel, cli, dataset, fileio, metrics, model, quantile_graph

T_LEN = 32
N_STATES = 10


# --- inputs, generated here so a change to the program cannot change them ----

def sine_mix(rng: np.random.Generator, n: int, t_len: int = T_LEN) -> np.ndarray:
    """Two sinusoids per window (random phase, amplitude 0.7-1.3, 1/2/3/5 cycles)
    plus N(0, 0.1^2) noise: the acceptance-protocol corpus."""
    steps = np.arange(t_len)
    out = 0.1 * rng.standard_normal((n, t_len))
    for _ in range(2):
        freq = rng.choice(np.array([1.0, 2.0, 3.0, 5.0]), size=n)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=n)
        amp = rng.uniform(0.7, 1.3, size=n)
        out += amp[:, None] * np.sin(
            2.0 * np.pi * freq[:, None] * steps / t_len + phase[:, None])
    return out


def heavy_tail_series(rng: np.random.Generator, length: int) -> np.ndarray:
    """AR(1), phi=0.9, driven by Student-t(3) innovations: heavy-tailed increments."""
    innov = rng.standard_t(3, size=length).tolist()
    out = []
    acc = innov[0] / math.sqrt(1.0 - 0.81)
    for e in innov:  # a plain-float loop over ~1.3M values takes ~0.2 s
        acc = 0.9 * acc + e
        out.append(acc)
    return np.array(out)


def _write_series(path: Path, values: np.ndarray) -> None:
    """One value per line under a text header, the layout ``ingest`` reads."""
    path.write_text("value\n" + "\n".join(map(repr, values.tolist())) + "\n")


# --- correctness helpers ------------------------------------------------------

def _brute_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances written as the exact reference ((a - b) ** 2).sum()."""
    return np.stack([((a[i] - b) ** 2).sum(axis=1) for i in range(a.shape[0])])


def kernel_checks(a: np.ndarray, b: np.ndarray) -> list[tuple[str, bool]]:
    """The three distance kernels against the brute-force reference, bit for bit.

    ``b`` gains exact copies of some rows of ``a`` (distance must be 0.0) and
    the medoid set is doubled so every candidate ties with its copy (the lower
    index must win).
    """
    b_dup = np.vstack([b, a[::7]])
    ref_min = np.sqrt(_brute_d2(a, b_dup).min(axis=1))
    got_min = _accel.min_dist_to_set(a, b_dup)

    a_dup = np.vstack([a, a[:16]])
    d2 = _brute_d2(a_dup, a_dup)
    np.fill_diagonal(d2, np.inf)
    ref_nn = np.sqrt(d2.min(axis=1))
    got_nn = _accel.nn_dist_excl_self(a_dup)

    twice = np.vstack([a, a])
    ref_med = int(np.argmin(np.sqrt(_brute_d2(twice, twice)).sum(axis=1)))
    got_med = _accel.medoid_index(twice)
    ref_med_b = int(np.argmin(np.sqrt(_brute_d2(b, b)).sum(axis=1)))
    got_med_b = _accel.medoid_index(b)
    return [
        ("min_dist_to_set == brute force", np.array_equal(got_min, ref_min)),
        ("min_dist_to_set gives 0.0 for copied rows",
         bool((got_min[::7] == 0.0).all())),
        ("nn_dist_excl_self == brute force", np.array_equal(got_nn, ref_nn)),
        ("nn_dist_excl_self gives 0.0 for duplicated rows",
         bool((got_nn[:16] == 0.0).all() and (got_nn[-16:] == 0.0).all())),
        ("medoid_index tie takes lowest index",
         got_med == ref_med and ref_med < a.shape[0]),
        ("medoid_index == brute force", got_med_b == ref_med_b),
    ]


def param_bytes(m) -> dict:
    """A trained model's parameters as bytes, for byte-identity checks."""
    return {name: v.tobytes() for name, v in m.params.items()}


def report_checks(report) -> list[tuple[str, bool]]:
    values = [v for _, v in report.as_items()]
    cov = list(report.coverage.values())
    return [
        ("every report value finite", bool(np.isfinite(values).all())),
        ("coverage within [0, 1]", all(0.0 <= c <= 1.0 for c in cov)),
    ]


# --- workloads ----------------------------------------------------------------

class ScoreN4000:
    """Graphs for 4000 held-out windows, 10 samples per graph, ``evaluate`` at N=4000."""

    N_TRAIN = 2000
    N_REAL = 4000
    PER_GRAPH = 10
    CKPT_EPOCHS = 5
    CKPT_REPEATS = 2  # with repeats, checkpoint trains at the start and the end of a pass
    GENERATE_REPEATS = 10  # with repeats only: one generation is ~1% of a pass
    CHECK_ROWS = 240

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        data = dataset.split(sine_mix(rng, self.N_TRAIN), 0.1, self.seed)
        held_out = sine_mix(rng, self.N_REAL)
        self.real = (held_out - data.norm.mean) / data.norm.std
        warm = model.TrainConfig(epochs=1, batch_size=256, seed=self.seed)
        model.train(warm, data)
        self.data = data
        self.ckpt_config = model.TrainConfig(
            epochs=self.CKPT_EPOCHS, batch_size=256, seed=self.seed)
        self._train_checkpoint()
        self.ref_params = param_bytes(self.model)
        # warm-up of the scoring path on a slice
        part = self.real[: max(2, self.N_REAL // 8)]
        graphs = quantile_graph.windows_to_graphs(part, self.model.boundaries)
        synth = self.model.generate(graphs, n_per_graph=self.PER_GRAPH, seed=self.seed)
        metrics.evaluate(part, synth, seed=self.seed)

    def _train_checkpoint(self) -> float:
        """Trains the checkpoint into ``self.model`` and its log into ``self.log``
        (same seed, same result); returns the seconds it took."""
        t0 = _clock()
        self.model, self.log = model.train(self.ckpt_config, self.data)
        return _clock() - t0

    def run_once(self, k: int, repeats: bool) -> dict:
        trains = self.CKPT_REPEATS if repeats else 0
        train_s = [self._train_checkpoint() for _ in range(trains)]
        t0 = _clock()
        graphs = quantile_graph.windows_to_graphs(self.real, self.model.boundaries)
        # half the generation repeats run before evaluate and half after, so
        # their samples span the pass; the first feeds evaluate
        draws = self._draws(repeats)
        half = (draws + 1) // 2
        gen_s = self._generate(graphs, k, range(0, half))
        t = _clock()
        self.report = metrics.evaluate(self.real, self.synth, seed=self.seed)
        t_eval = _clock() - t
        gen_s += self._generate(graphs, k, range(half, draws))
        pipeline_s = _clock() - t0
        train_s += [self._train_checkpoint() for _ in range(trains)]
        out = {
            "generate_windows_per_s": self.synth.shape[0] * len(gen_s) / sum(gen_s),
            "eval_windows_per_s": self.real.shape[0] / t_eval,
            "pipeline_s": pipeline_s,
            "generate_call_s": gen_s,
        }
        if train_s:
            windows = self.data.train.shape[0] * self.CKPT_EPOCHS * len(train_s)
            out["train_windows_per_s"] = windows / sum(train_s)
            out["checkpoint_train_s"] = train_s
        return out

    def _generate(self, graphs: np.ndarray, k: int, draws: range) -> list[float]:
        secs = []
        for j in draws:
            t = _clock()
            synth = self.model.generate(
                graphs, n_per_graph=self.PER_GRAPH, seed=self.seed + 1000 * k + j)
            secs.append(_clock() - t)
            if j == 0:
                self.synth = synth
        return secs

    def _draws(self, repeats: bool) -> int:
        return self.GENERATE_REPEATS if repeats else 1

    def operations(self, repeats: bool) -> int:
        # windows_to_graphs, generate x draws, evaluate, and the checkpoint trains
        return 2 + self._draws(repeats) + (2 * self.CKPT_REPEATS if repeats else 0)

    def check(self, k: int) -> list[tuple[str, bool]]:
        rows = min(self.CHECK_ROWS, self.real.shape[0])
        shape_ok = self.synth.shape == (self.real.shape[0] * self.PER_GRAPH, T_LEN)
        fields = ("align", "recon", "dist", "kl", "beta", "total")
        losses = [getattr(e, f) for e in self.log for f in fields]
        return [
            ("every logged loss finite", bool(np.isfinite(losses).all())),
            ("last epoch total below first", self.log[-1].total < self.log[0].total),
            ("same seed gives byte-identical checkpoint parameters",
             param_bytes(self.model) == self.ref_params),
            ("generated windows have the expected shape", shape_ok),
            ("generated windows finite", bool(np.isfinite(self.synth).all())),
        ] + kernel_checks(self.real[:rows], self.synth[:rows]) + report_checks(self.report)


class CliArtifacts:
    """``ingest -> graph -> train -> generate -> stats -> eval`` through ``cli.main``."""

    # 10k windows rather than 40k: a 40k chain (~17 s) fits once in a run, and
    # one chain per run spread too much from run to run
    N_WINDOWS = 10_000
    EVAL_FRACTION = 0.025
    PER_GRAPH = 40
    BATCH = 256  # the acceptance-protocol batch; the default 4096 needs far more memory
    COMMANDS = ("ingest", "graph", "train", "generate", "stats", "eval")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        series = heavy_tail_series(rng, self.N_WINDOWS * T_LEN)
        self.corpus = self.workdir / "corpus.txt"
        _write_series(self.corpus, series)
        # warm-up: the same chain over the first 2000 windows
        warm = self.workdir / "warm.txt"
        _write_series(warm, series[: 2000 * T_LEN])
        self._chain(warm, self.workdir / "warm")
        shutil.rmtree(self.workdir / "warm")
        warm.unlink()

    def _argvs(self, corpus: Path, d: Path) -> list[list[str]]:
        s = str(self.seed)
        return [
            ["ingest", "--input", str(corpus), "--out", str(d / "windows.txt")],
            ["graph", "--windows", str(d / "windows.txt"), "--out", str(d / "graphs.txt")],
            ["train", "--windows", str(d / "windows.txt"), "--outdir", str(d / "model"),
             "--epochs", "1", "--batch-size", str(self.BATCH),
             "--eval-fraction", str(self.EVAL_FRACTION), "--seed", s],
            ["generate", "--checkpoint", str(d / "model" / "checkpoint.g2ts"),
             "--graphs", str(d / "model" / "eval_graphs.txt"), "--out", str(d / "synth.txt"),
             "--n-per-graph", str(self.PER_GRAPH), "--seed", s],
            ["stats", "--windows", str(d / "synth.txt"), "--out", str(d / "stats.txt")],
            ["eval", "--real", str(d / "model" / "eval_windows.txt"),
             "--synth", str(d / "synth.txt"), "--out", str(d / "metrics.txt"), "--seed", s],
        ]

    def _call(self, argv: list[str]) -> tuple[int, float]:
        t0 = _clock()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, _clock() - t0

    def _chain(self, corpus: Path, d: Path) -> tuple[list[int], list[float]]:
        d.mkdir(parents=True)
        runs = [self._call(argv) for argv in self._argvs(corpus, d)]
        return [c for c, _ in runs], [s for _, s in runs]

    def run_once(self, k: int, repeats: bool) -> dict:
        self.run_dir = self.workdir / f"run{k}"
        self.codes, secs = self._chain(self.corpus, self.run_dir)
        cmd_s = dict(zip(self.COMMANDS, secs))
        n_eval = self.n_eval()
        out = {
            "train_windows_per_s": (self.N_WINDOWS - n_eval) / cmd_s["train"],
            "generate_windows_per_s": n_eval * self.PER_GRAPH / cmd_s["generate"],
            "eval_windows_per_s": n_eval / cmd_s["eval"],
            "pipeline_s": sum(secs),
        }
        out.update({f"cli_{c}_s": s for c, s in cmd_s.items()})
        return out

    def n_eval(self) -> int:
        n = self.N_WINDOWS
        return n - math.ceil((1.0 - self.EVAL_FRACTION) * n - 1e-9)

    def operations(self, repeats: bool) -> int:
        return len(self.COMMANDS)

    def check(self, k: int) -> list[tuple[str, bool]]:
        d = self.run_dir
        n = self.N_WINDOWS
        n_eval = self.n_eval()
        checks = [(f"cli {c} returned 0", code == 0)
                  for c, code in zip(self.COMMANDS, self.codes)]
        try:
            windows = fileio.read_windows(d / "windows.txt")
            graphs, q = fileio.read_graphs(d / "graphs.txt")
            eval_graphs, q_eval = fileio.read_graphs(d / "model" / "eval_graphs.txt")
            eval_windows = fileio.read_windows(d / "model" / "eval_windows.txt")
            synth = fileio.read_windows(d / "synth.txt")
            bounds = fileio.read_boundaries(d / "graphs.txt.boundaries")
            train_bounds = fileio.read_boundaries(d / "model" / "boundaries.txt")
            ckpt = fileio.load_model(d / "model" / "checkpoint.g2ts")
        except (OSError, ValueError) as err:
            return checks + [(f"artifacts re-read ({err})", False)]
        row_sums = np.concatenate([
            g.reshape(-1, q, q).sum(axis=2).ravel() for g in (graphs, eval_graphs)])
        sums_ok = np.isclose(row_sums, 1.0, rtol=0.0, atol=1e-12) | (row_sums == 0.0)
        heads_ok = all(
            (d / f).read_text().startswith(f"# graph2ts-{kind} v1")
            for f, kind in (("stats.txt", "tailstats"), ("metrics.txt", "metrics"),
                            ("model/loss_log.csv", "losslog")))
        return checks + [
            ("windows.txt rows", windows.shape == (n, T_LEN)),
            ("graphs.txt rows", graphs.shape == (n, N_STATES * N_STATES) and q == N_STATES),
            ("eval_graphs.txt rows", eval_graphs.shape[0] == n_eval and q_eval == N_STATES),
            ("eval_windows.txt rows", eval_windows.shape == (n_eval, T_LEN)),
            ("synth.txt rows", synth.shape == (n_eval * self.PER_GRAPH, T_LEN)),
            ("boundary files hold Q+1 edges",
             bounds.edges.size == N_STATES + 1 and train_bounds.edges.size == N_STATES + 1),
            ("checkpoint re-loads with its config",
             ckpt.config.epochs == 1 and ckpt.config.seed == self.seed and len(ckpt.params) > 0),
            ("graph rows sum to 1 or 0", bool(sums_ok.all())),
            ("report, stats and loss log carry their headers", heads_ok),
        ]

    def cleanup(self, k: int) -> None:
        shutil.rmtree(self.workdir / f"run{k}", ignore_errors=True)


WORKLOADS = {
    "score_n4000": ScoreN4000,
    "cli_artifacts": CliArtifacts,
}
