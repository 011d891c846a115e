"""Pipeline subcommands over the versioned artifact files.

Configuration precedence is defaults < config file < command-line flags.
Each subcommand takes `--config` and a flag only for the config keys it
reads; `stats` reads none and takes neither. The config file holds
`key = value` lines (# comments allowed). One file serves the whole chain, so
it may hold any key of the schema: keys a command does not read are ignored,
and unknown keys, or a key set twice, are rejected. Log verbosity comes from
the GRAPH2TS_LOG_LEVEL environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import dataset, fileio, metrics
from .autodiff import GRADCHECK_STEP, GRADCHECK_TOLERANCE, grad_check
from .model import (
    VARIANTS,
    TrainConfig,
    batch_objective,
    conditioning_graphs,
    init_params,
    objective_value,
    train,
)
from .quantile_graph import fit_boundaries, windows_to_graphs

logger = logging.getLogger(__name__)


# the config schema: every key a file or a flag may set, and the type it parses to
_SCHEMA = {**typing.get_type_hints(TrainConfig), "stride": int, "eval_fraction": float}

_EXTRA_DEFAULTS = {"eval_fraction": 0.2, "stride": None}

_TRAIN_KEYS = tuple(k for k in _SCHEMA if k != "stride")
_GRADCHECK_KEYS = ("window_length", "n_states", "embed_dim", "latent_dim",
                   "w_align", "w_recon", "w_dist", "beta_max", "seed", "variant")

ABLATION_GRID = VARIANTS + ("w_recon=0", "w_align=0", "w_dist=0", "beta_max=0")

GRADCHECK_BATCH = 4  # windows in the gradient check's objective


def load_config_file(path) -> dict:
    """Parse `key = value` lines. Text that is not UTF-8, a key outside the
    schema or set twice, a value that does not parse, or a value that
    TrainConfig or the dataset rules reject is an error that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out, first_line = {}, {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in _SCHEMA:
            raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
        if first_line.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: config key '{key}' already set on line "
                             f"{first_line[key]}")
        try:
            out[key] = _SCHEMA[key](raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    try:
        config = TrainConfig(**{k: v for k, v in out.items() if k not in _EXTRA_DEFAULTS})
        if "stride" in out:
            dataset.check_windowing(config.window_length, out["stride"])
        if "eval_fraction" in out:
            dataset.check_eval_fraction(out["eval_fraction"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return out


def resolve_config(args) -> tuple[TrainConfig, dict, dict]:
    """Merge defaults, config file, and flags into a TrainConfig plus extras,
    and name the source of each key not left at its default: its flag if set,
    else the config file."""
    merged = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    merged.update(_EXTRA_DEFAULTS)
    sources = {}
    if args.config:
        from_file = load_config_file(args.config)
        merged.update(from_file)
        sources.update(dict.fromkeys(from_file, args.config))
    for key in _SCHEMA:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
            sources[key] = f"--{key.replace('_', '-')}"
    extras = {k: merged.pop(k) for k in _EXTRA_DEFAULTS}
    config = TrainConfig(**merged)
    if extras["stride"] is None:
        extras["stride"] = config.window_length  # non-overlapping by default
    return config, extras, sources


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    config, extras, _ = resolve_config(args)
    series = dataset.load_series(args.input, args.column)
    windows = dataset.make_windows(series, config.window_length, extras["stride"])
    fileio.write_windows(args.out, windows)
    print(f"ingest: {windows.shape[0]} windows of length {config.window_length} -> {args.out}")
    return 0


def cmd_graph(args) -> int:
    config, _, sources = resolve_config(args)
    windows = fileio.read_windows(args.windows)
    if args.boundaries:
        bounds = fileio.read_boundaries(args.boundaries)
        # an n_states set by the flag or the config file must be the file's Q
        if "n_states" in sources and config.n_states != bounds.n_states:
            raise ValueError(f"{args.boundaries} holds boundaries with Q={bounds.n_states}, "
                             f"but {sources['n_states']} sets n_states={config.n_states}")
    else:
        bounds = fit_boundaries(windows.ravel(), config.n_states)
    graphs = windows_to_graphs(windows, bounds)
    fileio.write_graphs(args.out, graphs, bounds.n_states)
    bounds_out = args.boundaries_out or str(args.out) + ".boundaries"
    fileio.write_boundaries(bounds_out, bounds)
    print(f"graph: {graphs.shape[0]} graphs (Q={bounds.n_states}) -> {args.out}")
    return 0


def _read_training_windows(args, config: TrainConfig, sources: dict) -> np.ndarray:
    """The ``--windows`` file of ``train`` or ``ablate``, whose length must match the config."""
    windows = fileio.read_windows(args.windows)
    if windows.shape[1] != config.window_length:
        raise ValueError(f"{args.windows} holds windows of length T={windows.shape[1]}, but "
                         f"{sources.get('window_length', 'the default')} sets "
                         f"window_length={config.window_length}")
    return windows


def cmd_train(args) -> int:
    config, extras, sources = resolve_config(args)
    windows = _read_training_windows(args, config, sources)
    data = dataset.split(windows, extras["eval_fraction"], config.seed)
    model, log = train(config, data)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fileio.save_model(outdir / "checkpoint.g2ts", model)
    fileio.write_loss_log(outdir / "loss_log.csv", log)
    fileio.write_boundaries(outdir / "boundaries.txt", model.boundaries)
    fileio.write_windows(outdir / "eval_windows.txt", data.eval)
    fileio.write_graphs(
        outdir / "eval_graphs.txt",
        windows_to_graphs(data.eval, model.boundaries),
        config.n_states,
    )
    print(
        f"train: variant={config.variant} epochs={config.epochs} "
        f"best_epoch={model.best_epoch} best_total={log[model.best_epoch].total:.6f} "
        f"-> {outdir}"
    )
    return 0


def cmd_generate(args) -> int:
    config = resolve_config(args)[0]
    model = fileio.load_model(args.checkpoint)
    graphs, q = fileio.read_graphs(args.graphs)
    if q != model.config.n_states:
        raise ValueError(f"{args.graphs} holds graphs with Q={q}, but checkpoint "
                         f"{args.checkpoint} has Q={model.config.n_states}")
    synth = model.generate(graphs, n_per_graph=args.n_per_graph, seed=config.seed)
    fileio.write_windows(args.out, synth)
    print(f"generate: {synth.shape[0]} windows -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = resolve_config(args)[0]
    if args.checkpoint and not args.embeddings_dir:
        raise ValueError("--checkpoint is read only with --embeddings-dir")
    real = fileio.read_windows(args.real)
    synth = fileio.read_windows(args.synth)
    if real.shape[1] != synth.shape[1]:
        raise ValueError(f"{args.real} holds windows of length T={real.shape[1]}, but "
                         f"{args.synth} holds T={synth.shape[1]}")
    if args.embeddings_dir:  # checked before any output is written
        if not args.checkpoint:
            raise ValueError(f"--embeddings-dir {args.embeddings_dir} requires --checkpoint")
        model = fileio.load_model(args.checkpoint)
        if model.config.window_length != real.shape[1]:
            raise ValueError(f"{args.real} holds windows of length T={real.shape[1]}, but "
                             f"checkpoint {args.checkpoint} has "
                             f"window_length={model.config.window_length}")
    try:
        report = metrics.evaluate(real, synth, seed=config.seed)
    except ValueError as err:
        raise ValueError(f"cannot score {args.synth} (synth) against {args.real} (real): "
                         f"{err}") from None
    if args.embeddings_dir:  # before any output, so an encoder fault leaves none
        embeddings = model.ts_embeddings(real), model.ts_embeddings(synth)
    # made after scoring, so a scoring error leaves no directory behind, and
    # before the report, so a path that cannot be a directory leaves no report
    for out_dir in (args.curves_dir, args.embeddings_dir):
        if out_dir:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
    fileio.write_metrics_report(args.out, report)
    for key, value in report.as_items():
        print(f"{key}={value:.6g}")
    if args.curves_dir:
        cdir = Path(args.curves_dir)
        lag = real.shape[1] // 2
        for kind, curve in (("acf", lambda w: metrics.acf_mean_curve(w, lag)),
                            ("psd", metrics.psd_mean_curve)):
            for side, w in (("real", real), ("synth", synth)):
                name = f"{kind}_{side}"
                fileio.write_curve(cdir / f"{name}.csv", name, curve(w))
    if args.embeddings_dir:
        for side, emb in zip(("real", "synth"), embeddings):
            fileio.write_embeddings(Path(args.embeddings_dir) / f"{side}_embeddings.txt", emb)
    return 0


def cmd_stats(args) -> int:
    windows = fileio.read_windows(args.windows)
    x_stats, dx_stats = metrics.tail_stats(windows)
    fileio.write_tail_stats(args.out, x_stats, dx_stats)
    print(
        f"stats: x kurtosis={x_stats.excess_kurtosis:.4f} "
        f"dx kurtosis={dx_stats.excess_kurtosis:.4f} -> {args.out}"
    )
    return 0


def _ablation_config(base: TrainConfig, label: str) -> TrainConfig:
    if label in VARIANTS:
        return dataclasses.replace(base, variant=label)
    key, _ = label.split("=")
    return dataclasses.replace(base, variant="full", **{key: 0.0})


def cmd_ablate(args) -> int:
    config, extras, sources = resolve_config(args)
    windows = _read_training_windows(args, config, sources)
    data = dataset.split(windows, extras["eval_fraction"], config.seed)
    results = []
    for label in ABLATION_GRID:
        run_cfg = _ablation_config(config, label)
        model, _ = train(run_cfg, data)
        eval_graphs = windows_to_graphs(data.eval, model.boundaries)
        synth = model.generate(eval_graphs, n_per_graph=1, seed=run_cfg.seed)
        results.append((label, metrics.evaluate(data.eval, synth, seed=run_cfg.seed)))
        logger.info("ablate: %s done", label)
    fileio.write_ablation(args.out, results)
    print(f"ablate: {len(results)} configs -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    config = resolve_config(args)[0]
    rng = np.random.default_rng(config.seed)
    raw = dataset.synth_generate("sine_mix", GRADCHECK_BATCH, config.window_length,
                                 config.seed)
    x, _ = dataset.zscore_fit_apply(raw)
    bounds = fit_boundaries(x.ravel(), config.n_states)
    graphs = conditioning_graphs(config, windows_to_graphs(x, bounds))
    params = init_params(config, rng)
    # jitter off the symmetric init (zero biases breed exact sort ties);
    # gradients should be checked at a generic point in parameter space
    params = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in params.items()}
    eps = None
    if config.variant != "deterministic":
        eps = rng.standard_normal((GRADCHECK_BATCH, config.latent_dim))

    def objective(leaves):
        return batch_objective(leaves, x, graphs, eps, config, config.beta_max)[0]

    def plain_value(arrs):
        return objective_value(arrs, x, graphs, eps, config, config.beta_max)

    worst = grad_check(objective, params, value_fn=plain_value)
    status = "PASS" if worst <= GRADCHECK_TOLERANCE else "FAIL"
    n_coords = sum(p.size for p in params.values())
    if args.out:
        fileio.write_gradcheck_report(args.out, GRADCHECK_BATCH, n_coords, worst, status)
    print(f"gradcheck: max_rel_err={worst:.3e} over {n_coords} coordinates: {status}")
    return 0 if status == "PASS" else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser, keys) -> None:
    """``--config`` plus one override flag per config key in ``keys``."""
    p.add_argument("--config", help="key = value config file")
    g = p.add_argument_group("config overrides")
    for key in keys:
        g.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_SCHEMA[key],
                       choices=VARIANTS if key == "variant" else None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graph2ts",
        description="Quantile-graph conditioned time-series generation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # whole flag names only: a mistyped or retired flag is a usage error, never
    # the prefix of another (`gradcheck --h` would otherwise run as `--help`)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("ingest", help="numeric text file -> window file")
    p.add_argument("--input", required=True)
    p.add_argument("--column", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("window_length", "stride"))
    p.set_defaults(func=cmd_ingest)

    p = add("graph", help="window file -> graph file (+ boundaries sidecar)")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--boundaries", help="reuse fitted boundaries instead of fitting")
    p.add_argument("--boundaries-out")
    _add_config_flags(p, ("n_states",))
    p.set_defaults(func=cmd_graph)

    p = add("train", help="window file -> checkpoint, loss log, eval artifacts")
    p.add_argument("--windows", required=True)
    p.add_argument("--outdir", required=True)
    _add_config_flags(p, _TRAIN_KEYS)
    p.set_defaults(func=cmd_train)

    p = add("generate", help="checkpoint + graph file -> synthetic windows")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graphs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-graph", type=int, default=1)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_generate)

    p = add("eval", help="real + synthetic window files -> metrics report")
    p.add_argument("--real", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--curves-dir", help="emit mean ACF/PSD curves as CSV")
    p.add_argument("--embeddings-dir", help="emit encoder embeddings (needs --checkpoint)")
    p.add_argument("--checkpoint", help="read only with --embeddings-dir")
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_eval)

    p = add("stats", help="window file -> tail statistics")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = add("ablate", help="run the variant/loss-knockout grid")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, [k for k in _TRAIN_KEYS if k != "variant"])  # the grid sets it
    p.set_defaults(func=cmd_ablate)

    p = add("gradcheck", help=f"finite-difference gradient report (batch {GRADCHECK_BATCH}, "
                              f"step {GRADCHECK_STEP:g}, bound {GRADCHECK_TOLERANCE:g})")
    p.add_argument("--out")
    _add_config_flags(p, _GRADCHECK_KEYS)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("GRAPH2TS_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
