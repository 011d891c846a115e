import argparse
import dataclasses
import json
import re

import numpy as np
import pytest

from graph2ts import cli, fileio
from graph2ts.cli import build_parser, load_config_file, main, resolve_config
from graph2ts.dataset import synth_generate
from graph2ts.metrics import evaluate
from graph2ts.model import Graph2TS, TrainConfig, init_params
from graph2ts.quantile_graph import QuantileBoundaries, fit_boundaries, identity_graph


@pytest.fixture
def series_file(tmp_path):
    rng = np.random.default_rng(42)
    values = np.cumsum(rng.standard_normal(2400)) * 0.1 + np.sin(np.arange(2400) / 9.0)
    p = tmp_path / "series.txt"
    p.write_text("signal\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return p


def run(*argv):
    return main([str(a) for a in argv])


class TestConfigFile:
    def test_parse_and_coerce(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 7\nlr = 0.001  # comment\nvariant = no_graph\n")
        cfg = load_config_file(p)
        assert cfg == {"epochs": 7, "lr": 0.001, "variant": "no_graph"}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("learning_rate = 0.1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(p)

    def test_key_set_twice_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 1\nlr = 0.01\n# once more\nepochs = 3\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:4: config key 'epochs' "
                                             rf"already set on line 1$"):
            load_config_file(p)

    def test_flag_overrides_file(self, tmp_path, series_file, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("window_length = 8\nstride = 8\n")
        out = tmp_path / "w.txt"
        assert run("ingest", "--input", series_file, "--out", out,
                   "--config", p, "--window-length", "16") == 0
        assert fileio.read_windows(out).shape[1] == 16

    @pytest.mark.parametrize("text, want", [
        (b"epochs = abc\n", ":1: epochs: invalid literal for int()"),
        (b"lr = 1e-3\nbeta_max = x\n", ":2: beta_max: could not convert string to float"),
        (b"variant = nope\n",
         ": variant must be one of ('full', 'no_graph', 'deterministic'), got 'nope'\n"),
        (b"epochs = 0\n", ": epochs must be positive, got 0\n"),
        (b"embed_dim = -3\n", ": embed_dim must be positive, got -3\n"),
        (b"lr = nan\n", ": lr must be finite and non-negative, got nan\n"),
        (b"kl_warmup_epochs = -1\n", ": kl_warmup_epochs must be non-negative, got -1\n"),
        (b"seed = 1 \xff\n", ": not UTF-8 text"),
        (b"eval_fraction = 2\n", ": eval_fraction must be in (0, 1)"),
        (b"stride = 0\n", ": window_length and stride must be positive"),
    ], ids=["int", "float_line2", "variant", "epochs_0", "embed_dim_negative", "lr_nan",
            "kl_warmup_negative", "not_utf8", "eval_fraction_2", "stride_0"])
    def test_bad_value_names_the_file(self, tmp_path, capsys, text, want):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        rundir = tmp_path / "run"
        assert run("train", "--windows", tmp_path / "w.txt", "--outdir", rundir,
                   "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}{want}") and err.count("\n") == 1
        assert not rundir.exists()

    def test_every_train_config_field_is_a_key_and_a_flag(self, tmp_path):
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert cli._SCHEMA.keys() == fields | {"stride", "eval_fraction"}
        changed = {int: "3", float: "0.5", str: "no_graph"}
        for key, kind in cli._SCHEMA.items():
            raw = changed[kind]
            cfg_file = tmp_path / f"{key}.cfg"
            cfg_file.write_text(f"{key} = {raw}\n")
            required = (["ingest", "--input", "i", "--out", "o"] if key == "stride"
                        else ["train", "--windows", "w", "--outdir", "o"])
            from_file = build_parser().parse_args(required + ["--config", str(cfg_file)])
            from_flag = build_parser().parse_args(
                required + [f"--{key.replace('_', '-')}", raw])
            resolved = [resolve_config(args)[:2] for args in (from_file, from_flag)]
            assert resolved[0] == resolved[1], key
            config, extras = resolved[0]
            value = extras[key] if key in extras else getattr(config, key)
            assert str(value) == raw, key

    def test_each_command_takes_only_the_keys_it_reads(self):
        train = {"--window-length", "--n-states", "--embed-dim", "--latent-dim",
                 "--w-align", "--w-recon", "--w-dist", "--beta-max",
                 "--kl-warmup-epochs", "--lr", "--batch-size", "--epochs", "--seed",
                 "--variant", "--eval-fraction"}
        expected = {
            "ingest": {"--window-length", "--stride"},
            "graph": {"--n-states"},
            "train": train,
            "ablate": train - {"--variant"},  # the grid sets each run's variant
            "generate": {"--seed"},
            "eval": {"--seed"},
            "gradcheck": {"--window-length", "--n-states", "--embed-dim", "--latent-dim",
                          "--w-align", "--w-recon", "--w-dist", "--beta-max", "--seed",
                          "--variant"},
            "stats": set(),
        }
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sub.choices.keys() == expected.keys() and len(expected) == 8
        total = 0
        for name, parser in sub.choices.items():
            group = [g for g in parser._action_groups if g.title == "config overrides"]
            flags = {s for g in group for a in g._group_actions for s in a.option_strings}
            takes_config = any("--config" in a.option_strings for a in parser._actions)
            assert flags == expected[name], name
            assert takes_config == bool(flags), name
            total += len(flags) + takes_config
        assert total == 51

    @pytest.mark.parametrize("argv", [
        ("stats", "--windows", "w", "--out", "o", "--seed", "1"),
        ("stats", "--windows", "w", "--out", "o", "--lr", "5"),
        ("generate", "--checkpoint", "c", "--graphs", "g", "--out", "o", "--epochs", "3"),
        ("generate", "--checkpoint", "c", "--graphs", "g", "--out", "o", "--n-states", "5"),
        ("eval", "--real", "r", "--synth", "s", "--out", "o", "--window-length", "16"),
        ("gradcheck", "--batch-size", "8"),
        ("gradcheck", "--h", "1e-5"),
        ("gradcheck", "--tolerance", "1e-4"),
        ("gradcheck", "--batch", "3"),
        ("ablate", "--windows", "w", "--out", "o", "--variant", "deterministic"),
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert "Traceback" not in err

    def test_one_file_serves_every_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{f.name} = {f.default}\n"
                               for f in dataclasses.fields(TrainConfig))
                       + "eval_fraction = 0.3\nstride = 8\n")
        required = {
            "ingest": ("--input", "i", "--out", "o"),
            "graph": ("--windows", "w", "--out", "o"),
            "train": ("--windows", "w", "--outdir", "o"),
            "ablate": ("--windows", "w", "--out", "o"),
            "generate": ("--checkpoint", "c", "--graphs", "g", "--out", "o"),
            "eval": ("--real", "r", "--synth", "s", "--out", "o"),
            "gradcheck": (),
        }
        for command, args in required.items():
            parsed = build_parser().parse_args([command, *args, "--config", str(cfg)])
            config, extras, _ = resolve_config(parsed)
            assert config == TrainConfig(), command
            assert extras == {"eval_fraction": 0.3, "stride": 8}, command


class TestPipelineCommands:
    def test_ingest(self, tmp_path, series_file):
        out = tmp_path / "w.txt"
        assert run("ingest", "--input", series_file, "--out", out,
                   "--window-length", "32", "--stride", "32") == 0
        w = fileio.read_windows(out)
        assert w.shape == (75, 32)

    def test_graph_with_sidecar_and_reuse(self, tmp_path):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 30, 32, 1))
        gfile = tmp_path / "g.txt"
        assert run("graph", "--windows", wfile, "--out", gfile, "--n-states", "5") == 0
        graphs, q = fileio.read_graphs(gfile)
        assert q == 5 and graphs.shape == (30, 25)
        bounds = fileio.read_boundaries(str(gfile) + ".boundaries")
        assert bounds.n_states == 5
        # reuse the sidecar for another window file
        gfile2 = tmp_path / "g2.txt"
        assert run("graph", "--windows", wfile, "--out", gfile2,
                   "--boundaries", str(gfile) + ".boundaries") == 0
        assert np.array_equal(fileio.read_graphs(gfile2)[0], graphs)

    @pytest.mark.parametrize("source, q", [("flag", 5), ("config", 5), ("flag", 10),
                                           ("config", 10), ("none", None)])
    def test_graph_n_states_must_match_boundaries(self, tmp_path, capsys, source, q):
        wfile, bfile = tmp_path / "w.txt", tmp_path / "b.txt"
        windows = synth_generate("sine_mix", 30, 32, 1)
        fileio.write_windows(wfile, windows)
        assert run("graph", "--windows", wfile, "--out", tmp_path / "g0.txt",
                   "--boundaries-out", bfile, "--n-states", "10") == 0
        capsys.readouterr()
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"n_states = {q}\n")
        extra = {"flag": ("--n-states", q), "config": ("--config", cfg), "none": ()}[source]
        gfile = tmp_path / "g.txt"
        rc = run("graph", "--windows", wfile, "--out", gfile, "--boundaries", bfile, *extra)
        if q in (10, None):  # the file's Q, or no n_states at all
            assert rc == 0
            assert fileio.read_graphs(gfile)[1] == 10
            return
        assert rc == 2
        named = "--n-states" if source == "flag" else cfg
        assert capsys.readouterr().err == (f"error: {bfile} holds boundaries with Q=10, but "
                                           f"{named} sets n_states=5\n")
        assert not gfile.exists()

    def test_full_small_pipeline(self, tmp_path):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 60, 32, 5))
        rundir = tmp_path / "run"
        assert run("train", "--windows", wfile, "--outdir", rundir,
                   "--epochs", "2", "--batch-size", "16", "--embed-dim", "8",
                   "--latent-dim", "2", "--seed", "5") == 0
        for name in ("checkpoint.g2ts", "loss_log.csv", "boundaries.txt",
                     "eval_windows.txt", "eval_graphs.txt"):
            assert (rundir / name).exists()
        synth = tmp_path / "synth.txt"
        assert run("generate", "--checkpoint", rundir / "checkpoint.g2ts",
                   "--graphs", rundir / "eval_graphs.txt", "--out", synth,
                   "--seed", "5") == 0
        report = tmp_path / "metrics.txt"
        curves = tmp_path / "curves"
        embeds = tmp_path / "emb"
        assert run("eval", "--real", rundir / "eval_windows.txt", "--synth", synth,
                   "--out", report, "--curves-dir", curves,
                   "--embeddings-dir", embeds,
                   "--checkpoint", rundir / "checkpoint.g2ts") == 0
        assert report.read_text().startswith("# graph2ts-metrics v1\n")
        assert (curves / "acf_real.csv").exists()
        assert (curves / "psd_synth.csv").exists()
        first = (embeds / "real_embeddings.txt").read_text().splitlines()[0]
        assert first == "# graph2ts-embeddings v1 D=8"
        stats = tmp_path / "tails.txt"
        assert run("stats", "--windows", synth, "--out", stats) == 0
        assert stats.read_text().startswith("# graph2ts-tailstats v1\n")

    def test_generate_q_mismatch(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 40, 32, 5))
        rundir = tmp_path / "run"
        run("train", "--windows", wfile, "--outdir", rundir, "--epochs", "1",
            "--batch-size", "16", "--embed-dim", "8", "--latent-dim", "2")
        gfile = tmp_path / "g5.txt"
        run("graph", "--windows", wfile, "--out", gfile, "--n-states", "5")
        capsys.readouterr()
        rc = run("generate", "--checkpoint", rundir / "checkpoint.g2ts",
                 "--graphs", gfile, "--out", tmp_path / "s.txt")
        assert rc == 2  # reported as an error, not a traceback
        err = capsys.readouterr().err
        assert f"{gfile} holds graphs with Q=5" in err
        assert f"checkpoint {rundir / 'checkpoint.g2ts'} has Q=10" in err
        assert not (tmp_path / "s.txt").exists()

    def test_generate_truncated_checkpoint(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 40, 32, 5))
        rundir = tmp_path / "run"
        run("train", "--windows", wfile, "--outdir", rundir, "--epochs", "1",
            "--batch-size", "16", "--embed-dim", "8", "--latent-dim", "2")
        ckpt = rundir / "checkpoint.g2ts"
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        rc = run("generate", "--checkpoint", ckpt,
                 "--graphs", rundir / "eval_graphs.txt", "--out", tmp_path / "s.txt")
        assert rc == 2  # reported as an error, not a traceback
        assert f"error: {ckpt}: truncated" in capsys.readouterr().err

    def test_generate_checkpoint_missing_parameter(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 40, 32, 5))
        rundir = tmp_path / "run"
        run("train", "--windows", wfile, "--outdir", rundir, "--epochs", "1",
            "--batch-size", "16", "--embed-dim", "8", "--latent-dim", "2")
        ckpt = rundir / "checkpoint.g2ts"
        model = fileio.load_model(ckpt)
        del model.params["dec.b1"]
        fileio.save_model(ckpt, model)
        rc = run("generate", "--checkpoint", ckpt,
                 "--graphs", rundir / "eval_graphs.txt", "--out", tmp_path / "s.txt")
        assert rc == 2  # reported as an error, not a KeyError traceback
        assert f"error: {ckpt}: parameter 'dec.b1' missing" in capsys.readouterr().err

    @pytest.mark.parametrize("text, want", [
        pytest.param(b"T=2\n0.5,2.0\n1.5,-1.0\n1.0,nan\n", "row 4", id="1.0,nan"),
        pytest.param(b"T=2\n0.5,2.0\n1.5,-1.0\n1.0,abc\n", "row 4", id="1.0,abc"),
        pytest.param(b"T=x\n0.5,2.0\n", "header T=x is not a positive integer", id="T=x"),
        pytest.param(b"T=-2\n0.5,2.0\n", "header T=-2 is not a positive integer", id="T=-2"),
        pytest.param(b"T=2\n0.5,2.0\n\xff,1.0\n", "not UTF-8 text", id="not_utf8"),
    ])
    def test_stats_rejects_bad_value(self, tmp_path, capsys, text, want):
        wfile = tmp_path / "w.txt"
        wfile.write_bytes(b"# graph2ts-windows v1 " + text)
        out = tmp_path / "tails.txt"
        assert run("stats", "--windows", wfile, "--out", out) == 2
        assert f"error: {wfile}: {want}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, want", [
        ("-1.0,0.0,1.0\n-2.0,0.0,2.0\n", "2 rows of edges, expected 1"),
        ("-1.0,1.0,1.0\n", "boundary edges must be strictly increasing"),
        ("-inf,0.0,1.0\n", "row 2 holds a non-finite value"),
        ("-1.0,0.0,inf\n", "row 2 holds a non-finite value"),
    ], ids=["two_rows", "not_increasing", "minus_inf", "plus_inf"])
    def test_graph_rejects_bad_boundaries(self, tmp_path, capsys, rows, want):
        wfile, bfile = tmp_path / "w.txt", tmp_path / "b.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 30, 32, 1))
        bfile.write_text(f"# graph2ts-boundaries v1 Q=2\n{rows}")
        gfile = tmp_path / "g.txt"
        assert run("graph", "--windows", wfile, "--out", gfile, "--boundaries", bfile) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bfile}: {want}\n"
        assert not gfile.exists()

    @pytest.mark.parametrize("command", ["graph", "train"])
    def test_windows_of_one_value_rejected(self, tmp_path, capsys, command):
        # a T=1 window holds no transition, so it has no graph to condition on
        wfile = tmp_path / "w1.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 1, 32, 1).reshape(32, 1))
        out = tmp_path / "out"
        argv = {"graph": ("--out", out),
                "train": ("--outdir", out, "--window-length", "1", "--epochs", "1")}[command]
        assert run(command, "--windows", wfile, *argv) == 2
        assert capsys.readouterr().err == ("error: windows of length T=1 hold no transition; "
                                           "need T >= 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("column", ["-1", "-5"])
    def test_ingest_rejects_negative_column(self, tmp_path, capsys, column):
        series = tmp_path / "s.txt"
        series.write_text("1.0,10.0\n2.0,20.0\n3.0,30.0\n")
        out = tmp_path / "w.txt"
        assert run("ingest", "--input", series, "--out", out, "--window-length", "2",
                   "--column", column) == 2
        assert capsys.readouterr().err == f"error: column must be >= 0, got {column}\n"
        assert not out.exists()

    def test_ablate_small_widths(self, tmp_path):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 3000, 32, 3))
        out = tmp_path / "ablation.csv"
        assert run("ablate", "--windows", wfile, "--out", out, "--epochs", "4",
                   "--batch-size", "256", "--eval-fraction", "0.3", "--seed", "7",
                   "--embed-dim", "6", "--latent-dim", "2") == 0
        assert len(out.read_text().splitlines()) == 9

    def test_ingest_input_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        assert run("ingest", "--input", tmp_path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err and str(tmp_path) in err
        assert not out.exists()

    def test_ablate_grid(self, tmp_path):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 60, 32, 6))
        out = tmp_path / "ablation.csv"
        assert run("ablate", "--windows", wfile, "--out", out, "--epochs", "1",
                   "--batch-size", "16", "--embed-dim", "8", "--latent-dim", "2",
                   "--seed", "6") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# graph2ts-ablation v1"
        assert lines[1].startswith("config,wasserstein,ks,")
        windows = synth_generate("sine_mix", 4, 32, 1)
        scores = evaluate(windows, windows[::-1], seed=0).score_items()
        assert lines[1].split(",") == ["config"] + [key for key, _ in scores]
        labels = [ln.split(",")[0] for ln in lines[2:]]
        assert labels == ["full", "no_graph", "deterministic",
                          "w_recon=0", "w_align=0", "w_dist=0", "beta_max=0"]


def _train_small(tmp_path, *flags):
    wfile = tmp_path / "w.txt"
    fileio.write_windows(wfile, synth_generate("sine_mix", 40, 32, 5))
    rundir = tmp_path / "run"
    rc = run("train", "--windows", wfile, "--outdir", rundir, "--epochs", "1",
             "--batch-size", "16", "--embed-dim", "8", "--latent-dim", "2", *flags)
    return rc, rundir


class TestRejectedInputs:
    """Each bad input exits 2 with one error line that names the files and
    sizes involved, and leaves no output behind."""

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--beta-max", "nan"), ("--w-recon", "-inf"),
    ])
    def test_train_nonfinite_config_value(self, tmp_path, capsys, flag, value):
        rc, rundir = _train_small(tmp_path, f"{flag}={value}")
        assert rc == 2
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be finite and non-negative" in capsys.readouterr().err
        assert not (rundir / "checkpoint.g2ts").exists()

    def test_generate_nonfinite_checkpoint(self, tmp_path, capsys):
        _, rundir = _train_small(tmp_path)
        ckpt = rundir / "checkpoint.g2ts"
        model = fileio.load_model(ckpt)
        model.params["dec.w2"][3, 1] = np.nan
        fileio.save_model(ckpt, model)
        capsys.readouterr()
        out = tmp_path / "s.txt"
        rc = run("generate", "--checkpoint", ckpt,
                 "--graphs", rundir / "eval_graphs.txt", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: parameter 'dec.w2' holds a non-finite value\n"
        assert not out.exists()

    def test_generate_overflowing_checkpoint(self, tmp_path, capsys):
        # finite weights whose products overflow in the decoder
        _, rundir = _train_small(tmp_path)
        ckpt = rundir / "checkpoint.g2ts"
        model = fileio.load_model(ckpt)
        for name in ("dec.w1", "dec.w2"):
            model.params[name] *= 1e200
        fileio.save_model(ckpt, model)
        capsys.readouterr()
        out = tmp_path / "s.txt"
        rc = run("generate", "--checkpoint", ckpt,
                 "--graphs", rundir / "eval_graphs.txt", "--out", out)
        assert rc == 2
        assert capsys.readouterr().err == "error: non-finite value in block 'dec'\n"
        assert not out.exists()

    def test_eval_overflowing_encoder_writes_nothing(self, tmp_path, capsys):
        # the embeddings are computed before the report, the metric lines and
        # the directory, so an encoder that overflows leaves none of them
        _, rundir = _train_small(tmp_path)
        ckpt = rundir / "checkpoint.g2ts"
        model = fileio.load_model(ckpt)
        for name in ("ts_enc.w1", "ts_enc.w2"):
            model.params[name] *= 1e200
        fileio.save_model(ckpt, model)
        capsys.readouterr()
        wfile, out, emb = tmp_path / "w.txt", tmp_path / "rep.txt", tmp_path / "emb"
        rc = run("eval", "--real", wfile, "--synth", wfile, "--out", out,
                 "--embeddings-dir", emb, "--checkpoint", ckpt)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite value in block 'ts_enc'\n"
        assert not out.exists() and not emb.exists()

    def test_eval_and_stats_of_overflowing_windows(self, tmp_path, capsys):
        # finite values whose squares overflow: no warning, no report, one error line
        real, synth = tmp_path / "real.txt", tmp_path / "synth.txt"
        fileio.write_windows(real, synth_generate("sine_mix", 40, 8, 1) * 1e200)
        fileio.write_windows(synth, synth_generate("sine_mix", 40, 8, 2) * 1e200)
        out = tmp_path / "out.txt"
        assert run("eval", "--real", real, "--synth", synth, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: cannot score {synth} (synth) against {real} "
                                           f"(real): the x_std of the real set is not finite "
                                           f"(inf)\n")
        assert run("stats", "--windows", real, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: {real}: the x_std of the windows set is not "
                                           f"finite (inf)\n")
        assert not out.exists()

    def test_eval_curves_of_an_overflowing_row(self, tmp_path, capsys):
        # the row falls outside evaluate's subsample, so only the curves of the whole
        # synth set meet it; they used to be written as nan and inf, with warnings
        rng = np.random.default_rng(0)
        real, synth = tmp_path / "real.txt", tmp_path / "synth.txt"
        fileio.write_windows(real, rng.standard_normal((20, 8)))
        rows = rng.standard_normal((200, 8))
        rows[199] *= 1e160
        fileio.write_windows(synth, rows)
        out, curves = tmp_path / "metrics.txt", tmp_path / "curves"
        assert run("eval", "--real", real, "--synth", synth, "--out", out,
                   "--curves-dir", curves, "--seed", "1") == 2
        assert capsys.readouterr().err == (f"error: cannot score {synth} (synth) against {real} "
                                           f"(real): the acf_synth of the real and synth sets is "
                                           f"not finite (nan)\n")
        assert not out.exists() and not curves.exists()

    def test_eval_window_length_mismatch(self, tmp_path, capsys):
        real, synth = tmp_path / "real.txt", tmp_path / "synth.txt"
        fileio.write_windows(real, synth_generate("sine_mix", 20, 32, 1))
        fileio.write_windows(synth, synth_generate("sine_mix", 20, 16, 2))
        out = tmp_path / "metrics.txt"
        assert run("eval", "--real", real, "--synth", synth, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: {real} holds windows of length T=32, but {synth} holds T=16" in err
        assert not out.exists()

    @pytest.mark.parametrize("case, want", [
        ("one_synth", "need at least 2 windows in each set, got 20 real and 1 synth"),
        ("flat_synth", "zero variance in the values of the synth set; kurtosis undefined"),
        ("flat_real_steps", "zero variance in the first differences of the real set"),
        ("same_real", "all 20 real windows identical; mdr undefined"),
        ("curves_dir", "need at least 2 windows in each set, got 20 real and 1 synth"),
    ])
    def test_eval_names_the_set_at_fault(self, tmp_path, capsys, case, want):
        real, synth = tmp_path / "real.txt", tmp_path / "synth.txt"
        windows = synth_generate("sine_mix", 20, 32, 1)
        ramp = np.arange(32.0) + np.arange(20.0)[:, None]  # every step is 1
        fileio.write_windows(real, {"flat_real_steps": ramp,
                                    "same_real": np.tile(windows[:1], (20, 1))}.get(case, windows))
        fileio.write_windows(synth, {"one_synth": windows[:1], "curves_dir": windows[:1],
                                     "flat_synth": np.zeros((20, 32))}.get(case, windows[::-1]))
        out = tmp_path / "metrics.txt"
        curves = tmp_path / "curves"
        extra = ("--curves-dir", curves) if case == "curves_dir" else ()
        assert run("eval", "--real", real, "--synth", synth, "--out", out, *extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot score {synth} (synth) against {real} (real): ")
        assert want in err
        assert not out.exists()
        assert not curves.exists()

    def test_eval_embeddings_checkpoint_mismatch(self, tmp_path, capsys):
        _, rundir = _train_small(tmp_path)
        ckpt = rundir / "checkpoint.g2ts"
        real = tmp_path / "real16.txt"
        fileio.write_windows(real, synth_generate("sine_mix", 20, 16, 1))
        out = tmp_path / "metrics.txt"
        capsys.readouterr()
        rc = run("eval", "--real", real, "--synth", real, "--out", out,
                 "--embeddings-dir", tmp_path / "emb", "--checkpoint", ckpt)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{real} holds windows of length T=16" in err
        assert f"checkpoint {ckpt} has window_length=32" in err
        assert not out.exists() and not (tmp_path / "emb").exists()

    @pytest.mark.parametrize("with_file", [False, True])
    def test_train_window_length_mismatch(self, tmp_path, capsys, with_file):
        wfile = tmp_path / "w16.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 40, 16, 5))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window_length = 32\n")
        rundir = tmp_path / "run"
        extra = ("--config", cfg) if with_file else ()
        assert run("train", "--windows", wfile, "--outdir", rundir, *extra) == 2
        err = capsys.readouterr().err
        assert f"error: {wfile} holds windows of length T=16, but " in err
        assert "sets window_length=32" in err
        assert (str(cfg) in err) == with_file
        assert not rundir.exists()

    def test_ablate_window_length_mismatch(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        fileio.write_windows(wfile, synth_generate("sine_mix", 40, 32, 5))
        out = tmp_path / "ablation.csv"
        assert run("ablate", "--windows", wfile, "--out", out, "--window-length", "16") == 2
        err = capsys.readouterr().err
        assert err == (f"error: {wfile} holds windows of length T=32, but --window-length "
                       "sets window_length=16\n")
        assert not out.exists()

    # (config file text, flags, the source named, its value); None: no error
    @pytest.mark.parametrize("command, text, flags, named, value", [
        ("train", "epochs = 1\n", (), "the default", 32),
        ("train", "epochs = 1\nwindow_length = 24\n", (), "cfg", 24),
        ("train", "epochs = 1\n", ("--window-length", "20"), "--window-length", 20),
        ("train", "window_length = 24\n", ("--window-length", "20"), "--window-length", 20),
        ("graph", "epochs = 1\n", (), None, None),
        ("graph", "n_states = 5\n", (), "cfg", 5),
        ("graph", "n_states = 7\n", ("--n-states", "5"), "--n-states", 5),
    ], ids=["train_default", "train_file", "train_flag", "train_flag_over_file",
            "graph_default", "graph_file", "graph_flag_over_file"])
    def test_config_source_named(self, tmp_path, capsys, command, text, flags, named, value):
        cfg, wfile = tmp_path / "c.cfg", tmp_path / "w16.txt"
        cfg.write_text(text)
        windows = synth_generate("sine_mix", 30, 16, 5)
        fileio.write_windows(wfile, windows)
        named = str(cfg) if named == "cfg" else named
        if command == "train":
            out = tmp_path / "run"
            argv = ["train", "--windows", wfile, "--outdir", out]
            want = f"{wfile} holds windows of length T=16, but {named} sets window_length={value}"
        else:
            bfile, out = tmp_path / "b.txt", tmp_path / "g.txt"
            fileio.write_boundaries(bfile, fit_boundaries(windows.ravel(), 10))
            argv = ["graph", "--windows", wfile, "--out", out, "--boundaries", bfile]
            want = f"{bfile} holds boundaries with Q=10, but {named} sets n_states={value}"
        rc = run(*argv, "--config", cfg, *flags)
        if named is None:
            assert rc == 0 and fileio.read_graphs(out)[1] == 10
            return
        assert rc == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    @staticmethod
    def _bad_input(tmp_path, case):
        """(argv, the output it must not leave, the error after 'error: ')."""
        out = tmp_path / "out.txt"
        real = tmp_path / "real.txt"
        fileio.write_windows(real, synth_generate("sine_mix", 20, 8, 1))
        bad = tmp_path / "bad.txt"
        if case == "embeddings_dir_without_checkpoint":
            emb = tmp_path / "emb"
            return (["eval", "--real", real, "--synth", real, "--out", out,
                     "--embeddings-dir", emb], out,
                    f"--embeddings-dir {emb} requires --checkpoint")
        if case == "config_line_without_equals":
            bad.write_text("# run settings\nepochs 3\n")
            return (["train", "--windows", real, "--outdir", out, "--config", bad], out,
                    f"{bad}:2: expected 'key = value'")
        if case == "series_not_utf8":
            bad.write_bytes(b"1.0\n2.0\n\xff\n")
            return (["ingest", "--input", bad, "--out", out, "--window-length", "2"], out,
                    f"{bad} is not UTF-8 text (invalid start byte)")
        if case in ("graph_one_state_flag", "train_one_state_flag"):
            # one state would make every graph the single value 1.0
            command = case.split("_")[0]
            dest = "--out" if command == "graph" else "--outdir"
            return ([command, "--windows", real, dest, out, "--n-states", "1"], out,
                    "n_states must be at least 2, got 1")
        if case == "boundaries_one_state":
            bad.write_text("# graph2ts-boundaries v1 Q=1\n-5.0,5.0\n")
            return (["graph", "--windows", real, "--out", out, "--boundaries", bad], out,
                    f"{bad}: boundaries need a 1-D row of at least 3 edges, got shape (2,)")
        if case == "windows_header_without_t":
            bad.write_text("# graph2ts-windows v1\n1.0,2.0\n")
            return ["stats", "--windows", bad, "--out", out], out, f"{bad}: header missing T="
        bad.write_text("# graph2ts-boundaries v1 N=2\n-1.0,0.0,1.0\n")
        return (["graph", "--windows", real, "--out", out, "--boundaries", bad], out,
                f"{bad}: header missing Q=")

    @pytest.mark.parametrize("case", [
        "embeddings_dir_without_checkpoint", "config_line_without_equals", "series_not_utf8",
        "windows_header_without_t", "boundaries_header_without_q", "graph_one_state_flag",
        "train_one_state_flag", "boundaries_one_state",
    ])
    def test_rejected_input_table(self, tmp_path, capsys, case):
        argv, out, want = self._bad_input(tmp_path, case)
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    @staticmethod
    def _tiny_checkpoint(tmp_path):
        """A T=2, Q=2 checkpoint and a one-row graphs file for it."""
        cfg = TrainConfig(window_length=2, n_states=2, embed_dim=1, latent_dim=1)
        bounds = QuantileBoundaries(np.array([-1.0, 0.0, 1.0]))
        params = init_params(cfg, np.random.default_rng(0))
        ckpt, graphs = tmp_path / "model.g2ts", tmp_path / "g.txt"
        fileio.save_model(ckpt, Graph2TS(config=cfg, params=params, boundaries=bounds,
                                         best_epoch=0))
        fileio.write_graphs(graphs, identity_graph(2)[None], 2)
        return ckpt, graphs

    @pytest.mark.parametrize("key, value, want", [
        ("window_length", 2.5, "window_length must be of type int, got 2.5"),
        ("window_length", True, "window_length must be of type int, got True"),
        ("best_epoch", "x", "best_epoch must be of type int, got 'x'"),
        ("best_epoch", 1.5, "best_epoch must be of type int, got 1.5"),
        ("best_epoch", None, "best_epoch must be of type int, got None"),
        ("boundaries", None, "boundaries need exactly n_states + 1 edges"),
        ("boundaries", [1.0, 0.0, 2.0], "boundary edges must be strictly increasing"),
        ("boundaries", [0.0, 1.0], "boundaries need exactly n_states + 1 edges"),
        ("boundaries", "abc", "could not convert string to float: 'abc'"),
        ("boundaries", [-np.inf, 0.0, 1.0],
         "boundary edges holds a non-finite value (-inf) at index 0"),
        ("boundaries", [-1.0, 0.0, np.inf],
         "boundary edges holds a non-finite value (inf) at index 2"),
        ("n_states", 1, "n_states must be at least 2, got 1"),
    ], ids=["window_length_2.5", "window_length_true", "best_epoch_x", "best_epoch_1.5",
            "best_epoch_null", "boundaries_null", "boundaries_decreasing",
            "boundaries_count", "boundaries_abc", "boundaries_minus_inf", "boundaries_plus_inf",
            "n_states_1"])
    def test_generate_bad_checkpoint_header(self, tmp_path, capsys, key, value, want):
        ckpt, graphs = self._tiny_checkpoint(tmp_path)
        magic, header, arrays = ckpt.read_bytes().split(b"\n", 2)
        meta = json.loads(header)
        (meta["config"] if key in meta["config"] else meta)[key] = value
        ckpt.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), arrays]))
        out = tmp_path / "s.txt"
        assert run("generate", "--checkpoint", ckpt, "--graphs", graphs, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: bad checkpoint JSON header: ")
        assert want in err and err.count("\n") == 1
        assert not out.exists()

    def test_generate_array_name_not_utf8(self, tmp_path, capsys):
        ckpt, graphs = self._tiny_checkpoint(tmp_path)
        blob = bytearray(ckpt.read_bytes())
        at = blob.index(b"dec.b1")
        blob[at] = 0xFF
        ckpt.write_bytes(bytes(blob))
        out = tmp_path / "s.txt"
        assert run("generate", "--checkpoint", ckpt, "--graphs", graphs, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: {ckpt}: array name at byte {at} is not "
                                           f"UTF-8 (invalid start byte)\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--curves-dir", "--embeddings-dir"])
    def test_eval_output_dir_is_a_file(self, tmp_path, capsys, flag):
        _, rundir = _train_small(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = tmp_path / "metrics.txt"
        capsys.readouterr()
        ckpt = ("--checkpoint", rundir / "checkpoint.g2ts") if flag == "--embeddings-dir" else ()
        rc = run("eval", "--real", rundir / "eval_windows.txt",
                 "--synth", rundir / "eval_windows.txt", "--out", out, flag, taken, *ckpt)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(taken) in err
        assert not out.exists()

    def test_eval_checkpoint_without_embeddings_dir(self, tmp_path, capsys):
        real = tmp_path / "real.txt"
        fileio.write_windows(real, synth_generate("sine_mix", 20, 32, 1))
        out = tmp_path / "metrics.txt"
        rc = run("eval", "--real", real, "--synth", real, "--out", out,
                 "--checkpoint", tmp_path / "no" / "such.g2ts")
        assert rc == 2
        assert capsys.readouterr().err == "error: --checkpoint is read only with --embeddings-dir\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "generate", "eval", "gradcheck", "file"])
    def test_negative_seed_names_the_key(self, tmp_path, capsys, command):
        # refused by TrainConfig before any input is read, so none need exist
        missing, out = tmp_path / "missing.txt", tmp_path / "out.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        argv = {
            "train": ["train", "--windows", missing, "--outdir", out, "--seed=-1"],
            "generate": ["generate", "--checkpoint", missing, "--graphs", missing,
                         "--out", out, "--seed=-1"],
            "eval": ["eval", "--real", missing, "--synth", missing, "--out", out, "--seed=-1"],
            "gradcheck": ["gradcheck", "--out", out, "--seed=-1"],
            "file": ["train", "--windows", missing, "--outdir", out, "--config", cfg],
        }[command]
        assert run(*argv) == 2
        where = f"{cfg}: " if command == "file" else ""
        assert capsys.readouterr().err == f"error: {where}seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_generate_allocation_failure(self, tmp_path, capsys):
        # numpy refuses a request this large without touching memory
        _, rundir = _train_small(tmp_path)
        capsys.readouterr()
        out = tmp_path / "s.txt"
        rc = run("generate", "--checkpoint", rundir / "checkpoint.g2ts",
                 "--graphs", rundir / "eval_graphs.txt", "--out", out,
                 "--n-per-graph", 10**12)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()


class TestChecks:
    def test_gradcheck_small(self, tmp_path, capsys):
        report = tmp_path / "gc.txt"
        rc = run("gradcheck", "--embed-dim", "6", "--latent-dim", "2",
                 "--out", report, "--seed", "2")
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[:3] == ["# graph2ts-gradcheck v1", "batch=4", "h=1e-05"]
        assert lines[5:] == ["tolerance=0.0001", "status=PASS"]
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_no_graph_conditions_on_identity(self, monkeypatch):
        seen = []
        for name in ("batch_objective", "objective_value"):
            fn = getattr(cli, name)

            def recording(params, x, graphs, *rest, fn=fn):
                seen.append(graphs)
                return fn(params, x, graphs, *rest)

            monkeypatch.setattr(cli, name, recording)
        rc = run("gradcheck", "--variant", "no_graph", "--embed-dim", "3",
                 "--latent-dim", "1", "--seed", "2")
        assert rc == 0
        ident = identity_graph(TrainConfig().n_states)[None]
        assert seen and all(np.array_equal(g, np.tile(ident, (4, 1))) for g in seen)
