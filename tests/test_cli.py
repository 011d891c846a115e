import dataclasses

import numpy as np
import pytest

from graph2ts import fileio
from graph2ts.cli import build_parser, load_config_file, main, resolve_config
from graph2ts.dataset import synth_generate
from graph2ts.model import TrainConfig


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

    def test_flag_overrides_file(self, tmp_path, series_file, capsys):
        p = tmp_path / "run.cfg"
        p.write_text("window_length = 8\nstride = 8\n")
        out = tmp_path / "w.txt"
        assert run("ingest", "--input", series_file, "--out", out,
                   "--config", p, "--window-length", "16") == 0
        assert fileio.read_windows(out).shape[1] == 16


    def test_every_train_config_field_is_a_key_and_a_flag(self, tmp_path):
        changed = {"int": "3", "float": "0.5", "str": "no_graph"}
        for f in dataclasses.fields(TrainConfig):
            raw = changed[f.type]
            cfg_file = tmp_path / f"{f.name}.cfg"
            cfg_file.write_text(f"{f.name} = {raw}\n")
            from_file = build_parser().parse_args(
                ["stats", "--windows", "w", "--out", "o", "--config", str(cfg_file)])
            from_flag = build_parser().parse_args(
                ["stats", "--windows", "w", "--out", "o",
                 f"--{f.name.replace('_', '-')}", raw])
            for args in (from_file, from_flag):
                config, _ = resolve_config(args)
                assert str(getattr(config, f.name)) == raw, f.name


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

    @pytest.mark.parametrize("row", ["1.0,nan", "1.0,abc"])
    def test_stats_rejects_bad_value(self, tmp_path, capsys, row):
        wfile = tmp_path / "w.txt"
        wfile.write_text(f"# graph2ts-windows v1 T=2\n0.5,2.0\n1.5,-1.0\n{row}\n")
        out = tmp_path / "tails.txt"
        assert run("stats", "--windows", wfile, "--out", out) == 2
        assert f"error: {wfile}: row 4" in capsys.readouterr().err
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

    def test_eval_window_length_mismatch(self, tmp_path, capsys):
        real, synth = tmp_path / "real.txt", tmp_path / "synth.txt"
        fileio.write_windows(real, synth_generate("sine_mix", 20, 32, 1))
        fileio.write_windows(synth, synth_generate("sine_mix", 20, 16, 2))
        out = tmp_path / "metrics.txt"
        assert run("eval", "--real", real, "--synth", synth, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"error: {real} holds windows of length T=32, but {synth} holds T=16" in err
        assert not out.exists()

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


class TestChecks:
    def test_selfcheck(self, capsys):
        assert run("selfcheck") == 0
        out = capsys.readouterr().out
        assert "fig1: PASS" in out
        assert "metric_identities: PASS" in out

    def test_gradcheck_small(self, tmp_path, capsys):
        report = tmp_path / "gc.txt"
        rc = run("gradcheck", "--embed-dim", "6", "--latent-dim", "2",
                 "--out", report, "--seed", "2")
        assert rc == 0
        text = report.read_text()
        assert text.startswith("# graph2ts-gradcheck v1\n")
        assert "status=PASS" in text
        assert "PASS" in capsys.readouterr().out
