import contextlib
import json
import os
import stat
import threading
import warnings

import numpy as np
import pytest

import graph2ts.model as model_mod
from graph2ts import fileio
from graph2ts.cli import main
from graph2ts.metrics import evaluate
from graph2ts.model import Graph2TS, LossBreakdown, TrainConfig, init_params
from graph2ts.quantile_graph import QuantileBoundaries


def test_windows_roundtrip(tmp_path, rng):
    w = rng.standard_normal((7, 12))
    path = tmp_path / "w.txt"
    fileio.write_windows(path, w)
    back = fileio.read_windows(path)
    assert np.array_equal(back, w)  # repr floats round-trip exactly
    assert path.read_text().splitlines()[0] == "# graph2ts-windows v1 T=12"


def test_windows_header_rejected(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# something-else v9\n1,2\n")
    with pytest.raises(ValueError, match="expected header"):
        fileio.read_windows(p)


def test_windows_row_width_checked(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# graph2ts-windows v1 T=3\n1.0,2.0\n")
    with pytest.raises(ValueError, match="row 2"):
        fileio.read_windows(p)


def test_graphs_roundtrip(tmp_path, rng):
    g = rng.random((5, 16))
    path = tmp_path / "g.txt"
    fileio.write_graphs(path, g, 4)
    back, q = fileio.read_graphs(path)
    assert q == 4 and np.array_equal(back, g)


def test_graphs_width_validated(tmp_path, rng):
    with pytest.raises(ValueError):
        fileio.write_graphs(tmp_path / "g.txt", rng.random((5, 15)), 4)


def test_boundaries_roundtrip(tmp_path):
    b = QuantileBoundaries(np.array([-1.5, 0.0, 0.25, 2.0]))
    path = tmp_path / "b.txt"
    fileio.write_boundaries(path, b)
    back = fileio.read_boundaries(path)
    assert back.n_states == 3
    assert np.array_equal(back.edges, b.edges)


def test_loss_log_format(tmp_path):
    log = [
        LossBreakdown(align=1.5, recon=0.25, dist=0.1, kl=2.0, beta=0.0, total=2.85),
        LossBreakdown(align=1.0, recon=0.2, dist=0.1, kl=1.5, beta=0.001, total=2.1015),
    ]
    path = tmp_path / "loss.csv"
    fileio.write_loss_log(path, log)
    lines = path.read_text().splitlines()
    assert lines[0] == "# graph2ts-losslog v1"
    assert lines[1] == "epoch,align,recon,dist,kl,beta,total"
    assert lines[2].startswith("0,1.5,0.25,0.1,2.0,0.0,")
    assert len(lines) == 4


def test_metrics_report_keys(tmp_path, rng):
    s = rng.standard_normal((20, 16))
    rep = evaluate(s, s, seed=0)
    path = tmp_path / "metrics.txt"
    fileio.write_metrics_report(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "# graph2ts-metrics v1"
    keys = [ln.split("=")[0] for ln in lines[1:]]
    for expected in ("wasserstein", "ks", "acf_mae", "psd_l2", "proto_err_avg",
                     "proto_err_med", "mdr", "coverage_0.5", "coverage_0.9"):
        assert expected in keys


def test_tail_stats_file(tmp_path, rng):
    from graph2ts.metrics import tail_stats

    x_stats, dx_stats = tail_stats(rng.standard_normal((30, 16)))
    path = tmp_path / "tails.txt"
    fileio.write_tail_stats(path, x_stats, dx_stats)
    lines = path.read_text().splitlines()
    assert lines[0] == "# graph2ts-tailstats v1"
    keys = {ln.split("=")[0] for ln in lines[1:]}
    assert {"x_mean", "x_excess_kurtosis", "dx_q_lo", "dx_q_hi"} <= keys


def test_checkpoint_roundtrip(tmp_path):
    cfg = TrainConfig(embed_dim=8, latent_dim=2, seed=3)
    params = init_params(cfg, np.random.default_rng(3))
    bounds = QuantileBoundaries(np.linspace(-2, 2, cfg.n_states + 1))
    model = Graph2TS(config=cfg, params=params, boundaries=bounds, best_epoch=17)
    path = tmp_path / "ckpt.g2ts"
    fileio.save_model(path, model)
    back = fileio.load_model(path)
    assert back.config == cfg
    assert back.best_epoch == 17
    assert np.array_equal(back.boundaries.edges, bounds.edges)
    assert set(back.params) == set(params)
    for k in params:
        assert np.array_equal(back.params[k], params[k])


def test_checkpoint_magic_rejected(tmp_path):
    p = tmp_path / "bad.g2ts"
    p.write_bytes(b"not-a-checkpoint\n")
    with pytest.raises(ValueError, match="g2ts-ckpt"):
        fileio.load_model(p)


# the smallest config: 13 parameters of at most 4 values each
SMALL_CFG = TrainConfig(window_length=2, n_states=2, embed_dim=1, latent_dim=1,
                        variant="deterministic")


def _small_checkpoint(tmp_path, drop=None, reshape=None, extra=None):
    params = init_params(SMALL_CFG, np.random.default_rng(1))
    params["dec.b2"] = np.array([[0.5, -1.0]])
    if drop:
        del params[drop]
    if reshape:
        params[reshape] = params[reshape].reshape(1, -1).repeat(2, axis=0)
    if extra:
        params[extra] = np.zeros((1, 1))
    bounds = QuantileBoundaries(np.linspace(-1, 1, 3))
    path = tmp_path / "small.g2ts"
    model = Graph2TS(config=SMALL_CFG, params=params, boundaries=bounds, best_epoch=1)
    fileio.save_model(path, model)
    return path, path.read_bytes()


def test_checkpoint_truncated_at_every_offset(tmp_path):
    path, blob = _small_checkpoint(tmp_path)
    assert fileio.load_model(path).params["dec.b2"][0, 1] == -1.0
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError) as info:
            fileio.load_model(path)
        assert str(path) in str(info.value), cut


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path, blob = _small_checkpoint(tmp_path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="1 trailing byte"):
        fileio.load_model(path)


@pytest.mark.parametrize("edit, message", [
    ({"drop": "dec.b1"}, "parameter 'dec.b1' missing"),
    ({"extra": "post.w1"}, "unexpected parameter 'post.w1'"),
    ({"reshape": "ts_enc.w1"}, r"'ts_enc.w1' has shape \(2, 2\), expected \(2, 1\)"),
])
def test_checkpoint_schema_checked(tmp_path, edit, message):
    path, _ = _small_checkpoint(tmp_path, **edit)
    with pytest.raises(ValueError, match=message) as info:
        fileio.load_model(path)
    assert str(path) in str(info.value)


def _with_embed_dim(path, embed_dim: int, arrays: bool = True) -> None:
    """Rewrite the checkpoint's JSON header to claim ``embed_dim``; without
    ``arrays``, the file ends with an array count of 0."""
    magic, header, body = path.read_bytes().split(b"\n", 2)
    meta = json.loads(header)
    meta["config"]["embed_dim"] = embed_dim
    body = body if arrays else bytes(4)
    path.write_bytes(b"\n".join([magic, json.dumps(meta, sort_keys=True).encode(), body]))


def test_checkpoint_reader_draws_no_model(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("load_model called init_params")

    monkeypatch.setattr(model_mod, "init_params", refuse)
    assert not hasattr(fileio, "init_params")
    path, _ = _small_checkpoint(tmp_path)
    assert fileio.load_model(path).params["dec.b2"][0, 1] == -1.0
    for edit, message in [({"drop": "dec.b1"}, "parameter 'dec.b1' missing"),
                          ({"reshape": "ts_enc.w1"}, "'ts_enc.w1' has shape")]:
        path, _ = _small_checkpoint(tmp_path, **edit)
        with pytest.raises(ValueError, match=message):
            fileio.load_model(path)


@pytest.mark.parametrize("arrays, message", [
    (False, r": parameter 'dec.b1' missing for this config$"),
    (True, r": parameter 'dec.b1' has shape \(1, 1\), expected \(1, 1000000000\)$"),
], ids=["no_arrays", "small_arrays"])
def test_huge_header_rejected_without_allocating(tmp_path, capsys, arrays, message):
    # a model of this width would take hundreds of GiB; its shapes take none
    path, _ = _small_checkpoint(tmp_path)
    _with_embed_dim(path, 10**9, arrays)
    with pytest.raises(ValueError, match=message) as info:
        fileio.load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    out = tmp_path / "s.txt"
    assert main(["generate", "--checkpoint", str(path), "--graphs", str(tmp_path / "g.txt"),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {info.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_nonfinite_parameter_rejected(tmp_path, bad):
    path, blob = _small_checkpoint(tmp_path)
    model = fileio.load_model(path)
    model.params["g_enc.w2"][0, 0] = bad
    fileio.save_model(path, model)  # the writer does not judge the values
    with pytest.raises(ValueError, match="parameter 'g_enc.w2' holds a non-finite") as info:
        fileio.load_model(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("row, problem", [
    ("1.0,nan", "non-finite"),
    ("inf,1.0", "non-finite"),
    ("1.0,-inf", "non-finite"),
    ("1.0,abc", "could not convert"),
])
def test_windows_bad_values_name_file_and_row(tmp_path, row, problem):
    p = tmp_path / "w.txt"
    p.write_text(f"# graph2ts-windows v1 T=2\n1.0,2.0\n\n{row}\n")
    with pytest.raises(ValueError, match=problem) as info:
        fileio.read_windows(p)
    assert f"{p}: row 4" in str(info.value)


def test_checkpoint_bytes_deterministic(tmp_path):
    cfg = TrainConfig(embed_dim=8, latent_dim=2, seed=3)
    params = init_params(cfg, np.random.default_rng(3))
    bounds = QuantileBoundaries(np.linspace(-2, 2, cfg.n_states + 1))
    model = Graph2TS(config=cfg, params=params, boundaries=bounds, best_epoch=0)
    p1, p2 = tmp_path / "a.g2ts", tmp_path / "b.g2ts"
    fileio.save_model(p1, model)
    fileio.save_model(p2, model)
    assert p1.read_bytes() == p2.read_bytes()


def test_curve_and_embeddings(tmp_path, rng):
    fileio.write_curve(tmp_path / "c.csv", "acf_real", np.array([0.5, -0.1]))
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "# graph2ts-curve v1 name=acf_real N=2"
    assert lines[1] == "0.5"

    emb = rng.standard_normal((4, 8))
    fileio.write_embeddings(tmp_path / "e.txt", emb)
    first = (tmp_path / "e.txt").read_text().splitlines()[0]
    assert first == "# graph2ts-embeddings v1 D=8"


def test_failed_write_keeps_old_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "w.txt"
    fileio.write_windows(path, rng.standard_normal((5, 4)))
    before = path.read_bytes()
    real_open = fileio.atomic_open

    @contextlib.contextmanager
    def failing_open(target, binary=False):
        with real_open(target, binary) as fh:
            real_write, calls = fh.write, []

            def write(text):
                calls.append(text)
                if len(calls) == 3:  # the header, the first row, then half the second
                    real_write(text[: len(text) // 2])
                    raise RuntimeError("disk full")
                return real_write(text)

            fh.write = write
            yield fh

    monkeypatch.setattr(fileio, "atomic_open", failing_open)
    with pytest.raises(RuntimeError, match="disk full"):
        fileio.write_windows(path, rng.standard_normal((5, 4)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]


def test_overwrite_leaves_no_temporary_file(tmp_path, rng):
    path = tmp_path / "w.txt"
    fileio.write_windows(path, rng.standard_normal((5, 4)))
    new = rng.standard_normal((2, 3))
    fileio.write_windows(path, new)
    assert np.array_equal(fileio.read_windows(path), new)
    assert [p.name for p in tmp_path.iterdir()] == ["w.txt"]


def test_missing_directory_error_names_the_artifact(tmp_path):
    path = tmp_path / "nodir" / "w.txt"
    with pytest.raises(FileNotFoundError) as info:
        fileio.write_windows(path, np.ones((1, 2)))
    assert info.value.filename == str(path)


def _non_regular_target(tmp_path, kind):
    """A FIFO, or a symlink to a regular file, at ``tmp_path / 'out.txt'``."""
    path = tmp_path / "out.txt"
    if kind == "fifo":
        os.mkfifo(path)
    else:
        (tmp_path / "target.txt").write_text("keep me\n")
        os.symlink(tmp_path / "target.txt", path)
    return path


def _assert_target_in_place(tmp_path, path, kind):
    mode = os.lstat(path).st_mode
    assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISLNK(mode)
    if kind == "symlink":
        assert (tmp_path / "target.txt").read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["out.txt"] + (["target.txt"] if kind == "symlink" else []))


@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_non_regular_target_refused(tmp_path, kind):
    # os.replace would turn the FIFO or the link into a regular file
    path = _non_regular_target(tmp_path, kind)
    with pytest.raises(ValueError, match=f"{path}: exists and is not a regular file"):
        fileio.write_windows(path, np.ones((2, 3)))
    _assert_target_in_place(tmp_path, path, kind)


@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_cli_refuses_non_regular_output(tmp_path, kind, capsys):
    windows = tmp_path / "w.txt"
    fileio.write_windows(windows, np.arange(12.0).reshape(3, 4) ** 2)
    path = _non_regular_target(tmp_path, kind)
    assert main(["stats", "--windows", str(windows), "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: exists and is not a regular file; refusing to replace it\n"
    windows.unlink()
    _assert_target_in_place(tmp_path, path, kind)


def _awkward_floats(rng) -> np.ndarray:
    """Every binade of float64 with a seeded mantissa and sign, seeded subnormals,
    the signed zeros, the extremes and values that need 17 significant digits."""
    exponents = np.arange(1, 2047, dtype=np.uint64)
    mantissas = rng.integers(0, 2**52, size=exponents.size, dtype=np.uint64)
    signs = rng.integers(0, 2, size=exponents.size, dtype=np.uint64)
    normal = ((signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas).view(np.float64)
    subnormal = rng.integers(1, 2**52, size=64, dtype=np.uint64).view(np.float64)
    big = np.finfo(np.float64).max
    special = np.array([-0.0, 0.0, 5e-324, -5e-324, big, -big, np.finfo(np.float64).tiny,
                        0.1 + 0.2, 1.0 + 2**-52, 1 / 3, -2 / 3, 2.0**53 + 2])
    return np.concatenate([special, normal, subnormal, -subnormal])


def test_every_float64_kind_keeps_its_bits(tmp_path, rng):
    vals = _awkward_floats(rng)
    significant = [len(repr(v).split("e")[0].strip("-").replace(".", "").strip("0"))
                   for v in vals.tolist()]
    assert significant.count(17) > 100  # many values need every digit repr writes
    windows = np.concatenate([vals, rng.standard_normal(-vals.size % 64)]).reshape(-1, 32)
    fileio.write_windows(tmp_path / "w.txt", windows)
    assert fileio.read_windows(tmp_path / "w.txt").tobytes() == windows.tobytes()

    graphs = windows.reshape(-1, 64)
    fileio.write_graphs(tmp_path / "g.txt", graphs, 8)
    back, q = fileio.read_graphs(tmp_path / "g.txt")
    assert q == 8 and back.tobytes() == graphs.tobytes()

    edges = np.concatenate([[-0.0], np.unique(np.abs(vals[vals != 0.0]))])
    bounds = QuantileBoundaries(edges)
    fileio.write_boundaries(tmp_path / "b.txt", bounds)
    back_bounds = fileio.read_boundaries(tmp_path / "b.txt")
    assert back_bounds.edges.tobytes() == edges.tobytes()
    assert back_bounds.n_states == edges.size - 1


# spellings repr never writes, and decimal strings that are hard to round
HAND_TOKENS = ["1e5", "+1.5", " 2.0 ", "1.50", "1E-3", ".5", "5.", "-0", "\t7\t",
               "1.7976931348623157e308", "2.4703282292062328e-324", "9007199254740993",
               "2.2250738585072011e-308", "0.1000000000000000055511151231257827021181583404541015625"]


def test_hand_written_tokens_parse_like_float(tmp_path):
    p = tmp_path / "w.txt"
    p.write_text(f"# graph2ts-windows v1 T={len(HAND_TOKENS)}\n" + ",".join(HAND_TOKENS) + "\n")
    want = np.array([[float(tok) for tok in HAND_TOKENS]])
    assert fileio.read_windows(p).tobytes() == want.tobytes()


GOOD_ROW = "1.0,2.0,3.0\n"


@pytest.mark.parametrize("bad, problem", [
    ("1.0,2.0", "has 2 values, expected 3"),
    ("1.0,2.0,3.0,4.0", "has 4 values, expected 3"),
    ("   ", "could not convert"),
    ("1.0,,3.0", "could not convert"),
    ("1.0,2.0,3.0,", "could not convert"),
    ("1.0,#2.0,3.0", "could not convert"),
    ("1_0,2.0,3.0", "could not convert"),
    ("١,2.0,3.0", "could not convert"),
    ("1.0,\x002.0,3.0", "could not convert"),
    ("1.0,2.0,nan", "non-finite"),
], ids=["short", "long", "whitespace_only", "empty_field", "trailing_comma", "hash",
        "underscore", "arabic_indic_digit", "nul", "nan"])
@pytest.mark.parametrize("before", [2, 6000], ids=["early", "past_row_5000"])
def test_reader_fault_names_file_and_row(tmp_path, bad, problem, before):
    """``before`` good rows and one empty line precede the fault, so it sits on
    line ``before + 3`` (the header is row 1)."""
    p = tmp_path / "w.txt"
    p.write_text("# graph2ts-windows v1 T=3\n" + GOOD_ROW * (before - 1) + "\n" + GOOD_ROW
                 + bad + "\n" + GOOD_ROW * 3, encoding="utf-8")
    with pytest.raises(ValueError, match=problem) as info:
        fileio.read_windows(p)
    assert str(info.value).startswith(f"{p}: row {before + 3}")


@pytest.mark.parametrize("before", [2, 6000], ids=["early", "past_row_5000"])
def test_reader_rejects_non_utf8_byte(tmp_path, before):
    p = tmp_path / "w.txt"
    p.write_bytes(b"# graph2ts-windows v1 T=3\n" + GOOD_ROW.encode() * before
                  + b"1.0,\xff,3.0\n" + GOOD_ROW.encode())
    with pytest.raises(ValueError, match=f"^{p}: not UTF-8 text"):
        fileio.read_windows(p)


@pytest.mark.parametrize("body", ["", "\n", "\n\n\n"], ids=["header_only", "one_empty", "three_empty"])
def test_reader_no_data_rows_without_warning(tmp_path, body):
    p = tmp_path / "g.txt"
    p.write_text("# graph2ts-graphs v1 Q=2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{p}: no data rows$"):
            fileio.read_graphs(p)


@pytest.mark.parametrize("last, problem", [("4.0,5.0,6.0", None),
                                           ("4.0,5.0,inf", "row 3 holds a non-finite")])
def test_reader_takes_a_pipe(tmp_path, last, problem):
    fifo = tmp_path / "w.fifo"
    os.mkfifo(fifo)
    text = "# graph2ts-windows v1 T=3\n1.0,2.0,3.0\n" + last + "\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        if problem is None:
            assert fileio.read_windows(fifo).tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        else:
            with pytest.raises(ValueError, match=f"^{fifo}: {problem}"):
                fileio.read_windows(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_eval_reports_the_faulty_row(tmp_path, rng, capsys):
    real, synth, out = tmp_path / "real.txt", tmp_path / "synth.txt", tmp_path / "m.txt"
    fileio.write_windows(real, rng.standard_normal((20, 8)))
    fileio.write_windows(synth, rng.standard_normal((6000, 8)))
    lines = synth.read_text().splitlines(keepends=True)
    lines[5500] = lines[5500].replace(",", ",1_0,", 1)
    synth.write_text("".join(lines))
    assert main(["eval", "--real", str(real), "--synth", str(synth), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {synth}: row 5501: could not convert")
    assert not out.exists()
