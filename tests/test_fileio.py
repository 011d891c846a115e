import numpy as np
import pytest

from graph2ts import fileio
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
    b = QuantileBoundaries(edges=np.array([-1.5, 0.0, 0.25, 2.0]), n_states=3)
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
    bounds = QuantileBoundaries(edges=np.linspace(-2, 2, cfg.n_states + 1), n_states=cfg.n_states)
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
    bounds = QuantileBoundaries(edges=np.linspace(-1, 1, 3), n_states=2)
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
    model = Graph2TS(config=cfg, params=params, boundaries=None, best_epoch=0)
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
    calls = []

    def failing_fmt(v):
        calls.append(v)
        if len(calls) > 6:  # partway through the second row
            raise RuntimeError("disk full")
        return repr(float(v))

    monkeypatch.setattr(fileio, "_fmt", failing_fmt)
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
