"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The training-based criteria share one protocol: the sine_mix corpus with
N=2000 windows of length 32, a 10% eval split, batch 256, 100 epochs, and
three fixed seeds. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import filecmp
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from graph2ts import cli, metrics
from graph2ts.dataset import split, synth_generate
from graph2ts.model import TrainConfig, train
from graph2ts.quantile_graph import (
    QuantileBoundaries,
    discretize,
    graph_distance,
    windows_to_graphs,
)

SEEDS = (101, 202, 303)
PROTOCOL = dict(n=2000, t_len=32, eval_fraction=0.1, batch_size=256, epochs=100)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")


def _protocol_config(seed: int, **overrides) -> TrainConfig:
    return TrainConfig(
        epochs=PROTOCOL["epochs"], batch_size=PROTOCOL["batch_size"],
        seed=seed, **overrides,
    )


@pytest.fixture(scope="module")
def protocol_runs():
    """Train {full, deterministic, beta0} x 3 seeds once for criteria 6-8."""
    runs = {}
    for seed in SEEDS:
        w = synth_generate("sine_mix", PROTOCOL["n"], PROTOCOL["t_len"], seed)
        data = split(w, PROTOCOL["eval_fraction"], seed)
        for label, cfg in (
            ("full", _protocol_config(seed)),
            ("deterministic", _protocol_config(seed, variant="deterministic")),
            ("beta0", _protocol_config(seed, beta_max=0.0)),
        ):
            model, log = train(cfg, data)
            runs[(label, seed)] = (model, log, data)
    return runs


def _eval_synth(model, data, seed):
    graphs = windows_to_graphs(data.eval, model.boundaries)
    return graphs, model.generate(graphs, n_per_graph=1, seed=seed)


# ---------------------------------------------------------------------------
# 1. golden transition-graph example
# ---------------------------------------------------------------------------

def test_criterion_1_golden_graph():
    bounds = QuantileBoundaries(np.array([0.3, 1.1, 2.5, 3.1]))
    values = np.array([0.6, 1.6, 2.9, 2.7, 1.4, 0.5, 0.8, 2.0, 2.8])
    expected = np.array([
        [1 / 3, 2 / 3, 0.0],
        [1 / 3, 0.0, 2 / 3],
        [0.0, 1 / 2, 1 / 2],
    ])
    # the drawn points discretize to the worked state sequence, and their
    # graph is the worked matrix as one flat row
    ok = np.array_equal(discretize(values, bounds), [1, 2, 3, 3, 2, 1, 1, 2, 3])
    ok &= np.array_equal(windows_to_graphs(values, bounds), expected.reshape(1, 9))
    _report(1, "golden graph", ok)
    assert ok


# ---------------------------------------------------------------------------
# 2. full-objective gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_correctness(tmp_path):
    # the gradcheck command at default widths (T=32, Q=10, d_z=32, embed 128)
    report = tmp_path / "gradcheck.txt"
    rc = cli.main(["gradcheck", "--seed", "11", "--out", str(report)])
    fields = dict(line.split("=", 1) for line in report.read_text().splitlines()[1:])
    worst = float(fields["max_rel_err"])
    ok = rc == 0 and fields["status"] == "PASS" and worst <= 1e-4
    _report(2, "gradient correctness", ok,
            f"max_rel_err={worst:.3e} over {fields['coordinates']} coordinates")
    assert ok


# ---------------------------------------------------------------------------
# 3. metric implementations vs brute-force references
# ---------------------------------------------------------------------------

def _brute_w1(a, b):
    # both uniform measures over k = lcm(|a|, |b|) equal-mass atoms; an optimal
    # assignment between them is an optimal transport plan (Birkhoff-von Neumann)
    a, b = np.ravel(a), np.ravel(b)
    k = math.lcm(a.size, b.size)
    ra, rb = np.repeat(a, k // a.size), np.repeat(b, k // b.size)
    cost = np.abs(ra[:, None] - rb[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].sum() / ra.size


def _brute_ks(a, b):
    a, b = np.ravel(a), np.ravel(b)
    return max(abs((a <= v).mean() - (b <= v).mean()) for v in np.concatenate([a, b]))


def _brute_proto(r, s):
    d = np.array([min(np.sqrt(((x - y) ** 2).sum()) for y in s) for x in r])
    return float(d.mean()), float(np.median(d))


def _brute_medoid(xs):
    sums = [sum(np.sqrt(((x - y) ** 2).sum()) for y in xs) for x in xs]
    return int(np.argmin(sums))


def _brute_mdr(r, s):
    m_r, m_s = r[_brute_medoid(r)], s[_brute_medoid(s)]
    denom = np.mean([np.sqrt(((x - m_r) ** 2).sum()) for x in r])
    return float(np.sqrt(((m_r - m_s) ** 2).sum()) / denom)


def _brute_coverage(r, s, q):
    nn = [min(np.sqrt(((r[i] - r[j]) ** 2).sum()) for j in range(len(r)) if j != i)
          for i in range(len(r))]
    tau = np.quantile(nn, q)
    return np.mean([min(np.sqrt(((x - y) ** 2).sum()) for y in s) <= tau for x in r])


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(50):
        r = rng.standard_normal((int(rng.integers(4, 12)), 5))
        s = rng.standard_normal((int(rng.integers(3, 12)), 5))
        q = float(rng.uniform(0.1, 0.9))
        worst = max(worst, abs(metrics.wasserstein1_pooled(r, s) - _brute_w1(r, s)))
        worst = max(worst, abs(metrics.ks_pooled(r, s) - _brute_ks(r, s)))
        pa, pm = metrics.proto_err(r, s)
        ba, bm = _brute_proto(r, s)
        worst = max(worst, abs(pa - ba), abs(pm - bm))
        worst = max(worst, abs(metrics.mdr(r, s) - _brute_mdr(r, s)))
        worst = max(worst, abs(metrics.coverage(r, s, q) - _brute_coverage(r, s, q)))
    ok = worst <= 1e-12
    _report(3, "metric oracle equivalence", ok, f"max_abs_diff={worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. trivial identities on (S, S)
# ---------------------------------------------------------------------------

def test_criterion_4_trivial_identities():
    ok = True
    for seed in range(20):
        s = np.random.default_rng(seed).standard_normal((18, 16))
        ok &= metrics.wasserstein1_pooled(s, s) == 0.0
        ok &= metrics.ks_pooled(s, s) == 0.0
        ok &= metrics.acf_mae(s, s) == 0.0
        ok &= metrics.psd_l2(s, s) == 0.0
        ok &= metrics.proto_err(s, s) == (0.0, 0.0)
        ok &= metrics.mdr(s, s) == 0.0
        ok &= metrics.coverage(s, s, 0.5) == 1.0
        ok &= metrics.coverage(s, s, 0.9) == 1.0
    _report(4, "trivial identities", bool(ok))
    assert ok


# ---------------------------------------------------------------------------
# 5. law of total variance
# ---------------------------------------------------------------------------

def test_criterion_5_total_variance():
    # exact identity on finite labeled samples, population convention
    rng = np.random.default_rng(5)
    exact_ok = True
    for _ in range(10):
        x = rng.standard_normal(200) * rng.uniform(0.5, 3.0)
        labels = rng.integers(0, 5, size=200)
        _, _, gap = metrics.variance_decomposition_check(x, labels)
        exact_ok &= gap <= 1e-12

    # Monte-Carlo: sampled total variance of a 3-group Gaussian toy (uniform
    # group draw) against the analytic between + within decomposition
    n = 100_000
    labels = rng.integers(0, 3, size=n)
    means = np.array([-1.5, 0.0, 2.0])
    stds = np.array([0.4, 1.0, 1.7])
    x = means[labels] + stds[labels] * rng.standard_normal(n)
    mc_total, mc_decomp, _ = metrics.variance_decomposition_check(x, labels)
    analytic_between = ((means - means.mean()) ** 2).mean()
    analytic_within = (stds**2).mean()
    analytic = analytic_between + analytic_within
    mc_gap = abs(mc_total - analytic) / analytic
    ok = exact_ok and mc_gap <= 0.02 and abs(mc_decomp - analytic) / analytic <= 0.02
    _report(5, "law of total variance", ok,
            f"mc_total={mc_total:.4f} analytic={analytic:.4f} rel_gap={mc_gap:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 6. training smoke under the desk-scale protocol
# ---------------------------------------------------------------------------

def test_criterion_6_training_smoke(protocol_runs):
    model, log, _ = protocol_runs[("full", SEEDS[0])]
    descends = log[-1].total < log[0].total
    best_rule = model.best_epoch == int(np.argmin([e.total for e in log]))
    ok = descends and best_rule
    _report(
        6, "training smoke", ok,
        f"first={log[0].total:.4f} last={log[-1].total:.4f} best_epoch={model.best_epoch}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. ablation directionality over 3 seeds (majority)
# ---------------------------------------------------------------------------

def test_criterion_7_ablation_directionality(protocol_runs):
    gap_hits, kl_hits, invariance_hits = 0, 0, 0
    gaps = []
    for seed in SEEDS:
        full_model, _, data = protocol_runs[("full", seed)]
        det_model, _, _ = protocol_runs[("deterministic", seed)]
        beta0_model, _, _ = protocol_runs[("beta0", seed)]

        _, synth_full = _eval_synth(full_model, data, seed)
        _, synth_det = _eval_synth(det_model, data, seed)
        _, synth_beta0 = _eval_synth(beta0_model, data, seed)

        cov9_full = metrics.coverage(data.eval, synth_full, 0.9)
        cov9_det = metrics.coverage(data.eval, synth_det, 0.9)
        gaps.append(cov9_full - cov9_det)
        gap_hits += (cov9_full - cov9_det) >= 0.05

        cov5_full = metrics.coverage(data.eval, synth_full, 0.5)
        cov5_beta0 = metrics.coverage(data.eval, synth_beta0, 0.5)
        kl_hits += cov5_beta0 < cov5_full

        graphs = windows_to_graphs(data.eval[:16], det_model.boundaries)
        a = det_model.generate(graphs, n_per_graph=2, seed=1)
        b = det_model.generate(graphs, n_per_graph=2, seed=2 ** 31 - 1)
        invariance_hits += np.array_equal(a, b)

    ok = gap_hits >= 2 and kl_hits >= 2 and invariance_hits >= 2
    _report(
        7, "ablation directionality", ok,
        f"cov@0.9 gaps={['%.3f' % g for g in gaps]} "
        f"(a) {gap_hits}/3 (b) {kl_hits}/3 (c) {invariance_hits}/3",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. structural consistency of generated samples
# ---------------------------------------------------------------------------

def test_criterion_8_structural_consistency(protocol_runs):
    model, _, data = protocol_runs[("full", SEEDS[0])]
    cond, synth = _eval_synth(model, data, SEEDS[0])
    regen = windows_to_graphs(synth, model.boundaries)
    n = cond.shape[0]
    assert n >= 200

    own = graph_distance(cond, regen).mean()
    rng = np.random.default_rng(88)
    other_idx = (np.arange(n) + 1 + rng.integers(0, n - 1, size=n)) % n
    other = graph_distance(cond, cond[other_idx]).mean()
    ok = own < other
    _report(8, "structural consistency", ok, f"own={own:.4f} other={other:.4f} n={n}")
    assert ok


# ---------------------------------------------------------------------------
# 9. heavy-tail diagnostics
# ---------------------------------------------------------------------------

def test_criterion_9_heavy_tails():
    heavy = synth_generate("heavy_tail", 10_000, 32, seed=9)
    sine = synth_generate("sine_mix", 10_000, 32, seed=9)
    _, heavy_dx = metrics.tail_stats(heavy)
    _, sine_dx = metrics.tail_stats(sine)
    ok = heavy_dx.excess_kurtosis > 2.0 and sine_dx.excess_kurtosis < 1.0
    _report(
        9, "heavy-tail diagnostics", ok,
        f"heavy dx kurt={heavy_dx.excess_kurtosis:.2f} sine dx kurt={sine_dx.excess_kurtosis:.2f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. byte-identical pipeline determinism
# ---------------------------------------------------------------------------

def _run_pipeline(base, series_file):
    base.mkdir()
    rundir = base / "run"
    common = ["--seed", "17", "--epochs", "25", "--batch-size", "256"]
    assert cli.main(["ingest", "--input", str(series_file),
                     "--out", str(base / "w.txt"),
                     "--window-length", "32", "--stride", "32"]) == 0
    assert cli.main(["graph", "--windows", str(base / "w.txt"),
                     "--out", str(base / "g.txt")]) == 0
    assert cli.main(["train", "--windows", str(base / "w.txt"),
                     "--outdir", str(rundir)] + common) == 0
    assert cli.main(["generate", "--checkpoint", str(rundir / "checkpoint.g2ts"),
                     "--graphs", str(rundir / "eval_graphs.txt"),
                     "--out", str(base / "synth.txt"), "--seed", "17"]) == 0
    assert cli.main(["eval", "--real", str(rundir / "eval_windows.txt"),
                     "--synth", str(base / "synth.txt"),
                     "--out", str(base / "metrics.txt"), "--seed", "17"]) == 0
    return [
        base / "w.txt", base / "g.txt", base / "g.txt.boundaries",
        rundir / "checkpoint.g2ts", rundir / "loss_log.csv",
        rundir / "boundaries.txt", rundir / "eval_windows.txt",
        rundir / "eval_graphs.txt", base / "synth.txt", base / "metrics.txt",
    ]


def test_criterion_10_pipeline_determinism(tmp_path):
    rng = np.random.default_rng(10)
    t = np.arange(20_000)
    series = np.sin(2 * np.pi * t / 40) + 0.5 * np.sin(2 * np.pi * t / 13) \
        + 0.1 * rng.standard_normal(t.size)
    series_file = tmp_path / "series.txt"
    series_file.write_text("\n".join(repr(float(v)) for v in series) + "\n")

    files_a = _run_pipeline(tmp_path / "a", series_file)
    files_b = _run_pipeline(tmp_path / "b", series_file)
    mismatches = [
        str(fa.name) for fa, fb in zip(files_a, files_b)
        if not filecmp.cmp(fa, fb, shallow=False)
    ]
    ok = not mismatches
    _report(10, "pipeline determinism", ok,
            f"{len(files_a)} artifacts compared" + (f"; mismatched: {mismatches}" if mismatches else ""))
    assert ok
