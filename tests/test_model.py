import dataclasses

import numpy as np
import pytest

import graph2ts.model as model_mod
from graph2ts.autodiff import Tape
from graph2ts.dataset import DatasetSplit, split, synth_generate
from graph2ts.model import (
    TrainConfig,
    _decoder_input,
    batch_objective,
    beta_schedule,
    decode,
    encode_graph,
    encode_ts,
    init_params,
    loss_align,
    loss_dist,
    loss_kl,
    loss_recon,
    objective_value,
    param_shapes,
    posterior,
    reparameterize,
    train,
)
from graph2ts.quantile_graph import identity_graph, windows_to_graphs


SMALL = TrainConfig(embed_dim=16, latent_dim=4, epochs=4, batch_size=32, seed=7)


def _leaves(params, record=False):
    tape = Tape(record=record)
    return tape, {k: tape.leaf(v) for k, v in params.items()}


@pytest.fixture(scope="module")
def small_params():
    return init_params(SMALL, np.random.default_rng(7))


class TestEncoders:
    def test_shapes(self, small_params, rng):
        tape, p = _leaves(small_params)
        x = rng.standard_normal((5, 32))
        g = rng.random((5, 100))
        assert encode_ts(p, tape.leaf(x)).value.shape == (5, 16)
        assert encode_graph(p, tape.leaf(g)).value.shape == (5, 16)

    def test_zero_batch_bias_determined(self, small_params):
        tape, p = _leaves(small_params)
        out = encode_ts(p, tape.leaf(np.zeros((3, 32))))
        assert np.array_equal(out.value[0], out.value[1])

    def test_deterministic_and_finite(self, small_params, rng):
        x = 10.0 * rng.standard_normal((4, 32))
        tape1, p1 = _leaves(small_params)
        tape2, p2 = _leaves(small_params)
        a = encode_ts(p1, tape1.leaf(x)).value
        b = encode_ts(p2, tape2.leaf(x)).value
        assert np.array_equal(a, b)
        assert np.isfinite(a).all()


class TestPosterior:
    def test_output_split(self, small_params, rng):
        tape, p = _leaves(small_params)
        t_raw = encode_ts(p, tape.leaf(rng.standard_normal((6, 32))))
        g_raw = encode_graph(p, tape.leaf(rng.random((6, 100))))
        mu, logvar = posterior(p, t_raw, g_raw, SMALL.latent_dim)
        assert mu.value.shape == (6, 4) and logvar.value.shape == (6, 4)

    def test_logvar_clamped_on_adversarial_scale(self, small_params, rng):
        tape, p = _leaves(small_params)
        t_raw = encode_ts(p, tape.leaf(1e4 * rng.standard_normal((4, 32))))
        g_raw = encode_graph(p, tape.leaf(1e4 * rng.random((4, 100))))
        _, logvar = posterior(p, t_raw, g_raw, SMALL.latent_dim)
        assert logvar.value.min() >= -10.0 and logvar.value.max() <= 10.0


class TestReparameterize:
    def test_zero_eps_gives_mu(self, rng):
        tape = Tape(record=False)
        mu = tape.leaf(rng.standard_normal((3, 4)))
        logvar = tape.leaf(rng.standard_normal((3, 4)))
        z = reparameterize(mu, logvar, np.zeros((3, 4)))
        assert np.array_equal(z.value, mu.value)

    def test_unit_logvar_zero(self, rng):
        tape = Tape(record=False)
        mu = tape.leaf(np.zeros((2, 3)))
        e = rng.standard_normal((2, 3))
        z = reparameterize(mu, tape.leaf(np.zeros((2, 3))), e)
        assert np.allclose(z.value, e, atol=1e-15)

    def test_monte_carlo_variance(self):
        rng = np.random.default_rng(0)
        tape = Tape(record=False)
        logvar_val = 0.7
        n = 100_000
        mu = tape.leaf(np.zeros((n, 1)))
        logvar = tape.leaf(np.full((n, 1), logvar_val))
        z = reparameterize(mu, logvar, rng.standard_normal((n, 1)))
        assert z.value.var() == pytest.approx(np.exp(logvar_val), rel=0.03)


class TestDecode:
    def test_full_depends_on_z(self, small_params, rng):
        tape, p = _leaves(small_params)
        g_raw = encode_graph(p, tape.leaf(rng.random((2, 100))))
        z1 = tape.leaf(rng.standard_normal((2, 4)))
        z2 = tape.leaf(rng.standard_normal((2, 4)))
        a = decode(p, _decoder_input(g_raw, z1, "full")).value
        b = decode(p, _decoder_input(g_raw, z2, "full")).value
        assert a.shape == (2, 32)
        assert not np.array_equal(a, b)

    def test_deterministic_ignores_z(self, rng):
        cfg = dataclasses.replace(SMALL, variant="deterministic")
        params = init_params(cfg, np.random.default_rng(1))
        tape, p = _leaves(params)
        g_raw = encode_graph(p, tape.leaf(rng.random((3, 100))))
        a = decode(p, _decoder_input(g_raw, None, "deterministic")).value
        b = decode(p, _decoder_input(g_raw, None, "deterministic")).value
        assert np.array_equal(a, b)

    def test_full_requires_z(self, small_params, rng):
        tape, p = _leaves(small_params)
        g_raw = encode_graph(p, tape.leaf(rng.random((2, 100))))
        with pytest.raises(ValueError):
            _decoder_input(g_raw, None, "full")


class TestLossAlign:
    def _align(self, t_emb, g_emb, temp=0.07):
        tape = Tape(record=False)
        return float(
            loss_align(
                tape.leaf(t_emb), tape.leaf(g_emb), tape.leaf([[np.log(temp)]])
            ).value[0, 0]
        )

    def test_single_pair_zero(self, rng):
        v = rng.standard_normal((1, 8))
        assert self._align(v, v) == 0.0

    def test_orthogonal_matched_pairs(self):
        e = np.eye(2)
        expected = np.log1p(np.exp(-1 / 0.07))
        assert self._align(e, e) == pytest.approx(expected, rel=1e-9)
        assert self._align(e, e) < 1e-6

    def test_swapped_partners_dominate(self):
        e = np.eye(2)
        swapped = e[::-1]
        expected = np.log1p(np.exp(1 / 0.07))
        assert self._align(e, swapped) == pytest.approx(expected, rel=1e-9)
        assert self._align(e, swapped) > 14.0

    def test_gradient_reaches_temperature(self, rng):
        tape = Tape()
        t_emb = tape.leaf(rng.standard_normal((4, 8)))
        g_emb = tape.leaf(rng.standard_normal((4, 8)))
        lt = tape.leaf([[np.log(0.07)]])
        tape.backward(loss_align(t_emb, g_emb, lt))
        assert lt.grad is not None and lt.grad[0, 0] != 0.0


class TestLossRecon:
    def test_identical_zero(self, rng):
        tape = Tape(record=False)
        x = rng.standard_normal((3, 5))
        assert float(loss_recon(tape.leaf(x), x).value[0, 0]) == 0.0

    def test_unit_offset(self):
        tape = Tape(record=False)
        assert float(loss_recon(tape.leaf([[1.0, 1.0]]), np.zeros((1, 2))).value[0, 0]) == 1.0

    def test_gradient_formula(self, rng):
        x_hat = rng.standard_normal((4, 6))
        x = rng.standard_normal((4, 6))
        tape = Tape()
        v = tape.leaf(x_hat)
        tape.backward(loss_recon(v, x))
        assert np.allclose(v.grad, 2 * (x_hat - x) / x.size, atol=1e-15)


class TestLossDist:
    def test_permutation_zero(self, rng):
        tape = Tape(record=False)
        x = rng.standard_normal((1, 6))
        perm = x[:, np.random.default_rng(0).permutation(6)]
        assert float(loss_dist(tape.leaf(perm), x).value[0, 0]) == 0.0

    def test_swap_zero(self):
        tape = Tape(record=False)
        assert float(loss_dist(tape.leaf([[1.0, 0.0]]), np.array([[0.0, 1.0]])).value[0, 0]) == 0.0

    def test_sorted_pairs(self):
        tape = Tape(record=False)
        v = float(loss_dist(tape.leaf([[1.0, 1.0]]), np.array([[0.0, 2.0]])).value[0, 0])
        assert v == 1.0


class TestLossKL:
    def _kl(self, mu, logvar):
        tape = Tape(record=False)
        return float(loss_kl(tape.leaf(mu), tape.leaf(logvar)).value[0, 0])

    def test_standard_normal_zero(self):
        assert self._kl(np.zeros((3, 4)), np.zeros((3, 4))) == 0.0

    def test_unit_mean(self):
        assert self._kl(np.ones((1, 1)), np.zeros((1, 1))) == 0.5

    def test_variance_four(self):
        expected = 0.5 * (4 - 1 - np.log(4))
        assert self._kl(np.zeros((1, 1)), np.full((1, 1), np.log(4.0))) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.8069, abs=1e-4)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        mu = rng.standard_normal((1, 4))
        logvar = rng.uniform(-1, 1, size=(1, 4))
        closed = self._kl(mu, logvar)
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((100_000, 4))
        log_q = (-0.5 * ((z - mu) / sigma) ** 2 - 0.5 * np.log(2 * np.pi) - np.log(sigma)).sum(axis=1)
        log_p = (-0.5 * z**2 - 0.5 * np.log(2 * np.pi)).sum(axis=1)
        assert closed == pytest.approx((log_q - log_p).mean(), rel=0.01)


class TestBetaSchedule:
    def test_zero_at_start(self):
        assert beta_schedule(0, 50, 0.05) == 0.0

    def test_full_at_warmup(self):
        assert beta_schedule(50, 50, 0.05) == 0.05
        assert beta_schedule(120, 50, 0.05) == 0.05

    def test_linear_midpoint(self):
        assert beta_schedule(25, 50, 0.05) == pytest.approx(0.025, abs=1e-15)

    def test_no_warmup(self):
        assert beta_schedule(0, 0, 0.05) == 0.05


class TestObjective:
    def _setup(self, cfg, seed=5):
        rng = np.random.default_rng(seed)
        w = synth_generate("sine_mix", 8, 32, seed)
        x = (w - w.mean()) / w.std()
        from graph2ts.quantile_graph import fit_boundaries

        g = windows_to_graphs(x, fit_boundaries(x.ravel(), cfg.n_states))
        params = init_params(cfg, rng)
        eps = None
        if cfg.variant != "deterministic":
            eps = rng.standard_normal((8, cfg.latent_dim))
        return params, x, g, eps

    def test_recombination_identity(self):
        cfg = SMALL
        params, x, g, eps = self._setup(cfg)
        tape, p = _leaves(params, record=False)
        total, parts = batch_objective(p, x, g, eps, cfg, beta=0.031)
        recombo = (
            cfg.w_align * parts.align
            + cfg.w_recon * parts.recon
            + cfg.w_dist * parts.dist
            + parts.beta * parts.kl
        )
        assert abs(parts.total - recombo) <= 1e-12

    def test_plain_value_matches_tape(self):
        for variant in ("full", "deterministic"):
            cfg = dataclasses.replace(SMALL, variant=variant)
            params, x, g, eps = self._setup(cfg)
            tape, p = _leaves(params, record=False)
            total, _ = batch_objective(p, x, g, eps, cfg, beta=0.02)
            plain = objective_value(params, x, g, eps, cfg, beta=0.02)
            assert float(total.value[0, 0]) == pytest.approx(plain, abs=1e-12)

    @pytest.mark.parametrize("variant, n_ops", [
        ("full", 18), ("no_graph", 18), ("deterministic", 11),
    ])
    def test_records_per_step(self, variant, n_ops):
        # 4 mlp2 (3 deterministic), 2 l2_normalize_rows (3), concat_cols x2,
        # slice_cols x2, clamp, sort_rows and the 6 loss ops (4)
        cfg = dataclasses.replace(SMALL, variant=variant)
        params, x, g, eps = self._setup(cfg)
        tape, p = _leaves(params, record=True)
        batch_objective(p, x, g, eps, cfg, beta=0.02)
        assert len(tape._ops) == n_ops

    def test_zero_embedding_rows_stay_finite(self):
        # zero encoder outputs: both normalizations divide by NORM_EPS, not by 0
        for variant in ("full", "deterministic"):
            cfg = dataclasses.replace(SMALL, variant=variant)
            params, x, g, eps = self._setup(cfg)
            for name in ("ts_enc.w2", "ts_enc.b2", "g_enc.w2", "g_enc.b2"):
                params[name] = np.zeros_like(params[name])
            _, p = _leaves(params, record=False)
            total, _ = batch_objective(p, x, g, eps, cfg, beta=0.02)
            plain = objective_value(params, x, g, eps, cfg, beta=0.02)
            assert np.isfinite(plain)
            assert float(total.value[0, 0]) == pytest.approx(plain, abs=1e-12)

    def test_deterministic_has_no_kl(self):
        cfg = dataclasses.replace(SMALL, variant="deterministic")
        params, x, g, eps = self._setup(cfg)
        _, p = _leaves(params, record=False)
        _, parts = batch_objective(p, x, g, eps, cfg, beta=0.05)
        assert parts.kl == 0.0


@pytest.fixture(scope="module")
def tiny_data():
    w = synth_generate("sine_mix", 120, 32, seed=20)
    return split(w, 0.2, seed=20)


@pytest.fixture(scope="module")
def trained():
    w = synth_generate("sine_mix", 120, 32, seed=22)
    data = split(w, 0.2, seed=22)
    model, _ = train(dataclasses.replace(SMALL, epochs=2), data)
    graphs = windows_to_graphs(data.eval, model.boundaries)
    return model, graphs


class TestTraining:
    def test_deterministic_across_runs(self, tiny_data):
        m1, log1 = train(SMALL, tiny_data)
        m2, log2 = train(SMALL, tiny_data)
        assert log1 == log2
        assert m1.best_epoch == m2.best_epoch
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    def test_loss_log_well_formed(self, tiny_data):
        _, log = train(SMALL, tiny_data)
        assert len(log) == SMALL.epochs
        for e in log:
            recombo = (
                SMALL.w_align * e.align + SMALL.w_recon * e.recon
                + SMALL.w_dist * e.dist + e.beta * e.kl
            )
            assert abs(e.total - recombo) <= 1e-9

    def test_best_checkpoint_is_argmin(self, tiny_data):
        model, log = train(SMALL, tiny_data)
        assert model.best_epoch == int(np.argmin([e.total for e in log]))

    @pytest.mark.parametrize(
        "knockout", [{"w_recon": 0.0}, {"w_align": 0.0}, {"w_dist": 0.0}, {"beta_max": 0.0}]
    )
    def test_knockouts_run_and_log_all_parts(self, tiny_data, knockout):
        cfg = dataclasses.replace(SMALL, epochs=2, **knockout)
        _, log = train(cfg, tiny_data)
        for e in log:
            assert e.align > 0.0 and e.recon > 0.0 and e.dist >= 0.0 and e.kl >= 0.0

    def test_variants_train(self, tiny_data):
        for variant in ("no_graph", "deterministic"):
            cfg = dataclasses.replace(SMALL, epochs=2, variant=variant)
            model, log = train(cfg, tiny_data)
            assert len(log) == 2
            assert model.config.variant == variant

    @pytest.mark.parametrize("embed_dim", [4, 6])
    def test_small_widths_train(self, embed_dim):
        # a few hidden ReLUs can all be off for a window, whose embedding is then 0
        data = split(synth_generate("sine_mix", 3000, 32, 3), 0.3, seed=7)
        cfg = TrainConfig(epochs=4, batch_size=256, seed=7, latent_dim=2, embed_dim=embed_dim)
        model, log = train(cfg, data)
        assert len(log) == 4 and all(np.isfinite(e.total) for e in log)
        assert all(np.isfinite(v).all() for v in model.params.values())

    def test_window_length_mismatch(self, tiny_data):
        cfg = dataclasses.replace(SMALL, window_length=16)
        with pytest.raises(ValueError, match="length 32, config window_length is 16"):
            train(cfg, tiny_data)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_snapshot_not_returned(self, tiny_data):
        # one Adam step of lr=1e308 overflows parameters after the epoch's
        # loss was measured, so that epoch still looks like the best one
        cfg = dataclasses.replace(SMALL, epochs=1, batch_size=128, lr=1e308)
        with pytest.raises(RuntimeError, match="non-finite after epoch 0"):
            train(cfg, tiny_data)


class TestNoGraphVariant:
    def test_constant_conditioning_and_backbone(self):
        w = synth_generate("sine_mix", 80, 32, seed=21)
        data = split(w, 0.2, seed=21)
        cfg = dataclasses.replace(SMALL, epochs=2, variant="no_graph")
        model, _ = train(cfg, data)
        # conditioning is the identity graph regardless of the input graphs
        real_graphs = windows_to_graphs(data.eval, model.boundaries)
        tape = Tape(record=False)
        p = {k: tape.leaf(v) for k, v in model.params.items()}
        emb = encode_graph(p, tape.leaf(model._conditioning(real_graphs))).value
        assert np.array_equal(emb[0], emb[-1])
        # same z on identical conditioning rows decodes identically
        g_raw = encode_graph(p, tape.leaf(np.tile(
            identity_graph(cfg.n_states), (4, 1))))
        z = np.random.default_rng(0).standard_normal((1, cfg.latent_dim))
        out = decode(p, _decoder_input(g_raw, tape.leaf(np.tile(z, (4, 1))), "no_graph")).value
        assert np.array_equal(out[0], out[2])


class TestGenerate:
    def test_two_draws_differ(self, trained):
        model, graphs = trained
        out = model.generate(graphs[:1], n_per_graph=2, seed=5)
        assert out.shape == (2, 32)
        assert not np.array_equal(out[0], out[1])

    def test_reproducible(self, trained):
        model, graphs = trained
        a = model.generate(graphs[:4], n_per_graph=3, seed=9)
        b = model.generate(graphs[:4], n_per_graph=3, seed=9)
        assert np.array_equal(a, b)

    def test_deterministic_variant_duplicates_and_seed_invariance(self):
        w = synth_generate("sine_mix", 120, 32, seed=23)
        data = split(w, 0.2, seed=23)
        cfg = dataclasses.replace(SMALL, epochs=2, variant="deterministic")
        model, _ = train(cfg, data)
        graphs = windows_to_graphs(data.eval, model.boundaries)
        out = model.generate(graphs[:3], n_per_graph=2, seed=1)
        assert np.array_equal(out[0], out[1])
        other = model.generate(graphs[:3], n_per_graph=2, seed=999)
        assert np.array_equal(out, other)

    def test_graph_width_validated(self, trained):
        model, _ = trained
        with pytest.raises(ValueError):
            model.generate(np.ones((2, 9)), seed=0)

    @staticmethod
    def _one_shot(model, graphs, n_per_graph, seed):
        # encode, repeat, and one decode over all rows with one eps draw
        tape = Tape(record=False)
        p = {k: tape.leaf(v) for k, v in model.params.items()}
        g_raw = encode_graph(p, tape.leaf(graphs))
        rep = tape.leaf(np.repeat(g_raw.value, n_per_graph, axis=0))
        eps = np.random.default_rng(seed).standard_normal(
            (rep.value.shape[0], model.config.latent_dim))
        return decode(p, _decoder_input(rep, tape.leaf(eps), model.config.variant)).value

    # (graphs, n_per_graph, block rows); 21 x 1 in blocks of 5 would leave a
    # 1-row tail under a fixed-size split
    @pytest.mark.parametrize("n_graphs,n_per_graph,block", [
        (24, 1, 5), (21, 1, 5), (24, 1, 3), (2, 1, 3), (1, 1, 5),
        (24, 3, 7), (23, 3, 4096), (24, 40, 100), (5, 40, 16),
    ])
    def test_blocks_match_one_shot(self, trained, monkeypatch, n_graphs, n_per_graph, block):
        model, graphs = trained
        monkeypatch.setattr(model_mod, "_GENERATE_BLOCK_ROWS", block)
        rows = []
        decode_fn = model_mod.decode

        def recording_decode(p, inp):
            rows.append(inp.value.shape[0])
            return decode_fn(p, inp)

        monkeypatch.setattr(model_mod, "decode", recording_decode)
        out = model.generate(graphs[:n_graphs], n_per_graph=n_per_graph, seed=11)
        want = self._one_shot(model, graphs[:n_graphs], n_per_graph, seed=11)
        assert np.array_equal(out, want)
        total = n_graphs * n_per_graph
        assert sum(rows) == total
        assert max(rows) <= block + n_per_graph
        assert total == 1 or min(rows) > 1
        if total > block:
            assert len(rows) > 1

    def test_calls_return_fresh_arrays(self, trained):
        model, graphs = trained
        a = model.generate(graphs[:6], n_per_graph=3, seed=4)
        kept = a.copy()
        b = model.generate(graphs[:6], n_per_graph=3, seed=5)
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, kept)
        assert not np.array_equal(a, b)

    def test_zero_graphs(self, trained):
        model, graphs = trained
        out = model.generate(graphs[:0], n_per_graph=3, seed=0)
        assert out.shape == (0, model.config.window_length)

    def test_nonfinite_input_names_row(self, trained):
        model, graphs = trained
        g = graphs[:4].copy()
        g[2, 5] = np.nan
        with pytest.raises(ValueError, match=r"graph set .* at row 2, column 5$"):
            model.generate(g, n_per_graph=3, seed=0)
        with pytest.raises(ValueError, match=r"graph set .* at row 2, column 5$"):
            model._conditioning(g)
        w = np.zeros((3, model.config.window_length))
        w[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"window set .* at row 1, column 0$"):
            model.ts_embeddings(w)


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="diffusion")

    def test_negative_weight(self):
        with pytest.raises(ValueError):
            TrainConfig(w_recon=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["w_align", "w_recon", "w_dist", "beta_max", "lr"])
    def test_nonfinite_float_rejected(self, name, value):
        # NaN passes a bare `< 0` check
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["kl_warmup_epochs", "seed"])
    def test_negative_count_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            TrainConfig(**{name: -1})

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.0), ("epochs", True), ("lr", False), ("lr", "0.1"), ("variant", 1),
    ])
    def test_field_of_wrong_type_rejected(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be of type "):
            TrainConfig(**{name: value})

    def test_integral_and_real_values_accepted(self):
        cfg = TrainConfig(epochs=np.int64(3), lr=1, beta_max=np.float64(0.5))
        assert cfg.epochs == 3 and cfg.lr == 1 and cfg.beta_max == 0.5

    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.window_length == 32 and cfg.n_states == 10
        assert cfg.embed_dim == 128 and cfg.latent_dim == 32
        assert cfg.w_align == 1.0 and cfg.w_recon == 5.0 and cfg.w_dist == 1.0
        assert cfg.beta_max == 0.05 and cfg.kl_warmup_epochs == 50
        assert cfg.lr == 3e-4 and cfg.batch_size == 4096 and cfg.epochs == 300


class TestParamShapes:
    @pytest.mark.parametrize("widths", [{}, {"embed_dim": 6, "latent_dim": 2}],
                             ids=["default", "small"])
    @pytest.mark.parametrize("variant", ["full", "no_graph", "deterministic"])
    def test_init_params_follows_the_table(self, variant, widths):
        cfg = TrainConfig(variant=variant, **widths)
        params = init_params(cfg, np.random.default_rng(0))
        assert list(param_shapes(cfg).items()) == [(k, v.shape) for k, v in params.items()]

    @pytest.mark.parametrize("variant", ["full", "deterministic"])
    def test_init_params_draw_order(self, variant):
        # block by block, w1 before w2, as the parameters were first laid out
        cfg = dataclasses.replace(SMALL, variant=variant)
        rng = np.random.default_rng(3)
        e, t, dz = cfg.embed_dim, cfg.window_length, cfg.latent_dim
        blocks = [("ts_enc", t, e), ("g_enc", cfg.graph_dim, e)]
        if variant == "full":
            blocks.append(("post", 2 * e, 2 * dz))
        blocks.append(("dec", e if variant == "deterministic" else e + dz, t))
        want = {}
        for prefix, n_in, n_out in blocks:
            lim1, lim2 = np.sqrt(6.0 / (n_in + e)), np.sqrt(6.0 / (e + n_out))
            want[f"{prefix}.w1"] = rng.uniform(-lim1, lim1, size=(n_in, e))
            want[f"{prefix}.b1"] = np.zeros((1, e))
            want[f"{prefix}.w2"] = rng.uniform(-lim2, lim2, size=(e, n_out))
            want[f"{prefix}.b2"] = np.zeros((1, n_out))
        want["log_temp"] = np.full((1, 1), np.log(0.07))
        got = init_params(cfg, np.random.default_rng(3))
        assert list(got) == list(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)


_EMPTY = np.empty((0, 32))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda model, data: train(dataclasses.replace(SMALL, lr=1e100), data),
                 RuntimeError, r"^non-finite loss at epoch 0, batch 1: ",
                 marks=[pytest.mark.filterwarnings("ignore:overflow encountered"),
                        pytest.mark.filterwarnings("ignore:invalid value encountered")],
                 id="train_nonfinite_loss"),
    pytest.param(lambda model, data: train(SMALL, DatasetSplit(_EMPTY, data.eval, data.norm)),
                 ValueError, r"^empty training split$", id="train_empty_split"),
    pytest.param(lambda model, data: model.generate(np.eye(10).reshape(1, -1), n_per_graph=0),
                 ValueError, r"^n_per_graph must be positive$", id="generate_zero_per_graph"),
    pytest.param(lambda model, data: model.ts_embeddings(data.eval[:3, :20]), ValueError,
                 r"^window set has shape \(3, 20\); the model takes rows of width 32$",
                 id="ts_embeddings_window_width"),
    pytest.param(lambda model, data: model.generate(np.ones((2, 9))), ValueError,
                 r"^graph set has shape \(2, 9\); the model takes rows of width 100$",
                 id="generate_graph_width"),
    pytest.param(lambda model, data: model.ts_embeddings(np.zeros((2, 4, 32))), ValueError,
                 r"^window set has shape \(2, 4, 32\); the model takes rows of width 32$",
                 id="ts_embeddings_3d"),
    pytest.param(lambda model, data: beta_schedule(-1, 50, 0.05), ValueError,
                 r"^epoch must be non-negative$", id="beta_negative_epoch"),
])
def test_raise_paths(trained, tiny_data, call, error, message):
    with pytest.raises(error, match=message):
        call(trained[0], tiny_data)
