"""Graph-conditioned variational autoencoder over fixed-length windows.

Two MLP encoders embed a window and its flattened transition graph; a
posterior head maps the concatenated raw embeddings to a diagonal Gaussian
over the latent; the decoder consumes the raw graph embedding together with
the latent sample. Training minimizes

    w_align * align + w_recon * recon + w_dist * dist + beta * kl

with a symmetric contrastive alignment term, mean-squared reconstruction,
an order-statistics (sorted-value) match, and a KL term annealed linearly
from 0 to beta_max.

Variants: ``no_graph`` swaps every conditioning vector for the flattened
identity matrix (architecture unchanged); ``deterministic`` removes the
posterior/latent path entirely and decodes the normalized graph embedding.

``param_shapes`` states every parameter's name and shape for a config;
``init_params`` draws over it and the checkpoint reader checks against it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .dataset import DatasetSplit, check_finite
from .optim import ParamStore, adam_step
from .quantile_graph import (
    QuantileBoundaries,
    fit_boundaries,
    identity_graph,
    windows_to_graphs,
)

__all__ = [
    "VARIANTS",
    "TrainConfig",
    "LossBreakdown",
    "Graph2TS",
    "param_shapes",
    "init_params",
    "encode_ts",
    "encode_graph",
    "posterior",
    "reparameterize",
    "decode",
    "conditioning_graphs",
    "loss_align",
    "loss_recon",
    "loss_dist",
    "loss_kl",
    "beta_schedule",
    "batch_objective",
    "objective_value",
    "train",
]

VARIANTS = ("full", "no_graph", "deterministic")

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
INIT_TEMPERATURE = 0.07

# generate decodes ~this many rows at a time: a block's decoder input
# (4096 x (embed_dim + latent_dim) float64) is ~5 MB at the defaults, where
# one decode of 4000 graphs x 10 makes 41-51 MB temporaries that miss cache
_GENERATE_BLOCK_ROWS = 4096

# what a TrainConfig field of each annotated type accepts
_FIELD_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}


@dataclass(frozen=True)
class TrainConfig:
    window_length: int = 32
    n_states: int = 10
    embed_dim: int = 128
    latent_dim: int = 32
    w_align: float = 1.0
    w_recon: float = 5.0
    w_dist: float = 1.0
    beta_max: float = 0.05
    kl_warmup_epochs: int = 50
    lr: float = 3e-4
    batch_size: int = 4096
    epochs: int = 300
    seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        # the annotations, which also type the CLI's keys; bool subclasses int
        for name, kind in get_type_hints(TrainConfig).items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_KINDS[kind]):
                raise TypeError(f"{name} must be of type {kind.__name__}, got {value!r}")
        for name in ("window_length", "n_states", "embed_dim", "latent_dim",
                     "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("w_align", "w_recon", "w_dist", "beta_max", "lr"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("kl_warmup_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")

    @property
    def graph_dim(self) -> int:
        return self.n_states * self.n_states


@dataclass(frozen=True)
class LossBreakdown:
    align: float
    recon: float
    dist: float
    kl: float
    beta: float
    total: float


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_shapes(config: TrainConfig) -> dict[str, tuple[int, int]]:
    """Each parameter's name and shape for ``config``, in ``init_params`` order:
    blocks ``ts_enc``, ``g_enc``, ``post`` (not for ``deterministic``) and ``dec``,
    each ``w1, b1, w2, b2`` around ``embed_dim`` hidden units; then ``log_temp``."""
    e, t, dz = config.embed_dim, config.window_length, config.latent_dim
    blocks = [("ts_enc", t, e), ("g_enc", config.graph_dim, e)]
    if config.variant == "deterministic":
        blocks.append(("dec", e, t))
    else:
        blocks += [("post", 2 * e, 2 * dz), ("dec", e + dz, t)]
    shapes: dict[str, tuple[int, int]] = {}
    for prefix, n_in, n_out in blocks:
        shapes.update({f"{prefix}.w1": (n_in, e), f"{prefix}.b1": (1, e),
                       f"{prefix}.w2": (e, n_out), f"{prefix}.b2": (1, n_out)})
    shapes["log_temp"] = (1, 1)
    return shapes


def init_params(config: TrainConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, drawn in ``param_shapes`` order, zero biases,
    and the temperature stored as its log."""
    params: dict[str, np.ndarray] = {}
    for name, (n_in, n_out) in param_shapes(config).items():
        if name == "log_temp":
            params[name] = np.full((1, 1), np.log(INIT_TEMPERATURE))
        elif ".w" in name:
            limit = np.sqrt(6.0 / (n_in + n_out))
            params[name] = rng.uniform(-limit, limit, size=(n_in, n_out))
        else:
            params[name] = np.zeros((n_in, n_out))
    return params


def _mlp2(p: dict[str, Var], prefix: str, x: Var) -> Var:
    return ad.mlp2(x, *(p[f"{prefix}.{k}"] for k in ("w1", "b1", "w2", "b2")))


def encode_ts(p: dict[str, Var], x: Var) -> Var:
    """Raw window embedding: two affine layers with a ReLU between."""
    return _mlp2(p, "ts_enc", x)


def encode_graph(p: dict[str, Var], g: Var) -> Var:
    """Raw graph embedding from the flattened transition matrix."""
    return _mlp2(p, "g_enc", g)


def posterior(p: dict[str, Var], t_raw: Var, g_raw: Var, latent_dim: int) -> tuple[Var, Var]:
    """(mu, logvar) from the concatenated raw embeddings; logvar clamped."""
    out = _mlp2(p, "post", ad.concat_cols(t_raw, g_raw))
    mu = ad.slice_cols(out, 0, latent_dim)
    logvar = ad.clamp(ad.slice_cols(out, latent_dim, 2 * latent_dim), LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


def reparameterize(mu: Var, logvar: Var, eps: np.ndarray) -> Var:
    """z = mu + exp(logvar / 2) * eps with eps an untracked standard-normal draw."""
    return ad.reparam(mu, logvar, eps)


def _decoder_input(g_raw: Var, z: Var | None, variant: str) -> Var:
    """The decoder's input: the raw graph embedding beside the latent, or
    for the deterministic variant the normalized graph embedding alone, so
    that its output cannot depend on any latent draw."""
    if variant == "deterministic":
        return ad.l2_normalize_rows(g_raw)
    if z is None:
        raise ValueError("variant requires a latent sample")
    return ad.concat_cols(g_raw, z)


def decode(p: dict[str, Var], inp: Var) -> Var:
    """Windows from an assembled decoder input; linear output layer."""
    return _mlp2(p, "dec", inp)


def conditioning_graphs(config: TrainConfig, graphs: np.ndarray) -> np.ndarray:
    """The rows the graph encoder sees: ``graphs`` itself, or for ``no_graph``
    as many rows of the identity graph."""
    if config.variant != "no_graph":
        return graphs
    return np.tile(identity_graph(config.n_states), (graphs.shape[0], 1))


# ---------------------------------------------------------------------------
# loss terms
# ---------------------------------------------------------------------------

def loss_align(t_raw: Var, g_raw: Var, log_temp: Var) -> Var:
    """Symmetric contrastive alignment (``info_nce``) of the normalized embeddings
    at a learnable temperature: in-batch non-partners are the negatives, in both
    the window->graph and graph->window directions."""
    return ad.info_nce(ad.l2_normalize_rows(t_raw), ad.l2_normalize_rows(g_raw), log_temp)


def loss_recon(x_hat: Var, x: np.ndarray) -> Var:
    """Mean squared error, averaged over batch and time so weights stay scale-free."""
    return ad.mse_mean(x_hat, x)


def loss_dist(x_hat: Var, x: np.ndarray) -> Var:
    """Order-statistics match: squared gap between per-row sorted values.

    The sort permutation is a constant of the backward pass; gradients scatter
    back through it to the positions the sorted values came from.
    """
    return ad.mse_mean(ad.sort_rows(x_hat), np.sort(x, axis=1))


def loss_kl(mu: Var, logvar: Var) -> Var:
    """KL from the diagonal posterior to the standard normal, meaned over the batch."""
    return ad.gauss_kl(mu, logvar)


def beta_schedule(epoch: int, warmup: int, beta_max: float) -> float:
    """Linear anneal: beta_max * min(1, epoch / warmup); epochs count from 0."""
    if epoch < 0:
        raise ValueError("epoch must be non-negative")
    if warmup <= 0:
        return beta_max
    return beta_max * min(1.0, epoch / warmup)


def batch_objective(
    p: dict[str, Var],
    x: np.ndarray,
    graphs: np.ndarray,
    eps: np.ndarray | None,
    config: TrainConfig,
    beta: float,
) -> tuple[Var, LossBreakdown]:
    """Weighted total for one batch plus the raw per-term values.

    All four raw losses are reported even when their weight is zero, so
    knockout runs still log every component.
    """
    t_raw = encode_ts(p, _leaf_of(p, x))
    g_raw = encode_graph(p, _leaf_of(p, graphs))
    align = loss_align(t_raw, g_raw, p["log_temp"])
    if config.variant == "deterministic":
        x_hat = decode(p, _decoder_input(g_raw, None, config.variant))
        kl = None
    else:
        mu, logvar = posterior(p, t_raw, g_raw, config.latent_dim)
        z = reparameterize(mu, logvar, eps)
        x_hat = decode(p, _decoder_input(g_raw, z, config.variant))
        kl = loss_kl(mu, logvar)
    recon = loss_recon(x_hat, x)
    dist = loss_dist(x_hat, x)

    terms = [align, recon, dist] + ([] if kl is None else [kl])
    weights = [config.w_align, config.w_recon, config.w_dist, beta][:len(terms)]
    total = ad.weighted_sum(terms, weights)
    parts = LossBreakdown(
        align=float(align.value[0, 0]),
        recon=float(recon.value[0, 0]),
        dist=float(dist.value[0, 0]),
        kl=0.0 if kl is None else float(kl.value[0, 0]),
        beta=beta,
        total=float(total.value[0, 0]),
    )
    return total, parts


def _leaf_of(p: dict[str, Var], arr: np.ndarray) -> Var:
    # inputs join the computation as leaves on the same tape as the parameters
    return next(iter(p.values())).tape.leaf(arr)


def objective_value(
    params: dict[str, np.ndarray],
    x: np.ndarray,
    graphs: np.ndarray,
    eps: np.ndarray | None,
    config: TrainConfig,
    beta: float,
) -> float:
    """The same weighted total as :func:`batch_objective`, written in plain numpy.

    Kept deliberately separate from the tape ops so finite-difference probes
    check the tape against an independent evaluation of the objective.
    """
    def mlp2(prefix: str, inp: np.ndarray) -> np.ndarray:
        h = np.maximum(inp @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"], 0.0)
        return h @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]

    def l2n(v: np.ndarray) -> np.ndarray:
        return v / np.maximum(np.sqrt((v * v).sum(axis=1, keepdims=True)), ad.NORM_EPS)

    def lse_rows(v: np.ndarray) -> np.ndarray:
        m = v.max(axis=1, keepdims=True)
        return (m + np.log(np.exp(v - m).sum(axis=1, keepdims=True)))[:, 0]

    t_raw = mlp2("ts_enc", x)
    g_raw = mlp2("g_enc", graphs)
    s = (l2n(t_raw) @ l2n(g_raw).T) * np.exp(-params["log_temp"][0, 0])
    diag = np.diagonal(s)
    align = 0.5 * ((lse_rows(s) - diag).mean() + (lse_rows(s.T) - diag).mean())

    if config.variant == "deterministic":
        x_hat = mlp2("dec", l2n(g_raw))
        kl = 0.0
    else:
        post = mlp2("post", np.hstack([t_raw, g_raw]))
        mu = post[:, : config.latent_dim]
        logvar = np.clip(post[:, config.latent_dim :], LOGVAR_MIN, LOGVAR_MAX)
        z = mu + np.exp(0.5 * logvar) * eps
        x_hat = mlp2("dec", np.hstack([g_raw, z]))
        kl = 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar).sum() / x.shape[0]

    recon = ((x_hat - x) ** 2).mean()
    dist = ((np.sort(x_hat, axis=1) - np.sort(x, axis=1)) ** 2).mean()
    return (
        config.w_align * align
        + config.w_recon * recon
        + config.w_dist * dist
        + beta * kl
    )


def _rows(arr: np.ndarray, width: int, what: str) -> np.ndarray:
    """``arr`` as finite float64 rows of ``width`` values; errors name ``what``."""
    x = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != width:
        raise ValueError(f"{what} has shape {x.shape}; the model takes rows of width {width}")
    return check_finite(x, what)


# ---------------------------------------------------------------------------
# trained model container
# ---------------------------------------------------------------------------

@dataclass
class Graph2TS:
    """A trained (or freshly initialized) model: config, weights, boundaries."""

    config: TrainConfig
    params: dict[str, np.ndarray]
    boundaries: QuantileBoundaries
    best_epoch: int = -1

    def _leaves(self, tape: Tape) -> dict[str, Var]:
        return {k: tape.leaf(v) for k, v in self.params.items()}

    def ts_embeddings(self, windows: np.ndarray) -> np.ndarray:
        x = _rows(windows, self.config.window_length, "window set")
        tape = Tape(record=False)
        p = self._leaves(tape)
        return encode_ts(p, tape.leaf(x)).value

    def _conditioning(self, graphs: np.ndarray) -> np.ndarray:
        return conditioning_graphs(self.config, _rows(graphs, self.config.graph_dim, "graph set"))

    def generate(self, graphs: np.ndarray, n_per_graph: int = 1, seed: int = 0) -> np.ndarray:
        """Sample n_per_graph windows per conditioning graph.

        The full model draws independent latents per sample; the deterministic
        variant decodes each graph once and repeats the result (its output is
        invariant to the seed by construction).

        The graphs are encoded in one pass, then decoded in blocks of whole
        graphs of about ``_GENERATE_BLOCK_ROWS`` rows, with each block's
        latents drawn in turn from one generator (the same stream as one
        draw). The graphs are split evenly so that no block is a single row:
        with OpenBLAS, a product over >= 2 rows gave the same bytes as those
        rows of one full-size product for every layer shape tried, while a
        one-row product takes gemv and may round differently.

        Two arrays serve every block of a call: the decoder input, whose left
        columns take each graph's embedding by broadcast and whose right
        columns take the latents, and the result, into whose rows each
        block's decoded windows are copied.
        """
        if n_per_graph < 1:
            raise ValueError("n_per_graph must be positive")
        g = self._conditioning(graphs)
        tape = Tape(record=False)
        p = self._leaves(tape)
        g_raw = encode_graph(p, tape.leaf(g))
        if self.config.variant == "deterministic":
            out = decode(p, _decoder_input(g_raw, None, "deterministic")).value
            return np.repeat(out, n_per_graph, axis=0)
        rng = np.random.default_rng(seed)
        n_graphs, embed = g_raw.value.shape
        latent = self.config.latent_dim
        rows = n_graphs * n_per_graph
        # at most one block per graph, and >= 2 rows per block unless rows == 1
        n_blocks = max(1, min(-(-rows // _GENERATE_BLOCK_ROWS), n_graphs, rows // 2))
        parts = np.array_split(g_raw.value, n_blocks)
        most = parts[0].shape[0]  # array_split puts the larger parts first
        inp = np.empty((most, n_per_graph, embed + latent))
        result = np.empty((rows, self.config.window_length))
        lo = 0
        for part in parts:
            nb = part.shape[0]
            n = nb * n_per_graph
            inp[:nb, :, :embed] = part[:, None, :]
            inp[:nb, :, embed:] = rng.standard_normal((nb, n_per_graph, latent))
            x = tape.leaf(inp[:nb].reshape(n, embed + latent))
            result[lo : lo + n] = decode(p, x).value
            lo += n
        return result


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(config: TrainConfig, data: DatasetSplit) -> tuple[Graph2TS, list[LossBreakdown]]:
    """Seeded full training run; returns the best checkpoint and per-epoch log.

    Per epoch the train windows are reshuffled, minibatches are stepped with
    Adam, and the sample-weighted epoch mean of the objective (with that
    epoch's annealed beta) is logged. The returned parameters are the end-of-
    epoch snapshot from the epoch with the lowest logged mean total; a
    snapshot holding NaN/Inf raises RuntimeError.
    """
    x_train = np.asarray(data.train, dtype=np.float64)
    if x_train.size == 0:
        raise ValueError("empty training split")
    if x_train.shape[1] != config.window_length:
        raise ValueError(f"windows have length {x_train.shape[1]}, config "
                         f"window_length is {config.window_length}")

    bounds = fit_boundaries(x_train.ravel(), config.n_states)
    graphs = conditioning_graphs(config, windows_to_graphs(x_train, bounds))

    rng = np.random.default_rng(config.seed)
    store = ParamStore(init_params(config, rng))
    n = x_train.shape[0]
    log: list[LossBreakdown] = []
    best_total = np.inf
    best_params = store.copy_params()
    best_epoch = -1

    for epoch in range(config.epochs):
        beta = beta_schedule(epoch, config.kl_warmup_epochs, config.beta_max)
        order = rng.permutation(n)
        sums = np.zeros(5)  # align, recon, dist, kl, total
        for b_idx, lo in enumerate(range(0, n, config.batch_size)):
            idx = order[lo : lo + config.batch_size]
            x = x_train[idx]
            g = graphs[idx]
            eps = None
            if config.variant != "deterministic":
                eps = rng.standard_normal((idx.size, config.latent_dim))
            tape = Tape()
            leaves = {k: tape.leaf(v) for k, v in store.params.items()}
            try:
                total, parts = batch_objective(leaves, x, g, eps, config, beta)
                tape.backward(total)
                adam_step(store, {k: leaves[k].grad for k in store.params}, config.lr)
            except FloatingPointError as err:
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, batch {b_idx}: {err}"
                ) from err
            sums += idx.size * np.array(
                [parts.align, parts.recon, parts.dist, parts.kl, parts.total]
            )
        means = sums / n
        entry = LossBreakdown(
            align=float(means[0]), recon=float(means[1]), dist=float(means[2]),
            kl=float(means[3]), beta=beta, total=float(means[4]),
        )
        log.append(entry)
        if entry.total < best_total:
            best_total = entry.total
            best_params = store.copy_params()
            best_epoch = epoch
            bad = [k for k, v in best_params.items() if not np.isfinite(v).all()]
            if bad:  # the epoch's last update comes after its loss was measured
                raise RuntimeError(f"parameter '{bad[0]}' is non-finite after epoch {epoch}")

    model = Graph2TS(config=config, params=best_params, boundaries=bounds,
                     best_epoch=best_epoch)
    return model, log
