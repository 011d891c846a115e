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
Training runs the stages below on an autodiff tape; inference and the gradient
oracle ``objective_value`` run the plain-numpy block ``_block``, with no tape.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .dataset import DatasetSplit, all_finite, as_rows
from .optim import ParamStore, adam_step
from .quantile_graph import (
    MIN_STATES,
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

# generate and ts_embeddings work on ~this many output rows at a time: a
# block's decoder input (1024 x (embed_dim + latent_dim) float64) is 1.3 MB at
# the defaults, and a call's working memory a few such buffers at any size
_BLOCK_ROWS = 1024

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
        for names, ok, rule in (
            (("window_length", "embed_dim", "latent_dim", "batch_size", "epochs"),
             lambda v: v >= 1, "must be positive"),
            (("n_states",), lambda v: v >= MIN_STATES, f"must be at least {MIN_STATES}"),
            (("w_align", "w_recon", "w_dist", "beta_max", "lr"),  # NaN fails every comparison
             lambda v: 0 <= v < np.inf, "must be finite and non-negative"),
            (("kl_warmup_epochs", "seed"), lambda v: v >= 0, "must be non-negative"),
            (("variant",), lambda v: v in VARIANTS, f"must be one of {VARIANTS}"),
        ):
            for name in names:
                if not ok(getattr(self, name)):
                    raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")

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


def decode(p: dict[str, Var], inp: Var) -> Var:
    """Windows from the raw graph embedding beside the latent, or for
    ``deterministic`` the normalized graph embedding alone; linear output layer."""
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
    tape = p["log_temp"].tape  # inputs join as leaves on the parameters' tape
    t_raw = encode_ts(p, tape.leaf(x))
    g_raw = encode_graph(p, tape.leaf(graphs))
    align = loss_align(t_raw, g_raw, p["log_temp"])
    if config.variant == "deterministic":
        x_hat = decode(p, ad.l2_normalize_rows(g_raw))
        kl = None
    else:
        mu, logvar = posterior(p, t_raw, g_raw, config.latent_dim)
        z = reparameterize(mu, logvar, eps)
        x_hat = decode(p, ad.concat_cols(g_raw, z))
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


def _block(params: dict[str, np.ndarray], prefix: str, x: np.ndarray) -> np.ndarray:
    """relu(x @ w1 + b1) @ w2 + b2 on block ``prefix``'s weights in plain numpy,
    by the steps of ``ad.mlp2``'s forward (so the same bytes); a non-finite
    pre-activation or output raises FloatingPointError naming the block."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are raised below
        h = x @ params[f"{prefix}.w1"]
        h += params[f"{prefix}.b1"]
        finite = all_finite(h)  # before the ReLU, which maps -inf to 0
        np.maximum(h, 0.0, out=h)
        y = h @ params[f"{prefix}.w2"]
        y += params[f"{prefix}.b2"]
        if not (finite and all_finite(y)):
            raise FloatingPointError(f"non-finite value in block '{prefix}'")
    return y


def _l2n(v: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm, as ``ad.l2_normalize_rows`` computes them."""
    return v / np.maximum(np.sqrt((v * v).sum(axis=1, keepdims=True)), ad.NORM_EPS)


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
    def lse_rows(v: np.ndarray) -> np.ndarray:
        m = v.max(axis=1, keepdims=True)
        return (m + np.log(np.exp(v - m).sum(axis=1, keepdims=True)))[:, 0]

    t_raw = _block(params, "ts_enc", x)
    g_raw = _block(params, "g_enc", graphs)
    s = (_l2n(t_raw) @ _l2n(g_raw).T) * np.exp(-params["log_temp"][0, 0])
    diag = np.diagonal(s)
    align = 0.5 * ((lse_rows(s) - diag).mean() + (lse_rows(s.T) - diag).mean())

    if config.variant == "deterministic":
        x_hat = _block(params, "dec", _l2n(g_raw))
        kl = 0.0
    else:
        post = _block(params, "post", np.hstack([t_raw, g_raw]))
        mu = post[:, : config.latent_dim]
        logvar = np.clip(post[:, config.latent_dim :], LOGVAR_MIN, LOGVAR_MAX)
        z = mu + np.exp(0.5 * logvar) * eps
        x_hat = _block(params, "dec", np.hstack([g_raw, z]))
        kl = 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar).sum() / x.shape[0]

    recon = ((x_hat - x) ** 2).mean()
    dist = ((np.sort(x_hat, axis=1) - np.sort(x, axis=1)) ** 2).mean()
    return (
        config.w_align * align
        + config.w_recon * recon
        + config.w_dist * dist
        + beta * kl
    )


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

    def ts_embeddings(self, windows: np.ndarray) -> np.ndarray:
        """Raw window embeddings, encoded over the blocks that ``_spans`` gives,
        with the bytes of one whole-set pass."""
        x = as_rows(windows, "window set", self.config.window_length)
        result = np.empty((x.shape[0], self.config.embed_dim))
        for lo, hi in _spans(x.shape[0]):
            result[lo:hi] = _block(self.params, "ts_enc", x[lo:hi])
        return result

    def generate(self, graphs: np.ndarray, n_per_graph: int = 1, seed: int = 0) -> np.ndarray:
        """Sample n_per_graph windows per conditioning graph.

        The full model draws independent latents per sample; the deterministic
        variant decodes each graph once and repeats the result (its output is
        invariant to the seed by construction).

        One loop serves every variant, over the blocks of whole graphs that
        ``_spans`` gives: each block applies ``conditioning_graphs`` to its
        graphs, encodes them, draws its latents in turn from one generator
        (the same stream as one draw) and decodes into its rows of the result.
        A block of one graph out of several encodes it (and for
        ``deterministic`` decodes it) beside a neighbouring graph and keeps
        only its own row, so the output is byte-identical to one whole-set pass.
        """
        if n_per_graph < 1:
            raise ValueError("n_per_graph must be positive")
        g = as_rows(graphs, "graph set", self.config.graph_dim)
        p = self.params
        rng = np.random.default_rng(seed)
        n_graphs = g.shape[0]
        embed, latent = self.config.embed_dim, self.config.latent_dim
        result = np.empty((n_graphs * n_per_graph, self.config.window_length))
        spans = _spans(n_graphs, n_per_graph)
        most = max((hi - lo for lo, hi in spans), default=0)  # graphs in the largest block
        inp = None if self.config.variant == "deterministic" else np.empty(
            (most, n_per_graph, embed + latent))
        for lo, hi in spans:
            nb = hi - lo
            # a lone graph is encoded beside a neighbour, then dropped
            a = max(0, min(lo, n_graphs - 2))
            b = min(max(hi, a + 2), n_graphs)
            g_raw = _block(p, "g_enc", conditioning_graphs(self.config, g[a:b]))
            out = result[lo * n_per_graph : hi * n_per_graph]
            if inp is None:  # deterministic: no latent, one decode per graph
                dec = _block(p, "dec", _l2n(g_raw))
                out.reshape(nb, n_per_graph, -1)[:] = dec[lo - a : hi - a, None, :]
            else:
                inp[:nb, :, :embed] = g_raw[lo - a : hi - a, None, :]
                inp[:nb, :, embed:] = rng.standard_normal((nb, n_per_graph, latent))
                out[:] = _block(p, "dec", inp[:nb].reshape(nb * n_per_graph, -1))
        return result


def _spans(n: int, per_item: int = 1) -> list[tuple[int, int]]:
    """An even split of ``n`` items of ``per_item`` output rows each into spans
    of about ``_BLOCK_ROWS`` rows, at most one per item. No span is one row
    unless there is one row in all: with OpenBLAS, a product over >= 2 rows
    gave the same bytes as those rows of one whole-set product for every layer
    shape tried, while a one-row product takes gemv and may round differently."""
    rows = n * per_item
    k = min(-(-rows // _BLOCK_ROWS), n, max(1, rows // 2))
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


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
    x_train = as_rows(data.train, "training split", config.window_length)
    if x_train.size == 0:
        raise ValueError("empty training split")

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
            try:  # every op output and gradient is guarded, so numpy need not warn
                with np.errstate(over="ignore", invalid="ignore"):
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
            bad = [k for k, v in best_params.items() if not all_finite(v)]
            if bad:  # the epoch's last update comes after its loss was measured
                raise RuntimeError(f"parameter '{bad[0]}' is non-finite after epoch {epoch}")

    model = Graph2TS(config=config, params=best_params, boundaries=bounds,
                     best_epoch=best_epoch)
    return model, log
