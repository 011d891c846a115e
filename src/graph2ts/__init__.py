"""Structure-conditioned time-series generation from quantile transition graphs."""

from .dataset import (
    DatasetSplit,
    NormStats,
    load_series,
    make_windows,
    split,
    synth_generate,
    zscore_fit_apply,
)
from .metrics import MetricsReport, TailStats, evaluate, tail_stats
from .model import Graph2TS, LossBreakdown, TrainConfig, train
from .quantile_graph import (
    QuantileBoundaries,
    discretize,
    fit_boundaries,
    graph_distance,
    identity_graph,
    windows_to_graphs,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetSplit",
    "Graph2TS",
    "LossBreakdown",
    "MetricsReport",
    "NormStats",
    "QuantileBoundaries",
    "TailStats",
    "TrainConfig",
    "discretize",
    "evaluate",
    "fit_boundaries",
    "graph_distance",
    "identity_graph",
    "load_series",
    "make_windows",
    "split",
    "synth_generate",
    "tail_stats",
    "train",
    "windows_to_graphs",
    "zscore_fit_apply",
    "__version__",
]
