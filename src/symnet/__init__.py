"""Tiny seeded neural-net library and experiment harness.

Two generalisation tasks where test inputs activate input units that were
never active during training: copying 5-digit binary numbers (trained on
even numbers, tested on odd ones) and classifying three-word sequences as
ABA or ABB (tested on held-out words).  Each task is run with an
unconstrained dense network and with a weight-shared convolutional one,
over many seeded training runs, and the per-run accuracies are aggregated
into CSV / JSON / Markdown reports.
"""

__version__ = "0.1.0"

from symnet.ndcore import SeededRng, ShapeError, derive_seed, init_uniform, sigmoid, softmax
from symnet.layers import Conv1DLayer, DenseLayer, GlobalMaxPool, Reshape, Sigmoid, Softmax, Transpose
from symnet.training import Network, TrainConfig, cross_entropy, evaluate, gd_step, squared_error, train
from symnet.tasks import Dataset, encode_sequence, make_identity_dataset, make_rule_dataset
from symnet.harness import ExperimentSpec, RunReport, build_network, parse_cli, run_experiment

__all__ = [
    "SeededRng", "ShapeError", "derive_seed", "init_uniform", "sigmoid", "softmax",
    "Conv1DLayer", "DenseLayer", "GlobalMaxPool", "Reshape", "Sigmoid", "Softmax", "Transpose",
    "Network", "TrainConfig", "cross_entropy", "evaluate", "gd_step", "squared_error", "train",
    "Dataset", "encode_sequence", "make_identity_dataset", "make_rule_dataset",
    "ExperimentSpec", "RunReport", "build_network", "parse_cli", "run_experiment",
    "__version__",
]
