"""Losses, the stage-list network container, and full-batch gradient descent.

Training follows one regime everywhere: the loss is summed over the whole
training set and one gradient step is taken per epoch.  Runs that end below
100% training accuracy can be restarted from fresh weights up to a cap;
every restart redraws parameters from the run's own random stream, so a
given seed always produces the same sequence of attempts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from symnet.layers import Softmax
from symnet.ndcore import SeededRng, ShapeError, softmax

PROB_FLOOR = 1e-12


def squared_error(predictions, targets) -> tuple[float, np.ndarray]:
    """loss = sum((p - t)^2) over every output; gradient 2 (p - t)."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"squared_error: predictions {p.shape} vs targets {t.shape}")
    diff = p - t
    return float(np.sum(diff * diff)), 2.0 * diff


def cross_entropy(probabilities, targets) -> tuple[float, np.ndarray]:
    """loss = -sum(t * log p) with p floored at 1e-12.

    The returned gradient is taken with respect to the logits feeding the
    softmax that produced ``probabilities`` (the two derivatives cancel to
    p - t), so backpropagation must start below the softmax.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"cross_entropy: probabilities {p.shape} vs targets {t.shape}")
    loss = -float(np.sum(t * np.log(np.maximum(p, PROB_FLOOR))))
    return loss, p - t


def softmax_cross_entropy(logits, targets) -> tuple[float, np.ndarray]:
    """cross_entropy of softmax(logits); the gradient is at the logits."""
    return cross_entropy(softmax(logits, axis=-1), targets)


# Every loss takes the network's trained output and returns (loss, gradient
# at that output).  Cross-entropy nets train on logits; see Network.head.
LOSSES = {"squared_error": squared_error, "cross_entropy": softmax_cross_entropy}


def _data_arrays(data) -> tuple[np.ndarray, np.ndarray]:
    """Accepts a dataset split (anything with .inputs/.targets) or a plain
    (inputs, targets) pair and returns the two stacked arrays."""
    if hasattr(data, "inputs") and hasattr(data, "targets"):
        inputs, targets = data.inputs, data.targets
    else:
        inputs, targets = data
    return np.asarray(inputs, dtype=np.float64), np.asarray(targets, dtype=np.float64)


class Network:
    """A straight pipeline of stages applied in order, trained on ``loss``.

    Parameters live on the stages with non-empty ``params``.  The stages
    end at the output the loss sees; a cross-entropy network's stages end
    at logits and ``predict`` adds a Softmax head.  ``backward_pass``
    returns one gradient record per parametric stage, in forward order,
    with gradients already summed over the batch.
    """

    def __init__(self, stages, architecture: str | None = None, loss: str = "squared_error"):
        self.stages = list(stages)
        self.architecture = architecture
        self.loss = loss
        if not self.stages:
            raise ValueError("network needs at least one stage")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(LOSSES)}")
        self.head = Softmax() if loss == "cross_entropy" else None

    @property
    def parametric_stages(self) -> list:
        return [s for s in self.stages if s.params]

    def parameter_count(self) -> int:
        return sum(getattr(stage, name).size for stage in self.stages for name in stage.params)

    def reinitialize(self, rng: SeededRng, half_width: float = 0.5) -> None:
        """Redraws every parametric stage, in forward order, from ``rng``."""
        for stage in self.parametric_stages:
            stage.reinitialize(rng, half_width)

    def forward_pass(self, x) -> tuple[np.ndarray, list]:
        """Returns the output the loss sees and one cache per stage."""
        value = np.asarray(x, dtype=np.float64)
        caches = []
        for stage in self.stages:
            value, cache = stage.step(value)
            caches.append(cache)
        return value, caches

    def predict(self, x) -> np.ndarray:
        y = self.forward_pass(x)[0]
        return y if self.head is None else self.head.forward(y)

    def backward_pass(self, caches: list, upstream) -> list:
        """Walks the stages in reverse, chaining input gradients from the
        gradient at the output of ``forward_pass``."""
        if len(caches) != len(self.stages):
            raise ValueError(f"expected {len(self.stages)} caches, got {len(caches)}")
        grad = np.asarray(upstream, dtype=np.float64)
        collected = []
        for stage, cache in zip(reversed(self.stages), reversed(caches)):
            grad, record = stage.backprop(cache, grad)
            if record is not None:
                collected.append(record)
        collected.reverse()
        return collected


def gd_step(network: Network, gradients: list, learning_rate: float) -> Network:
    """Applies one plain gradient-descent update to every parametric stage,
    reading each parameter's gradient from its record's ``d_<name>``."""
    stages = network.parametric_stages
    if len(gradients) != len(stages):
        raise ValueError(f"got {len(gradients)} gradient records for {len(stages)} parametric stages")
    for stage, record in zip(stages, gradients):
        for name in stage.params:
            value, grad = getattr(stage, name), getattr(record, f"d_{name}")
            if grad.shape != value.shape:
                raise ShapeError(f"gradient d_{name} shape {grad.shape} does not match parameter {value.shape}")
            setattr(stage, name, value - learning_rate * grad)
    return network


def discretise(outputs, cutoff: float = 0.5) -> np.ndarray:
    """Thresholds activations to 0/1 bits; values at the cutoff count as 1."""
    arr = np.asarray(outputs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return (arr >= cutoff).astype(np.float64)


def evaluate(network: Network, data, cutoff: float = 0.5) -> float:
    """Exact-match accuracy: an instance counts only if every discretised
    output equals the target bit.  Non-finite outputs never count.

    ``data`` is a dataset split or an (inputs, targets) pair.
    """
    inputs, t = _data_arrays(data)
    preds = network.predict(inputs)
    if preds.shape != t.shape:
        raise ShapeError(f"evaluate: predictions {preds.shape} vs targets {t.shape}")
    if t.shape[0] == 0:
        raise ValueError("evaluate: empty instance set")
    bits = discretise(preds, cutoff)
    instance_axes = tuple(range(1, t.ndim))
    hit = np.all(bits == t, axis=instance_axes) & np.all(np.isfinite(preds), axis=instance_axes)
    return float(np.count_nonzero(hit)) / float(t.shape[0])


@dataclass
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 1.0
    max_restarts: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass(eq=False)
class TrainResult:
    losses: list[float] = field(default_factory=list)  # per-epoch, last attempt only
    restarts: int = 0
    reached_criterion: bool = False  # 100% training accuracy
    final_loss: float = math.nan


def train(network: Network, data, config: TrainConfig, rng: SeededRng | None = None) -> TrainResult:
    """Full-batch gradient descent with restart-on-failure.

    Each attempt runs ``config.epochs`` epochs; one update per epoch on the
    loss summed over all instances.  An attempt that ends with training
    accuracy below 100% (or whose loss stops being finite) is retried from
    freshly drawn weights, at most ``config.max_restarts`` times.  ``rng``
    is only needed when restarts are allowed; ``data`` is a dataset split
    or an (inputs, targets) pair.  The network is trained in place, on its
    own loss.
    """
    inputs, targets = _data_arrays(data)
    if inputs.shape[0] == 0:
        raise ValueError("train: empty instance set")
    if config.max_restarts > 0 and rng is None:
        raise ValueError("restarts need an rng to redraw weights")
    loss_fn = LOSSES[network.loss]

    for attempt in range(config.max_restarts + 1):
        if attempt > 0:
            network.reinitialize(rng)
        losses: list[float] = []
        diverged = False
        for _ in range(config.epochs):
            outputs, caches = network.forward_pass(inputs)
            loss, d_out = loss_fn(outputs, targets)
            losses.append(loss)
            if not math.isfinite(loss):
                diverged = True
                break
            gd_step(network, network.backward_pass(caches, d_out), config.learning_rate)
        if diverged:
            final_loss = losses[-1]
            reached = False
        else:
            final_loss = loss_fn(network.forward_pass(inputs)[0], targets)[0]
            reached = evaluate(network, (inputs, targets)) == 1.0
        if reached or attempt == config.max_restarts:
            return TrainResult(losses=losses, restarts=attempt, reached_criterion=reached, final_loss=final_loss)
    raise AssertionError("unreachable")


@dataclass
class RunReport:
    """One training run as reported by the experiment harness."""

    experiment: str
    architecture: str
    run_index: int
    seed: int
    restarts: int
    train_accuracy: float
    test_accuracy: float
    final_loss: float
    failed: bool = False  # never reached 100% training accuracy
