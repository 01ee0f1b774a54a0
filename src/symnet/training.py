"""Losses, the stage-list network container, and full-batch gradient descent.

Training follows one regime everywhere: the loss is summed over the whole
training set and one gradient step is taken per epoch.  Runs that end below
100% training accuracy can be restarted from fresh weights up to a cap;
every restart redraws parameters from the run's own random stream, so a
given seed always produces the same sequence of attempts.

Many runs train at once as an ensemble: a network whose parameters carry
a leading run axis (see ``symnet.layers``), driven through one numpy call
per stage per epoch.  Losses and accuracies then come back per member, and
a plain network trains as an ensemble of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from symnet.layers import Softmax
from symnet.ndcore import ShapeError, check_integer, softmax

PROB_FLOOR = 1e-12
CUTOFF = 0.5  # discretise's threshold; outputs at it count as 1


def _runs(p: np.ndarray, t: np.ndarray, what: str) -> int | None:
    """None when ``p`` matches ``t``; the run count when ``p`` holds one
    output per run of an ensemble, ``(runs, *t.shape)``."""
    if p.shape == t.shape:
        return None
    if p.shape[1:] == t.shape:
        return p.shape[0]
    raise ShapeError(f"{what}: outputs {p.shape} vs targets {t.shape}")


def _total(values: np.ndarray, runs: int | None) -> float | np.ndarray:
    """Sums every value, or each run's values when ``runs`` is set.  A run's
    values form one contiguous row, so numpy sums them exactly as it sums
    a plain network's outputs."""
    if runs is None:
        return float(np.sum(values))
    return np.add.reduce(values.reshape(runs, -1), axis=-1)


def squared_error(predictions, targets) -> tuple[float, np.ndarray]:
    """loss = sum((p - t)^2) over every output; gradient 2 (p - t).

    Predictions with a leading run axis give one loss per run.
    """
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    runs = _runs(p, t, "squared_error")
    diff = p - t
    return _total(diff * diff, runs), 2.0 * diff


def cross_entropy(probabilities, targets) -> tuple[float, np.ndarray]:
    """loss = -sum(t * log p) with p floored at 1e-12.

    The returned gradient is taken with respect to the logits feeding the
    softmax that produced ``probabilities`` (the two derivatives cancel to
    p - t), so backpropagation must start below the softmax.
    Probabilities with a leading run axis give one loss per run.
    """
    return _cross_entropy(np.asarray(probabilities, dtype=np.float64), np.asarray(targets, dtype=np.float64))


def _cross_entropy(p: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
    runs = _runs(p, t, "cross_entropy")
    return -_total(t * np.log(np.maximum(p, PROB_FLOOR)), runs), p - t


def softmax_cross_entropy(logits, targets) -> tuple[float, np.ndarray]:
    """cross_entropy of softmax(logits); the gradient is at the logits."""
    return _cross_entropy(softmax(logits), np.asarray(targets, dtype=np.float64))


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

    ``Network.stack`` turns networks of one architecture into an ensemble,
    whose parameters carry a leading run axis of ``runs`` members;
    ``select`` and ``put`` read and write members along that axis.
    """

    def __init__(self, stages, loss: str = "squared_error"):
        self.stages = tuple(stages)  # fixed, so the facts below, looked up once, never go stale
        self.loss = loss
        if not self.stages:
            raise ValueError("network needs at least one stage")
        if loss not in LOSSES:
            raise ValueError(f"unknown loss {loss!r}; expected one of {sorted(LOSSES)}")
        self.head = Softmax() if loss == "cross_entropy" else None
        self.parametric_stages = tuple(stage for stage in self.stages if stage.params)
        # the index of the first stage with parameters, or len(stages) if none has any
        self.first_parametric = next((i for i, stage in enumerate(self.stages) if stage.params), len(self.stages))

    @property
    def runs(self) -> int | None:
        """Members along the parameters' run axis, or None for a plain network."""
        stages = self.parametric_stages
        return stages[0].runs if stages else None

    def reinitialize(self, rng) -> None:
        """Redraws every parametric stage, in forward order, from one
        SeededRng.  An ensemble is refused: redraw its ``select``ed members."""
        for stage in self.parametric_stages:
            stage.reinitialize(rng)

    def _mapped(self, arrays) -> "Network":
        """A network of the same stages, where stage ``i`` holds
        ``arrays(i, name)`` in place of each of its parameters."""
        stages = [
            stage.with_params(**{name: arrays(i, name) for name in stage.params}) if stage.params else stage
            for i, stage in enumerate(self.stages)
        ]
        return Network(stages, self.loss)

    @staticmethod
    def stack(networks) -> "Network":
        """The ensemble whose member r is ``networks[r]``; all of them share
        the first one's architecture."""
        return networks[0]._mapped(lambda i, name: np.stack([getattr(n.stages[i], name) for n in networks]))

    def select(self, members) -> "Network":
        """The ensemble's members picked by ``members`` along the run axis:
        an index array gives a smaller ensemble, an int one plain network."""
        return self._mapped(lambda i, name: getattr(self.stages[i], name)[members])

    def put(self, members, source: "Network") -> None:
        """Writes ``source``, as taken by ``select(members)``, back into
        those members; with ``members=...`` it replaces every parameter."""
        for stage, src in zip(self.parametric_stages, source.parametric_stages):
            for name in stage.params:
                value = getattr(stage, name).copy()
                value[members] = getattr(src, name)
                setattr(stage, name, value)

    def forward_pass(self, x) -> tuple[np.ndarray, list]:
        """Returns the output the loss sees and one cache per stage.  Each
        stage validates its own input, so ``x`` is whatever the first takes."""
        value = x
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
        gradient at the output of ``forward_pass``, and stops at the first
        parametric stage: that stage forms its parameter gradients alone,
        never its input gradient, and the parameter-free stages in front
        of it never run ``backprop``, since nothing reads what they return."""
        if len(caches) != len(self.stages):
            raise ValueError(f"expected {len(self.stages)} caches, got {len(caches)}")
        first, grad, collected = self.first_parametric, upstream, []  # each stage converts its own upstream
        for stage, cache in zip(self.stages[:first:-1], caches[:first:-1]):
            grad, record = stage.backprop(cache, grad)
            if record is not None:
                collected.append(record)
        if first < len(self.stages):
            collected.append(self.stages[first].backprop(caches[first], grad, input_grad=False)[1])
        collected.reverse()
        return collected


def gd_step(network: Network, gradients: list, learning_rate: float) -> Network:
    """Applies one plain gradient-descent update to every parametric stage,
    reading each parameter's gradient from its record's ``d_<name>``, as
    the stage's ``updates`` pairs them."""
    stages = network.parametric_stages
    if len(gradients) != len(stages):
        raise ValueError(f"got {len(gradients)} gradient records for {len(stages)} parametric stages")
    for stage, record in zip(stages, gradients):
        for name, grad_name in stage.updates:
            value, grad = getattr(stage, name), getattr(record, grad_name)
            if grad.shape != value.shape:
                raise ShapeError(f"gradient {grad_name} shape {grad.shape} does not match parameter {value.shape}")
            setattr(stage, name, value - learning_rate * grad)
    return network


def discretise(outputs) -> np.ndarray:
    """Thresholds activations to 0/1 bits; values at ``CUTOFF`` count as 1."""
    arr = np.asarray(outputs, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return (arr >= CUTOFF).astype(np.float64)


def evaluate(network: Network, data) -> float | np.ndarray:
    """Exact-match accuracy: an instance counts only if every discretised
    output equals the target bit.  Non-finite outputs never count.

    ``data`` is a dataset split or an (inputs, targets) pair.  Returns a
    float, or for an ensemble an array with one accuracy per member.
    """
    inputs, t = _data_arrays(data)
    with np.errstate(over="ignore", invalid="ignore"):
        preds = network.predict(inputs)
    runs = _runs(preds, t, "evaluate")
    if t.shape[0] == 0:
        raise ValueError("evaluate: empty instance set")
    instance_axes = tuple(range(-t.ndim + 1, 0))
    hit = np.all(discretise(preds) == t, axis=instance_axes) & np.all(np.isfinite(preds), axis=instance_axes)
    return _total(hit, runs) / t.shape[0]


@dataclass(kw_only=True)
class TrainConfig:
    # no default rate or restart budget: each experiment's own live in the harness
    epochs: int = 1000
    learning_rate: float
    max_restarts: int

    def __post_init__(self):
        check_integer("epochs", self.epochs, 1)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        check_integer("max_restarts", self.max_restarts, 0)


@dataclass(eq=False)
class TrainResult:
    losses: list[float] = field(default_factory=list)  # per-epoch, last attempt only
    restarts: int = 0
    reached_criterion: bool = False  # 100% training accuracy
    final_loss: float = math.nan


def train(network: Network, data, config: TrainConfig, rng=None) -> TrainResult | list[TrainResult]:
    """Full-batch gradient descent with restart-on-failure.

    Each attempt runs ``config.epochs`` epochs; one update per epoch on the
    loss summed over all instances.  An attempt that ends with training
    accuracy below 100% (or whose loss stops being finite) is retried from
    freshly drawn weights, at most ``config.max_restarts`` times.  ``rng``
    is only needed when restarts are allowed; ``data`` is a dataset split
    or an (inputs, targets) pair.  The network is trained in place, on its
    own loss, and a TrainResult comes back.

    An ensemble (a network with a run axis) trains every member at once and
    returns one TrainResult per member; ``rng`` then holds one SeededRng per
    member.  Attempt k retrains only the members whose attempt k-1 failed,
    each redrawn from its own rng, and a member whose loss stops being
    finite is frozen while the others train on.  A plain network trains as
    an ensemble of one, so both give the same numbers bit for bit.
    """
    inputs, targets = _data_arrays(data)
    if inputs.shape[0] == 0:
        raise ValueError("train: empty instance set")
    if network.runs is not None:
        return _train_ensemble(network, inputs, targets, config, rng)
    ensemble = Network.stack([network])
    result = _train_ensemble(ensemble, inputs, targets, config, [rng])[0]
    network.put(..., ensemble.select(0))
    return result


@np.errstate(over="ignore", invalid="ignore")  # a diverging member is frozen and reported as failed
def _train_ensemble(network: Network, inputs, targets, config: TrainConfig, rngs) -> list[TrainResult]:
    runs = network.runs
    if config.max_restarts > 0 and (rngs is None or any(rng is None for rng in rngs)):
        raise ValueError("restarts need an rng per run to redraw weights")
    if rngs is not None and len(rngs) != runs:
        raise ValueError(f"got {len(rngs)} rngs for {runs} runs")
    loss_fn = LOSSES[network.loss]
    # every epoch of every attempt sees the same input, so the parameter-free
    # stages in front of the first parametric one run, and it prepares, once
    first = network.first_parametric
    trunk_input = inputs
    for stage in network.stages[:first]:
        trunk_input = stage.forward(trunk_input)
    trunk_input = network.stages[first].prepare(trunk_input)
    results: list[TrainResult | None] = [None] * runs
    pending = np.arange(runs)
    for attempt in range(config.max_restarts + 1):
        if attempt == 0:
            members = network
        else:
            redrawn = [network.select(i) for i in pending]
            for i, member in zip(pending, redrawn):
                member.reinitialize(rngs[i])
            members = Network.stack(redrawn)
        trunk = Network(members.stages[first:], members.loss)
        losses = _descend(trunk, trunk_input, targets, config, loss_fn)
        # a member whose last loss is not finite diverged, and keeps that loss
        last = np.array([member_losses[-1] for member_losses in losses])
        finite_last = np.isfinite(last)
        final_loss = np.where(finite_last, loss_fn(trunk.forward_pass(trunk_input)[0], targets)[0], last)
        reached = finite_last & (evaluate(members, (inputs, targets)) == 1.0)
        if attempt > 0:
            network.put(pending, members)
        for j, i in enumerate(pending):
            results[i] = TrainResult(losses[j], attempt, bool(reached[j]), float(final_loss[j]))
        pending = pending[~reached]
        if not pending.size:
            break
    return results


def _descend(network: Network, inputs, targets, config: TrainConfig, loss_fn) -> list[list[float]]:
    """Runs one attempt's epochs on every member of ``network`` in place and
    returns each member's per-epoch losses.  ``network`` starts at its first
    parametric stage, and ``inputs`` is what that stage's ``prepare`` made.
    A member whose loss stops being finite keeps the weights that produced
    that loss, which ends its list: from then on its gradients are zeroed,
    so it stays frozen in place while the others train on.
    """
    table = np.empty((config.epochs, network.runs))
    stop = np.full(network.runs, config.epochs)
    for epoch in range(config.epochs):
        outputs, caches = network.forward_pass(inputs)
        loss, d_out = loss_fn(outputs, targets)
        table[epoch] = loss
        gradients = network.backward_pass(caches, d_out)
        # the members' summed loss is finite whenever each one is, so only a
        # non-finite (or overflowing) sum pays for the per-member check
        if not math.isfinite(np.add.reduce(loss)):
            finite = np.isfinite(loss)
            stop[~finite & (stop > epoch)] = epoch + 1
            if not finite.any():
                break
            for stage, record in zip(network.parametric_stages, gradients):
                for _, grad_name in stage.updates:
                    getattr(record, grad_name)[~finite] = 0.0
        gd_step(network, gradients, config.learning_rate)
    return [table[:n, r].tolist() for r, n in enumerate(stop)]
