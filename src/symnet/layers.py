"""Forward and backward passes for the layer kinds used by both tasks.

Shape conventions: dense activations are ``(units,)`` or ``(batch, units)``;
convolution and pooling activations are ``(channels, positions)`` or
``(batch, channels, positions)``.  Every ``backward`` takes the same input
it saw in ``forward`` plus the upstream gradient and returns gradients whose
shapes mirror the parameters / input exactly.  Layers hold their parameters
but never mutate them during forward/backward; updates happen in
``training.gd_step``.  Networks drive every stage through the one
protocol that ``Stage`` defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from symnet.ndcore import SeededRng, ShapeError, init_uniform, sigmoid, softmax, tensor

PADDING_SAME = "zero_same"
PADDING_NONE = "none"


def _as_batch(x, inner_ndim: int, what: str) -> tuple[np.ndarray, bool]:
    """Promote a single instance to a batch of one; report which it was."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == inner_ndim:
        return arr[None, ...], True
    if arr.ndim == inner_ndim + 1:
        return arr, False
    raise ShapeError(f"{what}: expected {inner_ndim}-D instance or {inner_ndim + 1}-D batch, got shape {arr.shape}")


@dataclass
class DenseGradients:
    d_weights: np.ndarray
    d_bias: np.ndarray
    d_input: np.ndarray


@dataclass
class ConvGradients:
    d_filters: np.ndarray
    d_bias: np.ndarray
    d_input: np.ndarray


class Stage:
    """The protocol every stage follows, wrapped around its own forward/backward.

    ``params`` names the stage's parameter arrays (empty for stages without);
    ``step(x) -> (y, cache)`` runs ``forward`` and keeps what backward needs;
    ``backprop(cache, upstream) -> (d_input, record)`` runs ``backward``, and
    ``record`` holds ``d_<name>`` for each name in ``params``, or is None.
    The defaults fit stages whose ``backward`` needs only the upstream.
    """

    params: tuple[str, ...] = ()

    def step(self, x) -> tuple[np.ndarray, object]:
        return self.forward(x), None

    def backprop(self, cache, upstream) -> tuple[np.ndarray, object]:
        return self.backward(upstream), None


class ParametricStage(Stage):
    """A stage with trainable arrays: ``backward(x, upstream)`` returns a
    gradient record, and ``bias`` is the one parameter that starts at zero."""

    def step(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.forward(x), x

    def backprop(self, cache, upstream):
        grads = self.backward(cache, upstream)
        return grads.d_input, grads

    def reinitialize(self, rng: SeededRng, half_width: float = 0.5) -> None:
        """Redraws every non-bias parameter, in ``params`` order, and zeroes the bias."""
        for name in self.params:
            old = getattr(self, name)
            setattr(self, name, np.zeros_like(old) if name == "bias" else init_uniform(rng, old.shape, half_width))


class DenseLayer(ParametricStage):
    """Fully connected layer, y = W x + b, with an individual weight per
    input/output pair.  Pre-activation only; nonlinearities are separate
    stages."""

    params = ("weights", "bias")

    def __init__(self, weights, bias):
        self.weights = tensor(weights)
        self.bias = tensor(bias)
        if self.weights.ndim != 2:
            raise ShapeError(f"dense weights must be 2-D, got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(f"dense bias {self.bias.shape} does not match weights {self.weights.shape}")

    @property
    def out_units(self) -> int:
        return self.weights.shape[0]

    @property
    def in_units(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def from_rng(cls, rng: SeededRng, in_units: int, out_units: int, half_width: float = 0.5) -> "DenseLayer":
        return cls(init_uniform(rng, (out_units, in_units), half_width), np.zeros(out_units))

    def forward(self, x) -> np.ndarray:
        xb, single = _as_batch(x, 1, "dense forward")
        if xb.shape[1] != self.in_units:
            raise ShapeError(f"dense forward: input {xb.shape} does not match weights {self.weights.shape}")
        y = xb @ self.weights.T + self.bias
        return y[0] if single else y

    def backward(self, x, upstream) -> DenseGradients:
        """dW[i][j] = upstream[i] * x[j], db = upstream, dx = W^T upstream,
        each summed over the batch where one is present."""
        xb, single = _as_batch(x, 1, "dense backward")
        ub, _ = _as_batch(upstream, 1, "dense backward")
        if xb.shape[1] != self.in_units or ub.shape != (xb.shape[0], self.out_units):
            raise ShapeError(
                f"dense backward: input {xb.shape} / upstream {ub.shape} do not match weights {self.weights.shape}"
            )
        d_weights = ub.T @ xb
        d_bias = ub.sum(axis=0)
        d_input = ub @ self.weights
        return DenseGradients(d_weights, d_bias, d_input[0] if single else d_input)


class Conv1DLayer(ParametricStage):
    """1-D convolution with the same filter weights applied at every position.

    ``filters`` has shape (out_channels, in_channels, width) and one bias per
    output channel is shared across positions.  ``zero_same`` padding keeps
    the position count (width must be odd so outputs align with inputs);
    ``none`` yields positions - width + 1 outputs.
    """

    params = ("filters", "bias")

    def __init__(self, filters, bias, padding: str = PADDING_SAME):
        self.filters = tensor(filters)
        self.bias = tensor(bias)
        if self.filters.ndim != 3:
            raise ShapeError(f"conv filters must be 3-D, got {self.filters.shape}")
        if self.bias.shape != (self.filters.shape[0],):
            raise ShapeError(f"conv bias {self.bias.shape} does not match filters {self.filters.shape}")
        if padding not in (PADDING_SAME, PADDING_NONE):
            raise ValueError(f"unknown padding mode {padding!r}")
        if padding == PADDING_SAME and self.width % 2 == 0:
            raise ShapeError(f"zero_same padding needs an odd filter width, got {self.width}")
        self.padding = padding

    @property
    def out_channels(self) -> int:
        return self.filters.shape[0]

    @property
    def in_channels(self) -> int:
        return self.filters.shape[1]

    @property
    def width(self) -> int:
        return self.filters.shape[2]

    @classmethod
    def from_rng(
        cls,
        rng: SeededRng,
        in_channels: int,
        out_channels: int,
        width: int,
        padding: str = PADDING_SAME,
        half_width: float = 0.5,
    ) -> "Conv1DLayer":
        filters = init_uniform(rng, (out_channels, in_channels, width), half_width)
        return cls(filters, np.zeros(out_channels), padding)

    def _padded(self, xb: np.ndarray) -> np.ndarray:
        if self.padding == PADDING_NONE:
            return xb
        pad = (self.width - 1) // 2
        return np.pad(xb, ((0, 0), (0, 0), (pad, pad)))

    def out_positions(self, positions: int) -> int:
        if self.padding == PADDING_SAME:
            return positions
        return positions - self.width + 1

    def forward(self, x) -> np.ndarray:
        """y[c][p] = b[c] + sum over (k, t) of filters[c][k][t] * x_padded[k][p + t].

        The contraction is a fixed-order loop over filter taps rather than an
        einsum: einsum's buffered iteration can group the same sum differently
        for different memory layouts, which would break bit-level
        reproducibility of whole training runs.
        """
        xb, single = _as_batch(x, 2, "conv forward")
        if xb.shape[1] != self.in_channels:
            raise ShapeError(f"conv forward: input {xb.shape} does not match filters {self.filters.shape}")
        if self.padding == PADDING_NONE and xb.shape[2] < self.width:
            raise ShapeError(f"conv forward: {xb.shape[2]} positions is fewer than filter width {self.width}")
        padded = self._padded(xb)
        out_p = padded.shape[2] - self.width + 1
        y = np.zeros((xb.shape[0], self.out_channels, out_p))
        for k in range(self.in_channels):
            for t in range(self.width):
                y += self.filters[None, :, k, t, None] * padded[:, None, k, t : t + out_p]
        y += self.bias[None, :, None]
        return y[0] if single else y

    def backward(self, x, upstream) -> ConvGradients:
        """Each shared weight's gradient sums its contributions over all
        positions; d_input is the transposed convolution of the upstream."""
        xb, single = _as_batch(x, 2, "conv backward")
        ub, _ = _as_batch(upstream, 2, "conv backward")
        out_p = self.out_positions(xb.shape[2])
        if xb.shape[1] != self.in_channels or ub.shape != (xb.shape[0], self.out_channels, out_p):
            raise ShapeError(
                f"conv backward: input {xb.shape} / upstream {ub.shape} do not match filters {self.filters.shape}"
            )
        padded = self._padded(xb)
        d_filters = np.empty_like(self.filters)
        for k in range(self.in_channels):
            for t in range(self.width):
                d_filters[:, k, t] = np.sum(ub * padded[:, None, k, t : t + out_p], axis=(0, 2))
        d_bias = ub.sum(axis=(0, 2))
        d_padded = np.zeros_like(padded)
        for t in range(self.width):
            for c in range(self.out_channels):
                d_padded[:, :, t : t + out_p] += ub[:, c, None, :] * self.filters[None, c, :, t, None]
        if self.padding == PADDING_SAME:
            pad = (self.width - 1) // 2
            d_input = d_padded[:, :, pad : pad + xb.shape[2]]
        else:
            d_input = d_padded
        return ConvGradients(d_filters, d_bias, d_input[0] if single else d_input)


class GlobalMaxPool(Stage):
    """Passes the maximum value in each channel across all positions.

    Ties break toward the lowest position index so gradients are
    reproducible.  One output value per channel, whatever the input width.
    """

    kind = "global_max"
    tie_break = "lowest_index"

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Returns (pooled values, per-channel argmax indices)."""
        xb, single = _as_batch(x, 2, "max pool forward")
        if xb.shape[2] < 1:
            raise ShapeError(f"max pool forward: empty position axis in {xb.shape}")
        argmax = np.argmax(xb, axis=2)  # np.argmax takes the first maximum
        pooled = np.take_along_axis(xb, argmax[:, :, None], axis=2)[:, :, 0]
        if single:
            return pooled[0], argmax[0]
        return pooled, argmax

    def step(self, x) -> tuple[np.ndarray, tuple[np.ndarray, int]]:
        pooled, argmax = self.forward(x)
        return pooled, (argmax, np.shape(x)[-1])

    def backprop(self, cache, upstream) -> tuple[np.ndarray, None]:
        argmax, positions = cache
        return self.backward(argmax, upstream, positions), None

    def backward(self, argmax, upstream, positions: int) -> np.ndarray:
        """Routes each channel's upstream value to its argmax position."""
        ub, single = _as_batch(upstream, 1, "max pool backward")
        ib, _ = _as_batch(np.asarray(argmax), 1, "max pool backward")
        if ib.shape != ub.shape:
            raise ValueError(f"max pool backward: argmax shape {ib.shape} does not match upstream {ub.shape}")
        idx = ib.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= positions):
            raise ValueError(f"max pool backward: argmax indices out of range for {positions} positions")
        d_input = np.zeros((ub.shape[0], ub.shape[1], positions))
        np.put_along_axis(d_input, idx[:, :, None], ub[:, :, None], axis=2)
        return d_input[0] if single else d_input


class Sigmoid(Stage):
    """Elementwise logistic output stage."""

    def forward(self, x) -> np.ndarray:
        return sigmoid(x)

    def backward(self, output, upstream) -> np.ndarray:
        # derivative expressed through the cached forward output
        return upstream * output * (1.0 - output)

    def step(self, x) -> tuple[np.ndarray, np.ndarray]:
        y = self.forward(x)
        return y, y

    def backprop(self, cache, upstream) -> tuple[np.ndarray, None]:
        return self.backward(cache, upstream), None


class Softmax(Stage):
    """Softmax over the last axis: an output head that turns logits into
    class probabilities.  It has no backward; networks train on the logits
    with a loss that applies the softmax itself."""

    def forward(self, x) -> np.ndarray:
        return softmax(x, axis=-1)

    def backprop(self, cache, upstream):
        raise ValueError("softmax has no backward; train on logits with the cross_entropy loss")


class Reshape(Stage):
    """Reshapes instance dims, passing a leading batch dim through untouched."""

    def __init__(self, shape_in, shape_out):
        self.shape_in = tuple(int(d) for d in shape_in)
        self.shape_out = tuple(int(d) for d in shape_out)
        if math.prod(self.shape_in) != math.prod(self.shape_out):
            raise ShapeError(f"reshape {self.shape_in} -> {self.shape_out} changes element count")

    def _map(self, arr: np.ndarray, src: tuple, dst: tuple, what: str) -> np.ndarray:
        if arr.shape == src:
            return arr.reshape(dst)
        if arr.shape[1:] == src:
            return arr.reshape((arr.shape[0],) + dst)
        raise ShapeError(f"{what}: expected shape {src} (optionally batched), got {arr.shape}")

    def forward(self, x) -> np.ndarray:
        return self._map(np.asarray(x, dtype=np.float64), self.shape_in, self.shape_out, "reshape forward")

    def backward(self, upstream) -> np.ndarray:
        return self._map(np.asarray(upstream, dtype=np.float64), self.shape_out, self.shape_in, "reshape backward")


class Transpose(Stage):
    """Swaps the last two axes (channels-by-positions vs positions-by-channels)."""

    def forward(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim < 2:
            raise ShapeError(f"transpose needs at least 2 dims, got {arr.shape}")
        return np.swapaxes(arr, -1, -2)

    def backward(self, upstream) -> np.ndarray:
        return self.forward(upstream)
